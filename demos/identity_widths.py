"""Closed-form envelopes for approximation and Kolmogorov numbers of the
identity between l_p^n spaces, and where they stop being available.

For q <= p everything is exact: a_k = d_k = (n - k + 1)^(1/q - 1/p).  For
p < q the library returns equivalence shapes with unknown constants, one-
sided estimates on the q = p' boundary, and refuses (no-closed-form) where
the literature genuinely leaves a hole, such as (1, inf) at large index.
Each answer is a Bracket: its sides carry their kind (exact or shape) and
its method names the case.
"""

import math

from snumbers.widths import NO_CLOSED_FORM, approx_id_envelope, kolmogorov_id_envelope

INF = math.inf

if __name__ == "__main__":
    n = 16

    print(f"exact decay of a_k = d_k for q <= p, n = {n}")
    for (p, q) in ((2.0, 1.0), (INF, 2.0), (INF, 0.5)):
        vals = [approx_id_envelope(p, q, n, k).lower for k in (1, 4, 8, 12, 16)]
        print(f"  ({p}, {q}): " + "  ".join(f"{v:8.4f}" for v in vals))

    print()
    print(f"dispatch map for p < q at n = {n} (a-number cases)")
    pairs = [(1.0, 2.0), (3.0, 6.0), (1.5, 2.5), (1.5, 4.0), (1.5, 3.0), (1.0, INF)]
    for (p, q) in pairs:
        for k in (2, 8):
            env = approx_id_envelope(p, q, n, k)
            lo = "----" if env.lower is None else f"{env.lower:6.3f}"
            up = "----" if env.upper is None else f"{env.upper:6.3f}"
            kind = env.upper_kind or "-"
            print(f"  p={p:<4} q={q:<4} k={k:2d}   [{lo}, {up}]   {kind:<6} {env.method}")

    print()
    print("Kolmogorov side: same case-1 value, log-widened bracket at q = inf")
    for k in (2, 4):
        a = kolmogorov_id_envelope(2.0, 1.0, n, k)
        b = kolmogorov_id_envelope(1.0, INF, n, k)
        print(f"  k={k}: case-1 value {a.lower:.4f} ({a.method}, {a.lower_kind}); "
              f"(1,inf) bracket [{b.lower:.4f}, {b.upper:.4f}] ({b.method}, {b.lower_kind})")

    print()
    print("quasi-norm target q = 0.5: only a lower shape, and only for small k")
    for k in (1, 5, 9, 13):
        env = kolmogorov_id_envelope(1.0, 0.5, n, k)
        if env.method == NO_CLOSED_FORM:
            print(f"  k={k:2d}: no closed form")
        else:
            print(f"  k={k:2d}: lower {env.lower:.4f} ({env.method}, {env.lower_kind})")
