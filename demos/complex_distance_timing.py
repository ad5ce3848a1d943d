"""Per-call time of the certified complex l_q distance, 1 <= q < inf.

``spaces.dist_to_subspace`` solves a complex 1 <= q < inf distance with
numpy alone and returns the value whatever its Hahn-Banach certificate
says; the script counts the calls whose certificate is not within
CERTIFIED_GAP.  It times that route and the two-start Nelder-Mead
descent that used to be the only route on

- ``random``: complex instances with n = 1 + seed % 5 coordinates and
  m = 1, 2, 3 basis vectors, full rank and with a dependent extra vector
  (the inputs of the property test in tests/test_spaces.py), at q in
  {1, 1.5, 3};
- ``bench-row`` (with --bench-row): the distance calls of bench/run.py's
  width-search complex row (3x3 complex l_2 -> l_1 Kolmogorov search,
  k = 2) for workload seeds 1-20.

Run from the repository root with one BLAS thread:

    OMP_NUM_THREADS=1 PYTHONPATH=src python demos/complex_distance_timing.py [--bench-row] [--json out.json]
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from snumbers import spaces


def nelder_mead_distance(x, basis, q, budget=2000):
    """The two-start Nelder-Mead route: from the least-squares and the zero
    coefficients, maxfev budget // 2 each, capped by ||x||_q and the
    least-squares residual."""
    x, B = spaces._one_field(x, np.column_stack(basis))
    c_ls = np.linalg.lstsq(B, x, rcond=None)[0]
    cap = min(spaces.lp_norm(x, q), spaces.lp_norm(x - B @ c_ls, q))
    m = B.shape[1]

    def objective(z):
        return float((np.abs(x - B @ (z[:m] + 1j * z[m:])) ** q).sum())

    starts = [np.concatenate([c_ls.real, c_ls.imag]), np.zeros(2 * m)]
    val = spaces._derivative_free_descent(objective, starts, max(200, budget // 2))
    return min(cap, val ** (1.0 / q))


def random_instance(seed, n, m, deficient):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    basis = list(B.T)
    if deficient:
        basis.append((1.0 - 2.0j) * basis[0])
    return x, basis


def bench_row_calls(seeds=range(1, 21)):
    """(x, basis, q) of every distance call of width-search's complex row."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
    import workloads
    from snumbers import widths

    calls = []
    solve = widths._subspace_distance

    def recording(x, B, Q, tilt, cap, q, **kwargs):
        calls.append((np.array(x), list(B.T), q))
        return solve(x, B, Q, tilt, cap, q, **kwargs)

    widths._subspace_distance = recording
    try:
        for seed in seeds:
            workloads.width_task(seed, 1).call()
    finally:
        widths._subspace_distance = solve
    return calls


def clock(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def measure(calls):
    """Per-call times (ms) of both routes, the count of uncertified values
    and the largest certified relative gap over the calls."""
    ours, theirs, uncertified, gap = [], [], 0, 0.0
    for x, basis, q in calls:
        B = np.column_stack(basis).astype(complex)
        value, lower = spaces._convex_distance(x.astype(complex), *spaces._orthonormal_span(B), q)
        rel = (value - lower) / value if value else 0.0
        uncertified += rel > spaces.CERTIFIED_GAP
        gap = max(gap, rel)
        ours.append(clock(lambda: spaces.dist_to_subspace(x, basis, q))[1])
        theirs.append(clock(lambda: nelder_mead_distance(x, basis, q))[1])

    def stats(ts):
        ts = 1e3 * np.array(ts)
        return {"median": round(float(np.median(ts)), 3), "mean": round(float(ts.mean()), 3),
                "max": round(float(ts.max()), 3)}

    return {"calls": len(calls), "uncertified": int(uncertified), "max_certified_gap": float(gap),
            "certified_ms": stats(ours), "nelder_mead_ms": stats(theirs),
            "mean_speedup": round(float(np.mean(theirs) / np.mean(ours)), 1)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40, help="random instances per (q, m, rank) group")
    ap.add_argument("--bench-row", action="store_true", help="also time width-search's complex row")
    ap.add_argument("--json", help="write the table to this file as JSON")
    args = ap.parse_args(argv)

    table = {}
    for q in (1.0, 1.5, 3.0):
        for m in (1, 2, 3):
            calls = [(*random_instance(seed, 1 + seed % 5, m, deficient), q)
                     for deficient in (False, True) for seed in range(args.seeds)]
            table[f"random q={q:g} m={m}"] = measure(calls)
    if args.bench_row:
        table["bench-row q=1 m=1"] = measure(bench_row_calls())

    print(f"{'inputs':<22}{'calls':>6}{'uncert.':>9}{'max gap':>10}"
          f"{'certified median/mean/max ms':>31}{'Nelder-Mead median/mean/max ms':>33}{'speedup':>9}")
    for name, r in table.items():
        c, nm = r["certified_ms"], r["nelder_mead_ms"]
        print(f"{name:<22}{r['calls']:>6}{r['uncertified']:>9}{r['max_certified_gap']:>10.1e}"
              f"{c['median']:>11.3f}{c['mean']:>10.3f}{c['max']:>10.3f}"
              f"{nm['median']:>12.3f}{nm['mean']:>10.3f}{nm['max']:>11.3f}{r['mean_speedup']:>8.1f}x")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
