"""Bracketing entropy numbers of id: l_p^n -> l_q^n from both sides.

Certified lower bounds (packing points that are provably far apart, volume
comparison, sign-vector separation) against greedy covering uppers, plus the
three-piece closed-form envelope with its regime breakpoints.
"""

import math

import numpy as np

from snumbers.entropy import (
    PACK_POINTS,
    best_certified_lower,
    entropy_brackets,
    regime_envelope,
)
from snumbers.operators import identity_operator

INF = math.inf


def bracket_table(p, q, n, k_max=6, cloud=3000, seed=42):
    T = identity_operator(n, p, q)
    print(f"id: l_{p}^{n} -> l_{q}^{n}")
    print("   k   lower  (method)          upper+delta")
    for k, b in enumerate(entropy_brackets(T, k_max, cloud, seed), 1):
        # the bracket's lower is best_certified_lower's, which names the bound that won
        method = best_certified_lower(T, k, budget=min(cloud, PACK_POINTS), seed=seed).method_lower
        print(f"  {k:2d}  {b.lower:6.4f}  ({method:<12s})   {b.upper:6.4f}")
    print()


if __name__ == "__main__":
    bracket_table(1.0, INF, 2)
    bracket_table(1.0, 2.0, 3)
    bracket_table(0.5, 2.0, 2)

    # the closed-form regime envelope for a larger instance: three pieces,
    # breakpoints at log2(2n) and 2n (complex scalars)
    n = 64
    print(f"regime envelope for id: l_1^{n} -> l_inf^{n} (complex)")
    last = None
    for k in (2, 4, 7, 8, 20, 64, 127, 128, 129, 200):
        env = regime_envelope(1.0, INF, n, k, field="complex")
        marker = "" if env.method == last else f"   <- {env.method}"
        last = env.method
        print(f"  k={k:4d}  {env.lower_kind}={env.lower:10.6f}{marker}")

    print()
    print("the mid and large pieces meet at k = 2n with the exact ratio 2;")
    print("the greedy cover cannot certify that, but the formula can.")
