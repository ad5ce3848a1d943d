"""Geometry of l_p for p < 1: triangle constants, rho-norms, ball volumes.

Below 1 the triangle inequality only holds up to C = 2^(1/p - 1), but each
space still carries an equivalent rho-norm with rho = p.  For l_p itself
|a + b|^p <= |a|^p + |b|^p makes the trivial decomposition optimal, so the
rho-norm is ||x||_p exactly, and aoki_norm returns it in closed form; its
constants C, C0 and rho are QuasiNormInfo.for_exponent(p)'s.
"""

import numpy as np

from snumbers.spaces import (
    QuasiNormInfo,
    SpaceSpec,
    aoki_norm,
    ball_volume,
    dist_to_subspace,
    lp_norm,
    quasi_constant,
    sample_sphere,
)

if __name__ == "__main__":
    rng = np.random.default_rng(7)

    print("triangle constants and induced exponents")
    for p in (0.25, 0.4, 0.5, 0.8, 1.0, 2.0):
        info = QuasiNormInfo.for_exponent(p)
        print(f"  p={p:<5} C={info.C:8.4f}  C0={info.C0:8.4f}  "
              f"rho={info.rho:.4f}  equiv factor A={info.equivalence_factor:8.4f}")

    print()
    print("rho-norm vs ||x||_p (equal: the trivial decomposition is optimal)")
    for p in (0.4, 0.5, 0.8):
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(5)
            worst = max(worst, abs(aoki_norm(x, p) - lp_norm(x, p)) / lp_norm(x, p))
        print(f"  p={p}: worst relative gap over 50 vectors = {worst:.2e}")

    print()
    print("unit ball volumes shrink fast as p drops")
    for n in (2, 3, 4):
        row = "  n=%d: " % n
        for p in (0.5, 1.0, 2.0):
            row += f"vol(B_{p}) = {ball_volume(SpaceSpec(p=p, n=n)):8.4f}   "
        print(row)

    print()
    print("distance to a line in l_q, q = 0.7: the minimizer sits on a kink,")
    print("  which the vertex search over the kinks finds exactly")
    x = np.array([1.0, 0.0, -0.5])
    direction = np.array([1.0, 1.0, 1.0])
    d = dist_to_subspace(x, [direction], 0.7)
    # compare against a fine scan of the single coefficient
    ts = np.linspace(-2, 2, 20001)
    scan = min(lp_norm(x - t * direction, 0.7) for t in ts)
    print(f"  search: {d:.6f}   scan over 20001 points: {scan:.6f}")

    print()
    print("sup of a fixed functional over the p-sphere, sampled vs exact")
    a = np.array([0.3, -1.1, 0.7, 0.2])
    exact = {0.5: np.max(np.abs(a)), 2.0: lp_norm(a, 2.0)}
    for p in (0.5, 2.0):
        pts = sample_sphere(rng, 4, p, size=4000)
        vals = pts @ a
        print(f"  p={p}: sampled sup = {np.max(np.abs(vals)):.4f}   "
              f"exact = {exact[p]:.4f}")
    print("  (for p < 1 the sup sits at a vertex, which random points miss;")
    print("   the operator-norm code special-cases p <= 1 for exactly this)")
