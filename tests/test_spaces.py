"""Quasi-norm geometry: norms, the equivalent rho-norm, volumes, distances."""

import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from snumbers import spaces
from snumbers.spaces import (
    COMPLEX,
    REAL,
    QuasiNormInfo,
    SpaceSpec,
    aoki_norm,
    ball_volume,
    dist_to_subspace,
    inv_exponent,
    log_ball_volume,
    lp_norm,
    quasi_constant,
    rho_exponent,
    sample_ball,
    sample_sphere,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# exponents and norms
# ---------------------------------------------------------------------------


def test_inv_exponent():
    assert inv_exponent(2.0) == 0.5
    assert inv_exponent(0.5) == 2.0
    assert inv_exponent(math.inf) == 0.0


def test_lp_norm_anchors():
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert lp_norm([1.0, 1.0], 0.5) == pytest.approx(4.0)
    assert lp_norm([1.0, -2.0, 3.0], math.inf) == pytest.approx(3.0)
    assert lp_norm([1.0, -2.0], 1.0) == pytest.approx(3.0)
    assert lp_norm([3 + 4j], 1.0) == pytest.approx(5.0)


@pytest.mark.parametrize("p", [np.int64(2), np.float32(1.5), np.float64(0.5), 3, math.inf])
def test_real_exponents_are_taken_as_floats(p):
    # numpy scalars are exponents too, and a float32 one is computed in
    # double precision, as the Python float of its value
    x = np.array([1.0, -2.0, 3.0])
    assert lp_norm(x, p) == lp_norm(x, float(p))
    assert SpaceSpec(p, 3).p == float(p)
    assert type(SpaceSpec(p, 3).p) is float


@pytest.mark.parametrize("p", [True, False, np.True_, 1j, "2", None, math.nan, 0, -1.0])
def test_exponents_that_are_not_positive_reals_are_refused(p):
    # a bool is no exponent: True would give the l_1 norm
    with pytest.raises(ValueError, match="must be a positive number or inf"):
        lp_norm(np.ones(3), p)
    with pytest.raises(ValueError, match="must be a positive number or inf"):
        SpaceSpec(p, 3)


@pytest.mark.parametrize("n", [True, False, np.True_, 2.0, np.float64(3.0), "3", None, 0, -2])
def test_dimensions_that_are_not_positive_integers_are_refused(n):
    # a bool is no dimension: True would give l_p^1
    with pytest.raises(ValueError, match="n must be a positive integer"):
        SpaceSpec(2.0, n)


@pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3)])
def test_integer_dimensions_are_taken_as_ints(n):
    spec = SpaceSpec(2.0, n)
    assert spec.n == 3 and type(spec.n) is int


def test_quasi_constant_values():
    assert quasi_constant(0.5) == 2.0
    assert quasi_constant(1.0) == 1.0
    assert quasi_constant(2.0) == 1.0
    assert quasi_constant(math.inf) == 1.0


def test_rho_exponent_values():
    assert rho_exponent(1.0) == pytest.approx(1.0)
    assert rho_exponent(2.0) == pytest.approx(0.5)
    assert rho_exponent(4.0) == pytest.approx(1.0 / 3.0)


def test_quasi_norm_info_roundtrip():
    info = QuasiNormInfo.for_exponent(0.5)
    assert info.C == 2.0
    assert info.C0 == 4.0
    # for l_p the equivalent rho-norm exponent is p itself
    assert info.rho == pytest.approx(0.5)
    assert info.equivalence_factor == pytest.approx(16.0)


def test_space_spec_validation():
    s = SpaceSpec(p=0.5, n=3, field=REAL)
    assert s.volumetric_dim == 3
    assert SpaceSpec(p=2, n=3, field=COMPLEX).volumetric_dim == 6
    with pytest.raises(ValueError):
        SpaceSpec(p=0.0, n=3, field=REAL)
    with pytest.raises(ValueError):
        SpaceSpec(p=2.0, n=0, field=REAL)
    with pytest.raises(ValueError):
        SpaceSpec(p=2.0, n=3, field="quaternion")


@given(
    xs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5),
    t=st.floats(-4, 4, allow_nan=False),
    p=st.sampled_from([0.5, 0.75, 1.0, 2.0]),
)
def test_lp_homogeneity(xs, t, p):
    x = np.array(xs)
    assert lp_norm(t * x, p) == pytest.approx(abs(t) * lp_norm(x, p), abs=1e-9)


@given(
    xs=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5),
    ys=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=5),
    p=st.sampled_from([0.4, 0.5, 0.8, 1.0]),
)
def test_quasi_triangle_and_rho_subadditivity(xs, ys, p):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    C = quasi_constant(p)
    assert lp_norm(x + y, p) <= C * (lp_norm(x, p) + lp_norm(y, p)) + 1e-9
    # the p-th power is genuinely subadditive for p <= 1
    assert lp_norm(x + y, p) ** p <= lp_norm(x, p) ** p + lp_norm(y, p) ** p + 1e-9


# ---------------------------------------------------------------------------
# Aoki construction
# ---------------------------------------------------------------------------


def test_aoki_equals_lp_on_sequence_spaces():
    # on l_p the trivial decomposition is already optimal, so the rho-norm
    # is the quasi-norm itself, bit for bit, out to the ends of the float
    # range where lp_norm's rescue rule runs
    rng = np.random.default_rng(11)
    for p in (0.4, 0.5, 0.8):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 7)))
            assert aoki_norm(x, p) == lp_norm(x, p)
        x = np.array([1.5, 0.0, -2.0])
        for scale in (1.0, 1e-200, 1e200):
            v = aoki_norm(scale * x, p)
            assert v == lp_norm(scale * x, p)
            assert v == pytest.approx(scale * lp_norm(x, p), rel=1e-12, abs=0.0)


def test_aoki_two_part_exhaustive_oracle():
    """The search can only improve on the exhaustive two-part minimum."""
    rng = np.random.default_rng(5)
    p = 0.5
    rho = rho_exponent(2.0 * quasi_constant(p))
    for _ in range(10):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal(n)
        best = lp_norm(x, p)
        for mask in range(1, 2 ** (n - 1)):
            sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
            a, b = np.where(sel, x, 0.0), np.where(sel, 0.0, x)
            best = min(best, (lp_norm(a, p) ** rho + lp_norm(b, p) ** rho) ** (1 / rho))
        assert aoki_norm(x, p) <= best + TOL


def test_aoki_sandwich():
    rng = np.random.default_rng(3)
    for p in (0.4, 0.5, 0.8):
        C0 = 2.0 * quasi_constant(p)
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(1, 6))) * 3.0
            v = aoki_norm(x, p)
            ref = lp_norm(x, p)
            assert v <= ref + TOL
            assert ref / C0**2 <= v + TOL


def test_aoki_constructed_subadditivity():
    rng = np.random.default_rng(9)
    p = 0.5
    rho = QuasiNormInfo.for_exponent(p).rho
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        vs = aoki_norm(x + y, p)
        assert vs**rho <= aoki_norm(x, p) ** rho + aoki_norm(y, p) ** rho + TOL


def test_aoki_rejects_convex_exponent():
    with pytest.raises(ValueError):
        aoki_norm(np.ones(3), 1.5)


# ---------------------------------------------------------------------------
# distance to subspaces
# ---------------------------------------------------------------------------


def test_dist_euclidean_projection():
    d = dist_to_subspace(np.array([1.0, 0.0]), [np.array([1.0, 1.0])], 2.0)
    assert d == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_dist_linf_and_l1_lines():
    x = np.array([1.0, 0.0])
    b = [np.array([1.0, 1.0])]
    # min_c max(|1-c|, |c|) = 1/2 at c = 1/2; min_c |1-c| + |c| = 1 on [0,1]
    assert dist_to_subspace(x, b, math.inf) == pytest.approx(0.5, abs=1e-9)
    assert dist_to_subspace(x, b, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_dist_real_l1_and_linf_in_fresh_interpreter_load_no_scipy():
    # a fresh interpreter runs every real dist_to_subspace branch.  At q = 1
    # the median point c = 1 gives 9, below ||x||_1 = 13 and the
    # least-squares residual's 13.5, so only the certified route reaches it;
    # at q = inf the midrange point c = 5.5 gives 4.5
    code = textwrap.dedent("""
        import math, sys
        import numpy as np
        from snumbers.spaces import dist_to_subspace

        x, b = np.array([1.0, 1.0, 1.0, 10.0]), [np.ones(4)]
        print(repr(dist_to_subspace(x, b, 1.0)), repr(dist_to_subspace(x, b, math.inf)))
        B = np.array([[1.0, 0.5], [0.0, 2.0], [-1.0, 1.0], [0.5, 1.0]])
        for q in (0.5, 1.0, 1.5, 2.0, math.inf):
            dist_to_subspace(np.array([1.0, 0.0, 3.0, 1.0]), list(B.T), q)
        rng = np.random.default_rng(0)
        dist_to_subspace(rng.standard_normal(14), list(rng.standard_normal((5, 14))), 0.5)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    values, loaded = r.stdout.splitlines()
    assert [float(v) for v in values.split()] == pytest.approx([9.0, 4.5], rel=1e-14)
    assert loaded == "[]"


def test_dist_complex_l1_loads_no_scipy():
    # a fresh interpreter runs every complex dist_to_subspace branch
    code = textwrap.dedent("""
        import math, sys
        import numpy as np
        from snumbers.spaces import dist_to_subspace

        x = np.array([1.0 + 2.0j, -0.5j, 3.0, 1.0 - 1.0j])
        B = np.array([[1.0, 0.5j], [1.0j, 2.0], [-1.0, 1.0], [0.5, 1.0 + 1.0j]])
        for q in (0.5, 1.0, 1.5, 2.0, math.inf):
            dist_to_subspace(x, [B[:, 0]], q)
            dist_to_subspace(x, list(B.T), q)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


def test_dist_quasi_matches_kink_oracle():
    # for q < 1 the objective is concave between the kinks c = x_i / v_i, so
    # the true minimum over a 1-dim subspace is the best kink value exactly
    rng = np.random.default_rng(2)
    q = 0.5
    for _ in range(8):
        x = rng.standard_normal(3)
        v = rng.standard_normal(3)
        oracle = min(lp_norm(_kink_residual(x, v, i), q) for i in range(3))
        d = dist_to_subspace(x, [v], q)
        assert d <= lp_norm(x, q) + TOL
        assert d == pytest.approx(oracle, rel=1e-9)


def _kink_residual(x, v, i):
    # coordinate i vanishes exactly at the kink; evaluated in floating point
    # it keeps a residue near 1e-16 that |.|^q inflates to about 1e-8
    r = x - (x[i] / v[i]) * v
    r[i] = 0.0
    return r


def _old_quasi_distance(x, B, q, budget=2000, seed=0):
    """The previous q < 1 path: vertices scored in floating point, then an
    8-start Nelder-Mead polish.  Kept only to check the new path against."""
    n, m = B.shape
    c_ls = np.linalg.lstsq(B, x, rcond=None)[0]
    best = min(lp_norm(x, q), lp_norm(x - B @ c_ls, q))
    if math.comb(n, m) <= 512:
        for rows in itertools.combinations(range(n), m):
            try:
                c = np.linalg.solve(B[list(rows)], x[list(rows)])
            except np.linalg.LinAlgError:
                continue
            best = min(best, lp_norm(x - B @ c, q))
    rng = np.random.default_rng(spaces._stable_seed(seed, x, x.size))
    scale = max(1.0, float(np.abs(c_ls).max(initial=0.0)))
    starts = [c_ls, np.zeros(m)] + [c_ls + 0.5 * scale * rng.standard_normal(m) for _ in range(6)]
    maxfev = max(100, budget // len(starts))
    for c0 in starts:
        res = optimize.minimize(lambda c: float((np.abs(x - B @ c) ** q).sum()), c0,
                                method="Nelder-Mead",
                                options={"maxfev": maxfev, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, float(res.fun) ** (1.0 / q))
    return best


def _exact_solve(A, b):
    """Gauss-Jordan elimination in rationals; None for a singular A."""
    m = len(b)
    rows = [[Fraction(float(a)) for a in A[i]] + [Fraction(float(b[i]))] for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * c for a, c in zip(rows[r], rows[col])]
    return [rows[i][m] / rows[i][i] for i in range(m)]


def _vertex_oracle(x, B, q):
    """min ||x - Bc||_q over the arrangement vertices, each solved exactly."""
    n, m = B.shape
    best = lp_norm(x, q)
    for rows in itertools.combinations(range(n), m):
        c = _exact_solve(B[list(rows)], x[list(rows)])
        if c is None:
            continue
        r = [Fraction(float(x[i])) - sum(Fraction(float(B[i, j])) * c[j] for j in range(m))
             for i in range(n)]
        best = min(best, lp_norm(np.array([float(t) for t in r]), q))
    return best


def _random_quasi_instances(seed, count):
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        q = (0.3, 0.5, 0.7, 0.9)[t % 4]
        yield rng.standard_normal(n), rng.standard_normal((n, m)), q


def test_dist_quasi_full_rank_is_exact_vertex_minimum():
    for x, B, q in _random_quasi_instances(11, 48):
        d = dist_to_subspace(x, list(B.T), q)
        assert d <= _old_quasi_distance(x, B, q, seed=3) * (1.0 + 1e-12)
        assert d == pytest.approx(_vertex_oracle(x, B, q), rel=1e-10)


def test_dist_quasi_full_rank_skips_descent():
    for x, B, q in _random_quasi_instances(12, 40):
        dist_to_subspace(x, list(B.T), q)
        # a dependent column (exactly: a power-of-two multiple): the vertex
        # minimum runs on independent columns of the same span, and is never
        # above the previous route's value
        dependent = np.column_stack([B, -2.0 * B[:, -1]])
        d = dist_to_subspace(x, list(dependent.T), q)
        assert d == pytest.approx(_vertex_oracle(x, B, q), rel=1e-10)
        assert d <= _old_quasi_distance(x, dependent, q) * (1.0 + 1e-12)
        # a rounded combination is dependent up to rounding, which the rank
        # rule of _orthonormal_span drops
        rounded = np.column_stack([B, B @ np.linspace(1.0, -2.0, B.shape[1])])
        d = dist_to_subspace(x, list(rounded.T), q)
        assert d == pytest.approx(_vertex_oracle(x, B, q), rel=1e-10)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.3, 0.5, 1.0])
def test_stacked_vertex_minimum_has_the_bits_of_one_solve_per_subsystem(field, q):
    # one stacked solve and one stacked residual product against a loop of
    # one solve per subsystem: the same value and residual, bit for bit,
    # also where a subsystem is singular (the loop's fallback) and on a
    # rank-deficient basis, whose subsystems are singular or nearly so
    rng = np.random.default_rng(61)
    singular = 0
    for t in range(120):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, min(3, n) + 1))
        x, B = rng.standard_normal(n), rng.standard_normal((n, m))
        if field == COMPLEX:
            x, B = x + 1j * rng.standard_normal(n), B + 1j * rng.standard_normal((n, m))
        if t % 4 == 1:
            B[int(rng.integers(n)), 0] = 0.0  # a zero entry: some subsystem is singular
        if t % 4 == 2 and m > 1:
            B[:, -1] = 2.0 * B[:, 0]  # rank-deficient
        if t % 5 == 0:
            x = x * 10.0 ** int(rng.integers(-150, 150))
        got = spaces._arrangement_vertex_min(x, B, q)
        want = oracles.vertex_min_one_solve_each(x, B, q, lp_norm, spaces.MAX_VERTEX_SYSTEMS)
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))
        assert (got[1] is None) == (want[1] is None)
        if want[1] is not None:
            assert np.array_equal(got[1], want[1])
        singular += t % 4 == 1
    assert singular == 30


def test_stacked_vertex_minimum_above_the_cap_takes_the_prefix():
    # q = 1 anchors at n = 14, m = 4: 1001 subsets, of which the stack solves
    # the first MAX_VERTEX_SYSTEMS, as the loop does
    rng = np.random.default_rng(62)
    x, B = rng.standard_normal(14), np.linalg.qr(rng.standard_normal((14, 4)))[0]
    assert math.comb(14, 4) > spaces.MAX_VERTEX_SYSTEMS
    got = spaces._arrangement_vertex_min(x, B, 1.0)
    want = oracles.vertex_min_one_solve_each(x, B, 1.0, lp_norm, spaces.MAX_VERTEX_SYSTEMS)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    every = oracles.vertex_min_one_solve_each(x, B, 1.0, lp_norm, math.comb(14, 4))
    assert every[0] <= got[0]


def _factored(x, basis):
    """(x, Q, tilt) as dist_to_subspace factors its arguments: x cast to the
    field of the stacked basis B, and (Q, tilt) = _orthonormal_span(B)."""
    x, B = spaces._one_field(np.asarray(x), np.column_stack(basis))
    return (x, *spaces._orthonormal_span(B))


@pytest.mark.parametrize("field, q, deficient", [
    (REAL, 2.0, False),  # q2: the cap is the distance
    (REAL, 1.0, False),  # lp
    (REAL, math.inf, False),  # lp
    (REAL, 1.5, False),  # convex
    (REAL, 3.0, False),  # convex
    (REAL, 0.5, False),  # quasi: vertex minimum
    (REAL, 0.5, True),  # quasi: vertex minimum on independent columns
    (COMPLEX, 2.0, False),
    (COMPLEX, 1.0, False),
    (COMPLEX, 1.5, False),
    (COMPLEX, 3.0, True),
    (COMPLEX, math.inf, False),
    (COMPLEX, 0.5, True),
])
def test_dist_never_exceeds_its_cap(field, q, deficient):
    # the Kolmogorov search skips a point whose cap is below a distance it
    # already has, so the cap must bound the distance, bit for bit
    rng = np.random.default_rng(23)
    for s in range(4):
        n = int(rng.integers(2, 5))
        x = rng.standard_normal(n)
        B = rng.standard_normal((n, 2 if n > 2 else 1))
        if field == COMPLEX:
            x = x + 1j * rng.standard_normal(n)
            B = B + 1j * rng.standard_normal(B.shape)
        basis = list(B.T)
        if deficient:
            basis.append(2.0 * basis[0])
        x_, Q, _ = _factored(x, basis)
        cap = spaces._distance_caps(x_[None], Q, q)[0]
        d = dist_to_subspace(x, basis, q)
        assert d <= cap
        if q == 2.0:
            assert d == cap


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
def test_dist_factors_its_basis_once(monkeypatch, field, q):
    # every branch reads one factorization of the basis, full rank or not
    calls = []
    span = spaces._orthonormal_span

    def counting(B):
        calls.append(1)
        return span(B)

    monkeypatch.setattr(spaces, "_orthonormal_span", counting)
    for deficient in (False, True):
        x, basis = _convex_instance(5, 4, 2, deficient, field)
        dist_to_subspace(x, basis, q)
    assert len(calls) == 2


def test_dist_empty_basis_is_norm():
    x = np.array([1.0, -2.0])
    assert dist_to_subspace(x, [], 0.5) == pytest.approx(lp_norm(x, 0.5))


def test_dist_complex_exact_q2():
    x = np.array([1.0 + 1j, 0.0])
    b = [np.array([1.0 + 0j, 1.0])]
    # least squares is exact for q = 2 over C as well
    c = np.vdot(b[0], x) / np.vdot(b[0], b[0])
    assert dist_to_subspace(x, b, 2.0) == pytest.approx(lp_norm(x - c * b[0], 2.0), abs=1e-9)


def _old_complex_distance(x, basis, q, budget=2000):
    """The previous complex 1 <= q < inf route: Nelder-Mead from the
    least-squares and the zero coefficients (no seeded starts), capped.
    Kept only to check the certified route against."""
    B = np.column_stack(basis).astype(complex)
    x = x.astype(complex)
    m = B.shape[1]
    c_ls = np.linalg.lstsq(B, x, rcond=None)[0]
    cap = min(lp_norm(x, q), lp_norm(x - B @ c_ls, q))

    def objective(z):
        return float((np.abs(x - B @ (z[:m] + 1j * z[m:])) ** q).sum())

    starts = [np.concatenate([c_ls.real, c_ls.imag]), np.zeros(2 * m)]
    options = {"maxfev": max(200, budget // 2), "xatol": 1e-12, "fatol": 1e-14}
    best = min(float(optimize.minimize(objective, z0, method="Nelder-Mead", options=options).fun)
               for z0 in starts)
    return min(cap, best ** (1.0 / q))


def _old_smooth_distance(x, basis, q):
    """The previous real 1 < q < inf route: L-BFGS on ||x - B c||_q^q from the
    least-squares and the zero coefficients, capped.  Kept only to check the
    certified route against."""
    B = np.column_stack(basis).astype(float)
    x = x.astype(float)
    c_ls = np.linalg.lstsq(B, x, rcond=None)[0]
    cap = min(lp_norm(x, q), lp_norm(x - B @ c_ls, q))

    def fg(c):
        r = x - B @ c
        a = np.abs(r)
        return float((a**q).sum()), -q * (B.T @ (np.sign(r) * a ** (q - 1.0)))

    options = {"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12}
    best = min(float(optimize.minimize(fg, c0, jac=True, method="L-BFGS-B", options=options).fun)
               for c0 in (c_ls, np.zeros(B.shape[1])))
    return min(cap, best ** (1.0 / q))


def _convex_instance(seed, n, m, deficient, field=COMPLEX):
    rng = np.random.default_rng(seed)
    if field == REAL:
        x, B, factor = rng.standard_normal(n), rng.standard_normal((n, m)), -2.0
    else:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        factor = 1.0 - 2.0j
    basis = list(B.T)
    if deficient:
        basis.append(factor * basis[0])
    return x, basis


def test_dist_complex_l1_closed_forms():
    b = [np.ones(3, dtype=complex)]
    # the cube roots of unity: their Fermat-Weber point is the interior c = 0
    w = np.exp(2j * np.pi / 3)
    assert dist_to_subspace(np.array([1.0, w, w * w]), b, 1.0) == pytest.approx(3.0, rel=1e-14)
    # the anchor c = 0 is optimal: |-1 + (1 - 0.1i) / sqrt(1.01)| <= 1
    x = np.array([0.0, 1.0, -1.0 + 0.1j])
    assert dist_to_subspace(x, b, 1.0) == pytest.approx(1.0 + math.sqrt(1.01), rel=1e-14)


# the convex route on both fields: the complex cases keep their q as the id
_CONVEX_CASES = ([pytest.param(COMPLEX, q, id=str(q)) for q in (1.0, 1.5, 3.0)]
                 + [pytest.param(REAL, q, id=f"real-{q}") for q in (1.5, 3.0)])


@pytest.mark.parametrize("field, q", _CONVEX_CASES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 5), m=st.integers(1, 3),
       deficient=st.booleans())
def test_dist_complex_convex_is_certified_or_falls_back(field, q, seed, n, m, deficient):
    # every value is the solver's, capped; it stays above the previous
    # route's value (Nelder-Mead for complex data, L-BFGS for real) by at
    # most its certified gap (lower <= dist <= old), up to the rounding of
    # the sums that the certificate states (a few n eps)
    x, basis = _convex_instance(seed, n, m, deficient, field)
    _, Q, tilt = _factored(x, basis)
    value, lower = spaces._convex_distance(x, Q, tilt, q)
    assert 0.0 <= lower <= value * (1.0 + 1e-15)
    d = dist_to_subspace(x, basis, q)
    cap = spaces._distance_caps(x[None], Q, q)[0]
    assert d <= cap
    assert d == min(cap, value)
    old = _old_complex_distance if field == COMPLEX else _old_smooth_distance
    rounding = 8.0 * n * np.finfo(float).eps * value
    assert d <= old(x, basis, q) + (value - lower) + rounding


@pytest.mark.parametrize("field, q", _CONVEX_CASES + [pytest.param(REAL, 1.0, id="real-1.0"),
                                                      pytest.param(REAL, math.inf, id="real-inf")])
def test_dist_convex_uncertified_value_is_returned_without_descent(monkeypatch, field, q):
    # a value whose certificate misses CERTIFIED_GAP is still the norm of a
    # residual, an upper bound: it is returned capped
    x, basis = _convex_instance(3, 4, 2, False, field)
    _, Q, tilt = _factored(x, basis)
    value = spaces._convex_distance(x, Q, tilt, q)[0]
    assert value > 1e-3 * lp_norm(x, q)  # x is not in span(basis)
    monkeypatch.setattr(spaces, "_convex_distance", lambda *args: (value, 0.0))
    cap = float(spaces._distance_caps(x[None], Q, q)[0])
    assert dist_to_subspace(x, basis, q) == min(cap, value)


@pytest.mark.parametrize("field, q", _CONVEX_CASES)
def test_dist_complex_convex_certifies_random_instances(field, q):
    # on generic instances off the span the value is certified: its
    # Hahn-Banach lower is within CERTIFIED_GAP of it
    for seed in range(30):
        n = 2 + seed % 4
        x, basis = _convex_instance(seed, n, 1 + seed % min(3, n - 1), seed % 5 == 0, field)
        _, Q, tilt = _factored(x, basis)
        value, lower = spaces._convex_distance(x, Q, tilt, q)
        assert value - lower <= spaces.CERTIFIED_GAP * value


def _linprog_distance(x, B, q):
    """min_c ||x - B c||_q for real q in {1, inf} by scipy's HiGHS linear
    program: a reference for systems too large for the rational oracle."""
    n, m = B.shape
    width = 1 if math.isinf(q) else n
    slack = np.ones((n, 1)) if math.isinf(q) else np.eye(n)
    A_ub = np.block([[B, -slack], [-B, -slack]])
    cost = np.concatenate([np.zeros(m), np.ones(width)])
    bounds = [(None, None)] * m + [(0, None)] * width
    res = optimize.linprog(cost, A_ub=A_ub, b_ub=np.concatenate([x, -x]), bounds=bounds,
                           method="highs")
    assert res.success
    return float(res.fun)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 6), m=st.integers(1, 3),
       deficient=st.booleans(), q=st.sampled_from([1.0, math.inf]))
def test_dist_real_l1_and_linf_match_rational_oracle(seed, n, m, deficient, q):
    # the oracle is exact on the floats' values; the computed residual
    # x - Q c rounds at the scale of x, not of the distance, so the value is
    # held to 8 n eps ||x||_q, and the certified lower to 8 n eps of the value
    x, basis = _convex_instance(seed, n, m, deficient, REAL)
    B = np.column_stack(basis)
    exact = (oracles.dist_l1_exact if q == 1.0 else oracles.dist_linf_exact)(x, B)
    d = dist_to_subspace(x, basis, q)
    eps = np.finfo(float).eps
    assert abs(Fraction(d) - exact) <= Fraction(8.0 * n * eps * lp_norm(x, q))
    value, lower = spaces._convex_distance(x, *spaces._orthonormal_span(B), q)
    assert Fraction(lower) <= exact + Fraction(8.0 * n * eps * value)


@pytest.mark.parametrize("field, q", [(REAL, 1.0), (REAL, 1.5), (REAL, math.inf),
                                      (COMPLEX, 1.0)])
def test_points_in_span_take_no_descent(field, q):
    # the certified lower is 0 on span(B), so no relative gap certifies the
    # rounding-level value; it is returned as it is, within 8 n eps ||x||_q
    rng = np.random.default_rng(4)
    B = rng.standard_normal((5, 2))
    if field == COMPLEX:
        B = B + 1j * rng.standard_normal((5, 2))
    x = B @ rng.standard_normal(2)
    value, lower = spaces._convex_distance(x, *spaces._orthonormal_span(B), q)
    assert lower == 0.0 < value
    d = dist_to_subspace(x, list(B.T), q)
    assert d == value <= 8.0 * 5 * np.finfo(float).eps * lp_norm(x, q)


@pytest.mark.parametrize("q, n, m", [(1.0, 12, 5), (1.0, 14, 4), (math.inf, 12, 5),
                                     (math.inf, 40, 6)])
def test_dist_real_l1_and_linf_above_the_enumeration_cap(q, n, m):
    # more vertex systems than MAX_VERTEX_SYSTEMS: q = 1 has only part of its
    # anchors and ends in Newton steps, q = inf's exchange method has no cap
    size = m if q == 1.0 else m + 1
    assert math.comb(n, size) > spaces.MAX_VERTEX_SYSTEMS
    rng = np.random.default_rng(31)
    for _ in range(4):
        x, B = rng.standard_normal(n), rng.standard_normal((n, m))
        d = dist_to_subspace(x, list(B.T), q)
        assert d == pytest.approx(_linprog_distance(x, B, q), rel=1e-9)


# the Nelder-Mead descent's values on instances of every branch it served,
# as ``float.hex`` (Python 3.11.7, numpy 2.4.6, scipy 1.17.1): (field, q, n,
# m, value).  The first three, drawn after three unused real triples, were
# descended with the seed 7, the rest with the seed 0
_DESCENT_VALUES = [
    (COMPLEX, math.inf, 3, 2, "0x1.c7228b68875f5p+0"),
    (COMPLEX, math.inf, 4, 2, "0x1.4f176f1400680p-1"),
    (COMPLEX, 0.5, 4, 2, "0x1.35fb99bd9d416p+3"),
    (COMPLEX, math.inf, 3, 1, "0x1.d6ad34dc0202cp-1"),
    (COMPLEX, math.inf, 5, 2, "0x1.a9269e1cd9bfcp-1"),
    (COMPLEX, math.inf, 6, 3, "0x1.6da192aeaff44p+0"),
    (COMPLEX, 0.3, 3, 1, "0x1.298a7a74d442fp+4"),
    (COMPLEX, 0.3, 5, 2, "0x1.40764ab02d4ddp+6"),
    (COMPLEX, 0.5, 6, 3, "0x1.93d4d1086f862p+4"),
    (COMPLEX, 0.8, 4, 2, "0x1.fb388aaa3ca86p+0"),
    (COMPLEX, 0.8, 5, 3, "0x1.0a2db050e6c10p+2"),
    (REAL, 0.5, 14, 5, "0x1.fa2c4a8a086f2p+5"),
    (REAL, 0.7, 13, 4, "0x1.3be0add058e32p+4"),
]


def test_dist_numpy_routes_stay_below_the_descent():
    # every value is the norm of a computed residual, as the descent's was,
    # and is never above it; a complex q = inf value is also certified
    rng = np.random.default_rng(2026)
    for _ in range(3):
        rng.standard_normal(5), rng.standard_normal(5), rng.standard_normal(5)
    for i, (field, q, n, m, pinned) in enumerate(_DESCENT_VALUES):
        if i == 3:
            rng = np.random.default_rng(2027)
        if i < 3:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            B = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        else:
            x, B = rng.standard_normal(n), rng.standard_normal((n, m))
            if field == COMPLEX:
                x, B = x + 1j * rng.standard_normal(n), B + 1j * rng.standard_normal((n, m))
        assert math.comb(n, m) > spaces.MAX_VERTEX_SYSTEMS or field == COMPLEX
        d = dist_to_subspace(x, list(B.T), q)
        assert d <= float.fromhex(pinned) * (1.0 + 1e-9)
        if math.isinf(q):
            _, Q, tilt = _factored(x, list(B.T))
            value, lower = spaces._convex_distance(x, Q, tilt, q)
            assert d == value and value - lower <= spaces.CERTIFIED_GAP * value


def test_dist_quasi_above_the_vertex_cap_improves_on_every_start():
    # 14 coordinates, 5 basis vectors: the reweighted steps from the best
    # vertex reach a value that neither the first MAX_VERTEX_SYSTEMS
    # vertices nor the steps from the other two starts reach
    rng = np.random.default_rng([20261021, 2, 22])
    x, B = rng.standard_normal(14), rng.standard_normal((14, 5))
    _, Q, _ = _factored(x, list(B.T))
    d = dist_to_subspace(x, list(B.T), 0.5)
    assert d < spaces._arrangement_vertex_min(x, Q, 0.5)[0]
    assert d < spaces._reweighted_distance(x, Q, 0.5, None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [np.array([1e200, 2e200, 3e200]), np.array([1e200, 2e200j, 3e200])])
def test_dist_large_entries_do_not_overflow(x):
    # ||x||_3 and the least-squares residual's norm cube entries near 1e200;
    # the distance is 1e200 times the unit-scale one, to rounding
    b = [np.array([1.0, 1.0, 0.5])]
    d = dist_to_subspace(x, b, 3.0)
    assert d == pytest.approx(1e200 * dist_to_subspace(x / 1e200, b, 3.0), rel=1e-13)


@pytest.mark.parametrize("x", [np.array([1e-200, 2e-200, 3e-200]),
                               np.array([1e-200, 2e-200j, 3e-200])])
def test_dist_tiny_entries_do_not_underflow(x):
    # the cubes of ||x||_3 and of the residual's norm underflow; the distance
    # is 1e-200 times the unit-scale one, to rounding
    b = [np.array([1.0, 1.0, 0.5])]
    d = dist_to_subspace(x, b, 3.0)
    assert d == pytest.approx(1e-200 * dist_to_subspace(x * 1e200, b, 3.0), rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lp_norm_rescales_powers_out_of_range():
    unit = np.array([1.0, 2.0, 3.0])
    # in range: the raw sum of powers and its root
    assert lp_norm(unit, 3.0) == float((unit**3).sum() ** (1.0 / 3.0))
    # powers that overflow or underflow: the norm of the vector divided by
    # its largest modulus, multiplied back
    for scale in (1e200, 1e-200):
        x = scale * np.array([1.0, -2.0, 3.0j])
        for p in (0.5, 1.0, 2.0, 3.0):
            assert lp_norm(x, p) == pytest.approx(scale * lp_norm(unit, p), rel=1e-14, abs=0.0)
    assert lp_norm([3e-170, 4e-170], 2.0) == 5e-170
    assert lp_norm(np.zeros(3), 3.0) == 0.0
    assert lp_norm(np.array([1.7e308, 1.7e308]), 1.0) == math.inf
    assert lp_norm(np.array([math.inf, 1.0]), 3.0) == math.inf
    assert math.isnan(lp_norm(np.array([math.nan, 1.0]), 3.0))


# ---------------------------------------------------------------------------
# ball volumes (gamma formula vs Monte Carlo)
# ---------------------------------------------------------------------------


def test_volume_anchors():
    assert ball_volume(SpaceSpec(2.0, 3, REAL)) == pytest.approx(4.0 * math.pi / 3.0)
    assert ball_volume(SpaceSpec(1.0, 3, REAL)) == pytest.approx(8.0 / 6.0)
    assert ball_volume(SpaceSpec(math.inf, 3, REAL)) == pytest.approx(8.0)
    assert ball_volume(SpaceSpec(2.0, 1, COMPLEX)) == pytest.approx(math.pi)
    assert ball_volume(SpaceSpec(2.0, 2, COMPLEX)) == pytest.approx(math.pi**2 / 2.0)


def test_log_volume_consistency():
    for p in (0.5, 1.0, 2.0, 7.0):
        s = SpaceSpec(p, 4, REAL)
        assert math.exp(log_ball_volume(s)) == pytest.approx(ball_volume(s))


def _mc_volume_real(p, n, samples, seed):
    """Hit-or-miss with a cube proposal (p >= 1) or an l_1-ball proposal
    (p < 1, where the cube acceptance rate is too small)."""
    rng = np.random.default_rng(seed)
    if p >= 1.0:
        pts = rng.uniform(-1.0, 1.0, size=(samples, n))
        hits = np.sum(np.abs(pts) ** p @ np.ones(n) <= 1.0)
        return 2.0**n * hits / samples
    # uniform on the l_1 ball: Dirichlet magnitudes, random signs, radial power
    mags = rng.dirichlet(np.ones(n), size=samples)
    signs = rng.choice([-1.0, 1.0], size=(samples, n))
    radii = rng.uniform(0.0, 1.0, size=samples) ** (1.0 / n)
    pts = mags * signs * radii[:, None]
    vol_l1 = 2.0**n / math.factorial(n)
    hits = np.sum(np.sum(np.abs(pts) ** p, axis=1) <= 1.0)
    return vol_l1 * hits / samples


def _mc_volume_complex(p, n, samples, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, 2 * n))
    mods2 = pts[:, :n] ** 2 + pts[:, n:] ** 2
    hits = np.sum(np.sum(mods2 ** (p / 2.0), axis=1) <= 1.0)
    return 4.0**n * hits / samples


@pytest.mark.parametrize("p,n", [(0.5, 2), (0.5, 3), (1.0, 2), (2.0, 3), (4.0, 2)])
def test_volume_monte_carlo_real(p, n):
    mc = _mc_volume_real(p, n, samples=300_000, seed=1234)
    assert mc == pytest.approx(ball_volume(SpaceSpec(p, n, REAL)), rel=0.02)


@pytest.mark.parametrize("p,n", [(1.0, 1), (2.0, 2)])
def test_volume_monte_carlo_complex(p, n):
    mc = _mc_volume_complex(p, n, samples=300_000, seed=4321)
    assert mc == pytest.approx(ball_volume(SpaceSpec(p, n, COMPLEX)), rel=0.02)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sphere_sampler_on_sphere():
    rng = np.random.default_rng(0)
    for p in (0.5, 1.0, 2.0, math.inf):
        X = sample_sphere(rng, 4, p, REAL, size=50)
        assert X.shape == (50, 4)
        for x in X:
            assert lp_norm(x, p) == pytest.approx(1.0, abs=1e-9)


def test_ball_sampler_inside():
    rng = np.random.default_rng(0)
    X = sample_ball(rng, 3, 0.5, REAL, size=200)
    assert np.all([lp_norm(x, 0.5) <= 1.0 + 1e-9 for x in X])


def test_complex_sampler_dtype_and_norm():
    rng = np.random.default_rng(0)
    X = sample_sphere(rng, 3, 1.0, COMPLEX, size=20)
    assert np.iscomplexobj(X)
    for x in X:
        assert lp_norm(x, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_samplers_deterministic():
    a = sample_sphere(np.random.default_rng(7), 3, 1.5, REAL, size=5)
    b = sample_sphere(np.random.default_rng(7), 3, 1.5, REAL, size=5)
    assert np.array_equal(a, b)
