"""Operators between l_p spaces: construction, norms, file IO."""

import math
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snumbers import operators
from snumbers.operators import (
    CERTIFIED,
    ESTIMATE,
    EXACT,
    SHAPE,
    Bracket,
    BracketError,
    add,
    compose,
    diagonal_operator,
    identity_operator,
    load_operator,
    numerical_rank,
    op_norm,
    operator,
    read_matrix_csv,
    realify,
    singular_values,
)
from snumbers.spaces import COMPLEX, REAL, lp_norm, sample_sphere


def test_operator_shape_and_field_checks():
    M = np.ones((2, 3))
    T = operator(M, 1.0, 2.0)
    assert T.domain.n == 3 and T.codomain.n == 2
    assert T.field == REAL
    with pytest.raises(ValueError):
        operator(np.ones((2, 2)) * 1j, 2, 2, field=REAL)
    Tc = operator(np.ones((2, 2)) * 1j, 2, 2)
    assert Tc.field == COMPLEX  # inferred


@pytest.mark.parametrize("n", [True, 2.0, np.True_, 0])
def test_identity_refuses_dimensions_that_are_not_positive_integers(n):
    # checked before np.eye, which takes a bool and raises TypeError on a float
    with pytest.raises(ValueError, match="n must be a positive integer"):
        identity_operator(n, 1.0, 2.0)


def test_matrix_is_frozen():
    T = identity_operator(2, 1, 2)
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 5.0


def test_operator_copies_the_callers_array():
    A = np.arange(4.0).reshape(2, 2)
    T = operator(A, 1, 2)
    assert T.matrix is not A
    assert A.flags.writeable  # the caller's array is not frozen
    A[0, 0] = 5.0
    assert T.matrix[0, 0] == 0.0


def test_operator_from_a_view_ignores_writes_to_its_base():
    B = np.arange(9.0).reshape(3, 3)
    T2 = operator(B[:2, :2], 2, 2)
    B[0, 0] = 5.0
    assert np.array_equal(T2.matrix, [[0.0, 1.0], [3.0, 4.0]])


def test_add_compose_validation():
    S = operator(np.eye(2), 1, 2)
    T = operator(np.eye(2), 1, 2)
    assert np.allclose(add(S, T).matrix, 2 * np.eye(2))
    with pytest.raises(ValueError):
        add(S, operator(np.eye(2), 1, math.inf))
    U = operator(np.ones((3, 2)), 2, 2)
    V = operator(np.ones((2, 3)), 1, 2)
    W = compose(U, V)  # U after V: l_1^3 -> l_2^3
    assert W.matrix.shape == (3, 3)
    assert W.domain.p == 1.0 and W.codomain.n == 3
    with pytest.raises(ValueError):
        compose(V, V)


# ---------------------------------------------------------------------------
# operator norms: each dispatch path against an independent reference
# ---------------------------------------------------------------------------


def test_identity_norm_formula():
    r = op_norm(identity_operator(2, math.inf, 1.0))
    assert r.lower == pytest.approx(2.0)
    assert r.exact and r.method == "identity-formula"
    assert op_norm(identity_operator(5, 1.0, 2.0)).lower == pytest.approx(1.0)
    assert op_norm(identity_operator(4, 2.0, 1.0)).lower == pytest.approx(2.0)


def test_column_max_norm():
    T = operator(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0, 2.0)
    r = op_norm(T)
    assert r.exact and r.method == "column-max"
    assert r.lower == pytest.approx(math.sqrt(20.0))
    # extreme points of the l_1 ball are signed unit vectors, so sampling
    # the sphere can never beat the best column
    rng = np.random.default_rng(0)
    X = sample_sphere(rng, 2, 1.0, REAL, size=500)
    sampled = max(lp_norm(T.matrix @ x, 2.0) for x in X)
    assert sampled <= r.lower + 1e-9


def test_hilbert_norm_is_sigma1():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    r = op_norm(operator(M, 2, 2))
    assert r.exact and r.method == "svd"
    # power iteration as an independent reference
    v = rng.standard_normal(4)
    for _ in range(500):
        v = M.T @ (M @ v)
        v /= np.linalg.norm(v)
    assert r.lower == pytest.approx(np.linalg.norm(M @ v), rel=1e-9)


def test_sampled_ascent_path():
    # diagonal maps on matching exponents have norm max |d_i|, attained at e_1,
    # which sits in the candidate set of both non-exact paths
    r = op_norm(diagonal_operator([2.0, 1.0], p=4.0, q=4.0), budget=800, seed=0)
    assert not r.exact and r.method == "power-method"
    assert r.lower == pytest.approx(2.0, rel=1e-9)
    # a map with one nonzero column has norm ||column||_q at e_1, for q < 1 too
    r = op_norm(operator(np.array([[2.0, 0.0], [1.0, 0.0]]), 1.5, 0.7), budget=800, seed=0)
    assert not r.exact and r.method == "sampled-ascent"
    assert r.lower == pytest.approx((2.0**0.7 + 1.0) ** (1.0 / 0.7), rel=1e-9)


def test_sampled_ascent_never_exceeds_truth():
    # against the exact column rule on an instance the sampler treats generically
    M = np.array([[1.0, -2.0], [0.5, 1.5], [2.0, 0.0]])
    exact = op_norm(operator(M, 1.0, 2.0)).lower
    est = op_norm(operator(M, 1.0, 2.0), budget=500)  # column-max path
    assert est.lower == pytest.approx(exact)
    # a diagonal map l_p -> l_q with q < p has norm ||d||_s, 1/s = 1/q - 1/p
    # (Hölder on |d_i|^q |x_i|^q with exponent p/q); both non-exact paths
    # stay below it, and the power method reaches it
    d = np.array([2.0, -1.0, 0.5])
    for p, q, method in [(1.5, 0.7, "sampled-ascent"), (3.0, 1.5, "power-method")]:
        s = 1.0 / (1.0 / q - 1.0 / p)
        truth = float((np.abs(d) ** s).sum() ** (1.0 / s))
        r = op_norm(diagonal_operator(d, p, q), budget=2000, seed=1)
        assert r.method == method
        assert r.lower <= truth * (1.0 + 1e-12)
        if method == "power-method":
            assert r.lower == pytest.approx(truth, rel=1e-9)


@pytest.mark.parametrize("field, p, q", [
    (REAL, 2.0, 1.0), (REAL, math.inf, 0.5), (REAL, 1.5, 0.7), (COMPLEX, 3.0, 1.5),
])
def test_non_exact_paths_give_two_certified_sides(field, p, q):
    # on both non-exact paths: a certified lower, the lower path's own value,
    # and a certified upper at or above every value a maximiser reaches
    method = "sampled-ascent" if q < min(1.0, p) else "power-method"
    lower_path = {"sampled-ascent": operators._sampled_ascent,
                  "power-method": operators._power_method}[method]
    # a real l_p -> l_1 norm on more than 16 rows is past the sign enumeration
    m = 17 if (field, q) == (REAL, 1.0) else 4
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        M = rng.standard_normal((m, 3))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((m, 3))
        T = operator(M, p, q, field=field)
        r = op_norm(T, budget=600, seed=seed)
        assert (r.method, r.lower_kind, r.upper_kind) == (method, CERTIFIED, CERTIFIED)
        assert r.lower == lower_path(T, 600, seed)
        assert r.upper == operators._norm_upper(T)[0]
        assert r.lower <= oracles.norm_lower(M, p, q, seed=seed) * (1.0 + 1e-12)
        assert oracles.norm_lower(M, p, q, seed=seed) <= r.upper


@pytest.mark.parametrize("T", [
    identity_operator(3, 2.0, 1.0),  # identity-formula
    operator(np.arange(1.0, 7.0).reshape(2, 3), 1.0, 2.0),  # column-max
    operator(np.arange(1.0, 7.0).reshape(2, 3), 2.0, 2.0),  # svd
    operator(np.arange(1.0, 7.0).reshape(2, 3), 3.0, math.inf),  # row-max
    operator(np.arange(1.0, 7.0).reshape(2, 3), 2.0, 1.0),  # sign-enumeration
    operator(np.arange(1.0, 7.0).reshape(2, 3), math.inf, 2.0),  # vertex-enumeration
])
def test_stop_leaves_the_exact_paths_alone(T):
    # the budget that stops the non-exact paths, and their seed, change no
    # exact bracket; _norm_upper, which the approximation search minimises,
    # returns the same exact float and path name
    exact = op_norm(T)
    assert exact.exact
    for budget in (1, 16, 600, 10**6):
        for seed in (0, 1, 7):
            assert op_norm(T, budget=budget, seed=seed) == exact
    assert operators._norm_upper(T) == (exact.upper, exact.method)


def test_column_max_covers_p_at_most_q_below_one():
    # ||.||_q^q is subadditive and ||x||_q <= ||x||_p, so no point of the
    # sphere beats the best column
    M = np.array([[1.0, -2.0], [0.5, 1.5], [2.0, 0.0]])
    T = operator(M, 0.5, 0.7)
    r = op_norm(T)
    assert r.exact and r.method == "column-max"
    assert r.lower == pytest.approx(max(lp_norm(c, 0.7) for c in M.T), rel=1e-15)
    X = sample_sphere(np.random.default_rng(0), 2, 0.5, REAL, size=500)
    assert max(lp_norm(M @ x, 0.7) for x in X) <= r.lower * (1.0 + 1e-12)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_row_max_norm_is_attained_at_the_dual_vector_of_the_best_row(field):
    rng = np.random.default_rng(6)
    M = rng.standard_normal((3, 4))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((3, 4))
    r = op_norm(operator(M, 3.0, math.inf))
    assert r.exact and r.method == "row-max"
    row = M[np.argmax([lp_norm(a, 1.5) for a in M])]
    # Hölder's equality case: x_j = conj(sgn a_j) |a_j|^(p'-1), p' = 3/2
    x = np.conj(row / np.abs(row)) * np.abs(row) ** 0.5
    x /= lp_norm(x, 3.0)
    assert lp_norm(M @ x, math.inf) == pytest.approx(r.lower, rel=1e-12)
    X = sample_sphere(rng, 4, 3.0, field, size=500)
    assert max(lp_norm(M @ x, math.inf) for x in X) <= r.lower * (1.0 + 1e-12)


def test_enumerations_stop_at_16_dimensions():
    assert op_norm(operator(np.ones((16, 2)), 2.0, 1.0)).method == "sign-enumeration"
    assert op_norm(operator(np.ones((17, 2)), 2.0, 1.0)).method == "power-method"
    assert op_norm(operator(np.ones((2, 16)), math.inf, 2.0)).method == "vertex-enumeration"
    assert op_norm(operator(np.ones((2, 17)), math.inf, 2.0)).method == "power-method"
    # the enumerations need real scalars: a complex cube has no finite vertex set
    assert op_norm(operator(np.ones((2, 2)) * 1j, 2.0, 1.0)).method == "power-method"
    assert op_norm(operator(np.ones((2, 2)) * 1j, math.inf, 2.0)).method == "power-method"


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("m, n", [(3, 2), (5, 7), (16, 3), (17, 3)])
@pytest.mark.parametrize("p, q", [(0.5, 2.0), (1.0, 1.0), (1.0, 0.5), (2.0, 1.0), (2.0, 2.0),
                                  (3.0, 0.7), (2.0, 3.0), (math.inf, 1.0), (math.inf, 0.5),
                                  (4.0, math.inf)])
def test_row_signs_counts_the_sign_vectors_a_norm_enumerates(monkeypatch, field, m, n, p, q):
    # _row_signs is the number of length-m sign vectors that _norm_uppers
    # enumerates, on the exact path and in the routed anchor alike
    cubes = []
    half_cube = operators._half_cube
    monkeypatch.setattr(operators, "_half_cube", lambda d: cubes.append(d) or half_cube(d))
    M = np.random.default_rng(m * n).standard_normal((m, n))
    real = field == REAL
    operators._norm_uppers((M if real else M * (1 + 1j))[None], p, q, real)
    assert cubes.count(m) * 2 ** (m - 1) == operators._row_signs(p, q, m, real)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 6), p=st.sampled_from([1.5, 2.0, 3.0, math.inf]),
       q=st.sampled_from([1.0, 1.2, 2.0, 4.0]), seed=st.integers(0, 2**16))
def test_enumerations_match_the_oracle_and_bound_the_non_exact_paths(m, n, p, q, seed):
    # the two enumerations against every sign vector, and the power method and
    # the ascent, called directly on the same instances, never above them
    M = np.random.default_rng(seed).standard_normal((m, n))
    cases = [(operator(M, p, 1.0), oracles.norm_to_l1(M, p), "sign-enumeration"),
             (operator(M, math.inf, q), oracles.norm_from_linf(M, q),
              "sign-enumeration" if q == 1.0 else "vertex-enumeration")]
    for T, exact, method in cases:
        r = op_norm(T)
        assert r.exact and r.method == method
        assert r.lower == pytest.approx(exact, rel=1e-12)
        assert operators._power_method(T, 600, seed) <= exact * (1.0 + 1e-12)
        assert operators._sampled_ascent(T, 600, seed) <= exact * (1.0 + 1e-12)


def test_readme_matrix_norm_from_l2_to_l1_is_exact():
    T = load_operator(Path(__file__).parent / "golden" / "matrix.csv", 2.0, 1.0)
    r = op_norm(T)
    assert r.exact and r.method == "sign-enumeration"
    assert r.lower == pytest.approx(7.088723439378913, rel=1e-12)
    assert r.lower == pytest.approx(oracles.norm_to_l1(T.matrix, 2.0), rel=1e-12)


def test_norms_of_huge_matrices_are_finite_and_warn_of_nothing():
    # l_q powers of 1e200 entries overflow; each path rescales such a norm
    rng = np.random.default_rng(4)
    G = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    R = np.random.default_rng(5).standard_normal((3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = op_norm(operator(1e200 * G, 2.0, 3.0))
        rows = op_norm(operator(1e200 * R, 3.0, math.inf))
        signs = op_norm(operator(1e200 * R, 2.0, 1.0))
    assert huge.method == "power-method"
    # ||y||_3 <= ||y||_2, so sigma_1 bounds the norm; the unit vectors are sampled
    sigma1 = np.linalg.svd(1e200 * G, compute_uv=False)[0]
    assert 1e200 * max(lp_norm(c, 3.0) for c in G.T) <= huge.lower * (1.0 + 1e-12)
    assert huge.lower <= sigma1 * (1.0 + 1e-12)
    assert huge.lower == pytest.approx(1e200 * op_norm(operator(G, 2.0, 3.0)).lower, rel=1e-9)
    for r, (p, q), method in [(rows, (3.0, math.inf), "row-max"),
                              (signs, (2.0, 1.0), "sign-enumeration")]:
        assert r.method == method
        assert r.lower == pytest.approx(1e200 * op_norm(operator(R, p, q)).lower, rel=1e-12)


@pytest.mark.parametrize("q", [1.5, 0.5])
def test_products_of_matrices_near_the_float_maximum_warn_of_nothing(q):
    # X @ M.T itself overflows for these entries, before any norm is taken;
    # the non-exact paths run on M / 2^k and scale the value back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        over = op_norm(operator([[1.7e308, 1.7e308], [1.0, 0.0]], 3.0, q))
        near = op_norm(operator([[1e308, 5e307], [1.0, 0.0]], 3.0, q))
    assert over.method == near.method == ("power-method" if q > 1 else "sampled-ascent")
    # the norm is above the float maximum: (1.7e308, 1.7e308) / 2^(1/3) is an image
    assert over.lower == math.inf
    # ||T e_1||_q <= ||T|| <= the l_q norm of the rows' l_3/2 norms (Hölder)
    rows = [(1.0 + 0.5**1.5) ** (2.0 / 3.0), 1e-308]
    assert 1e308 <= near.lower <= 1e308 * lp_norm(rows, q) * (1.0 + 1e-12)


@pytest.mark.parametrize("p, q, method", [
    (0.5, 2.0, "column-max"), (1.0, 2.0, "column-max"), (2.0, math.inf, "row-max"),
    (math.inf, math.inf, "row-max"), (2.0, 1.0, "sign-enumeration"),
    (math.inf, 1.0, "sign-enumeration"), (math.inf, 2.0, "vertex-enumeration")])
def test_exact_norms_of_tiny_matrices_scale_with_them(p, q, method):
    # squares of these entries underflow (s >= 600); a nonzero row whose sum
    # of powers is below the smallest normal float is rescaled, so the exact
    # norm of 2^-s M is 2^-s times that of M, up to its last few bits.  The
    # norms are l_1, l_2 and l_inf ones: for other r the float 1/r is not
    # exact, and the root of a sum near 2^-1000 moves by about 50 eps with it.
    eps = np.finfo(float).eps
    M = np.random.default_rng(8).standard_normal((3, 4))
    norm = op_norm(operator(M, p, q))
    assert norm.method == method
    for s in (500, 600, 800, 1000):
        tiny = op_norm(operator(2.0**-s * M, p, q))
        assert tiny.method == method
        assert abs(tiny.lower - 2.0**-s * norm.lower) <= 4.0 * eps * 2.0**-s * norm.lower


def test_power_method_lower_of_1e_minus_200_entries_scales_with_them():
    # the iterates' 40th powers underflow unless rescued, which left the
    # lower at the sample maximum
    unit = op_norm(operator(np.ones((2, 2)), 2.0, 40.0))
    tiny = op_norm(operator(1e-200 * np.ones((2, 2)), 2.0, 40.0))
    assert tiny.method == unit.method == "power-method"
    assert tiny.lower == pytest.approx(1e-200 * unit.lower, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p, q, method", [(1.0, 1.0, "column-max"), (2.0, math.inf, "row-max")])
def test_exact_norms_of_a_matrix_with_an_inf_entry_are_inf(p, q, method):
    r = op_norm(operator([[math.inf, 1.0], [0.0, 1.0]], p, q))
    assert r.method == method
    assert r.lower == r.upper == math.inf


def test_exact_norms_of_1e_minus_200_entries_are_not_zero():
    rows = op_norm(operator(np.full((2, 2), 1e-200), 2.0, math.inf))
    assert rows.method == "row-max"
    assert rows.lower == pytest.approx(2.0**0.5 * 1e-200, rel=1e-15, abs=0.0)
    signs = op_norm(operator(np.full((3, 3), 1e-170), 2.0, 1.0))
    assert signs.method == "sign-enumeration"
    assert signs.lower == pytest.approx(3.0**1.5 * 1e-170, rel=1e-15, abs=0.0)


# (p, q) pairs of every path of _norm_upper but identity-formula, which the
# identity slices take; the enumerations are real-only
STACK_PATHS = {
    "column-max": [(0.5, 2.0), (1.0, 1.0), (0.7, 0.9)],
    "svd": [(2.0, 2.0)],
    "row-max": [(2.0, math.inf), (1.5, math.inf)],
    "sign-enumeration": [(2.0, 1.0), (math.inf, 1.0)],
    "vertex-enumeration": [(math.inf, 1.5), (math.inf, 3.0)],
    None: [(2.0, 3.0), (3.0, 1.5), (1.5, 0.7), (2.0, 0.5), (0.5, 0.3)],
}


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(list(STACK_PATHS)), field=st.sampled_from([REAL, COMPLEX]),
       m=st.integers(1, 9), n=st.integers(1, 9),
       kinds=st.lists(st.sampled_from(["gauss", "identity", "zero", "huge", "tiny"]),
                      min_size=1, max_size=5),
       pick=st.integers(0, 4), seed=st.integers(0, 2**16))
@example(path="column-max", field=COMPLEX, m=9, n=9, kinds=["gauss", "identity", "tiny"], pick=0,
         seed=1)
@example(path="svd", field=REAL, m=8, n=8, kinds=["identity", "identity"], pick=0, seed=2)
@example(path="row-max", field=REAL, m=3, n=9, kinds=["gauss", "huge", "zero"], pick=1, seed=3)
@example(path="sign-enumeration", field=REAL, m=9, n=8, kinds=["tiny", "gauss"], pick=0, seed=4)
@example(path="vertex-enumeration", field=REAL, m=8, n=9, kinds=["gauss", "tiny"], pick=1, seed=5)
@example(path=None, field=COMPLEX, m=9, n=9, kinds=["huge", "identity", "gauss"], pick=0, seed=6)
@example(path=None, field=REAL, m=8, n=9, kinds=["gauss", "zero", "tiny"], pick=3, seed=7)
def test_a_stack_of_norms_is_its_slices_one_at_a_time(path, field, m, n, kinds, pick, seed):
    # every value and path of _norm_uppers on a stack has the bits of the
    # slice's own _norm_upper: rows of 8 or more take numpy's pairwise sums,
    # 1e+-200 entries the rescaled norms, and an identity slice its formula
    if path in ("sign-enumeration", "vertex-enumeration"):
        field = REAL
    pairs = STACK_PATHS[path]
    p, q = pairs[pick % len(pairs)]
    rng = np.random.default_rng(seed)
    stack = []
    for kind in kinds:
        M = rng.standard_normal((m, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((m, n))
        if kind == "identity" and m == n:
            M = np.eye(n)
        stack.append(M * {"huge": 1e200, "tiny": 1e-200, "zero": 0.0}.get(kind, 1.0))
    Ms = np.array(stack, dtype=complex if field == COMPLEX else float)
    values, methods = operators._norm_uppers(Ms, p, q, field == REAL)
    singles = [operators._norm_upper(operator(M, p, q, field=field)) for M in Ms]
    assert [v.hex() for v in values.tolist()] == [v.hex() for v, _ in singles]
    assert methods == [method for _, method in singles]
    for M, method in zip(Ms, methods):
        if m == n and np.array_equal(M, np.eye(n)):
            assert method == "identity-formula"
        else:
            assert method == path


# ---------------------------------------------------------------------------
# the bracket
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lower, upper, lower_kind, upper_kind", [
    (math.nan, 1.0, CERTIFIED, CERTIFIED),
    (1.0, math.nan, CERTIFIED, ESTIMATE),
    (math.nan, None, SHAPE, None),
    (math.nan, math.nan, EXACT, EXACT),
])
def test_bracket_refuses_nan(lower, upper, lower_kind, upper_kind):
    with pytest.raises(BracketError, match="nan"):
        Bracket(lower, upper, lower_kind, upper_kind, "m")


def test_bracket_refuses_out_of_order_sides_unless_one_is_an_estimate():
    for kinds in ((CERTIFIED, CERTIFIED), (SHAPE, SHAPE), (CERTIFIED, SHAPE)):
        with pytest.raises(BracketError, match="inconsistent Bracket"):
            Bracket(2.0, 1.0, *kinds, "m")
        Bracket(1.0 + 1e-13, 1.0, *kinds, "m")  # within the 1e-12 slack
    # an estimate may undershoot, on either side
    assert Bracket(2.0, 1.0, CERTIFIED, ESTIMATE, "m").upper == 1.0
    assert Bracket(2.0, 1.0, ESTIMATE, CERTIFIED, "m").lower == 2.0
    # both are ValueErrors, as the envelopes' refusals always were
    assert issubclass(BracketError, ValueError)


@pytest.mark.parametrize("lower, upper, lower_kind, upper_kind", [
    (1.0, 1.0, EXACT, CERTIFIED),  # one exact side
    (1.0, 1.0, SHAPE, EXACT),
    (None, 1.0, None, EXACT),
    (1.0, 2.0, EXACT, EXACT),  # unequal exact sides
    (None, 1.0, CERTIFIED, CERTIFIED),  # a kind without a value
    (1.0, None, CERTIFIED, SHAPE),
    (1.0, 2.0, None, CERTIFIED),  # a value without a kind
])
def test_bracket_refuses_inconsistent_kinds(lower, upper, lower_kind, upper_kind):
    with pytest.raises(BracketError):
        Bracket(lower, upper, lower_kind, upper_kind, "m")


def test_bracket_is_exact_iff_both_kinds_are_exact():
    built = 0
    kinds = (None, EXACT, CERTIFIED, ESTIMATE, SHAPE)
    for lower_kind in kinds:
        for upper_kind in kinds:
            lower = None if lower_kind is None else 1.0
            upper = None if upper_kind is None else 1.0
            try:
                b = Bracket(lower, upper, lower_kind, upper_kind, "m")
            except BracketError:
                assert EXACT in (lower_kind, upper_kind) and lower_kind != upper_kind
                continue
            built += 1
            assert b.exact == (lower_kind == upper_kind == EXACT)
    assert built == 1 + 4 * 4  # every pair without exact, and exact with exact
    assert Bracket.point(3.0, EXACT, "m") == Bracket(3.0, 3.0, EXACT, EXACT, "m")


# meet: brackets whose certified sides all hold for one value, 1.0, so that
# no two of them cross; estimate and shape sides fall anywhere
_SIDE_KINDS = st.sampled_from([None, CERTIFIED, ESTIMATE, SHAPE])
_GAPS = st.floats(0.0, 4.0, allow_nan=False)


@st.composite
def _brackets(draw, kinds=_SIDE_KINDS):
    lower_kind, upper_kind = draw(kinds), draw(kinds)
    lower = None if lower_kind is None else 1.0 - draw(_GAPS)
    upper = None if upper_kind is None else 1.0 + draw(_GAPS)
    if lower_kind == ESTIMATE:
        lower += draw(_GAPS)
    if upper_kind == ESTIMATE:
        upper -= draw(_GAPS)
    return Bracket(lower, upper, lower_kind, upper_kind, draw(st.sampled_from("abc")))


def _sides(b):
    return b.lower, b.upper, b.lower_kind, b.upper_kind


@settings(max_examples=200, deadline=None)
@given(bs=st.lists(_brackets(), max_size=5), extra=_brackets(st.just(CERTIFIED)))
def test_meet_never_widens_when_a_certified_bracket_joins(bs, extra):
    before, after = Bracket.meet(*bs), Bracket.meet(*bs, extra)
    assert after.lower >= extra.lower and after.upper <= extra.upper
    assert before.lower is None or after.lower >= before.lower
    assert before.upper is None or after.upper <= before.upper


@settings(max_examples=200, deadline=None)
@given(bs=st.lists(_brackets(), max_size=5), data=st.data())
def test_meet_values_and_kinds_do_not_depend_on_the_order(bs, data):
    shuffled = data.draw(st.permutations(bs))
    assert _sides(Bracket.meet(*shuffled)) == _sides(Bracket.meet(*bs))


@settings(max_examples=200, deadline=None)
@given(bs=st.lists(_brackets(), max_size=5),
       loose=_brackets(st.sampled_from([None, ESTIMATE, SHAPE])), at=st.integers(0, 5))
def test_meet_never_lets_an_estimate_or_shape_side_displace_a_certified_one(bs, loose, at):
    met = Bracket.meet(*bs)
    assert Bracket.meet(*bs[:at], loose, *bs[at:]) == met
    assert {met.lower_kind, met.upper_kind} <= {None, CERTIFIED}


@settings(max_examples=200, deadline=None)
@given(bs=st.lists(_brackets(), max_size=5), at=st.integers(0, 5))
def test_meet_returns_an_exact_input_whole(bs, at):
    exact = Bracket.point(1.0, EXACT, "exact-input")
    assert Bracket.meet(*bs[:at], exact, *bs[at:]) is exact


def test_meet_refuses_crossed_certified_sides():
    low = Bracket(2.0, None, CERTIFIED, None, "low")
    high = Bracket(None, 1.0, None, CERTIFIED, "high")
    for bs in [(low, high), (high, low), (Bracket.point(1.5, EXACT, "x"), low),
               (high, Bracket.point(1.5, EXACT, "x"))]:
        with pytest.raises(BracketError):
            Bracket.meet(*bs)
    # within the constructor's 1e-12 slack, and against an estimate, they meet
    assert Bracket.meet(Bracket(1.0 + 1e-13, None, CERTIFIED, None, "low"), high).upper == 1.0
    assert Bracket.meet(low, Bracket(None, 1.0, None, ESTIMATE, "e")).upper is None


def test_meet_names_the_winners_and_the_earlier_wins_a_tie():
    a = Bracket(1.0, 3.0, CERTIFIED, CERTIFIED, "a")
    b = Bracket(1.0, 2.0, CERTIFIED, CERTIFIED, "b")
    assert Bracket.meet(a, b) == Bracket(1.0, 2.0, CERTIFIED, CERTIFIED, "a|b")
    assert Bracket.meet(b, a) == Bracket(1.0, 2.0, CERTIFIED, CERTIFIED, "b")
    assert Bracket.meet(Bracket(None, 2.0, None, CERTIFIED, "u")) == Bracket(
        None, 2.0, None, CERTIFIED, "u")
    assert Bracket.meet() == Bracket(None, None, None, None, "")


def test_op_norm_brackets_name_their_kinds():
    M = np.arange(1.0, 7.0).reshape(2, 3)
    exact_paths = [
        (identity_operator(3, 2.0, 1.0), "identity-formula"),
        (operator(M, 1.0, 2.0), "column-max"),
        (operator(M, 0.5, 0.7), "column-max"),
        (operator(M, 2.0, 2.0), "svd"),
        (operator(M, 3.0, math.inf), "row-max"),
        (operator(M, 2.0, 1.0), "sign-enumeration"),
        (operator(M, math.inf, 2.0), "vertex-enumeration"),
    ]
    for T, method in exact_paths:
        r = op_norm(T)
        assert (r.lower_kind, r.upper_kind, r.method) == (EXACT, EXACT, method)
        assert r.lower == r.upper
    # each non-exact path gives the norm of a unit vector's image, a certified
    # lower, and a certified upper from exact norms
    for p, q, method in [(3.0, 1.5, "power-method"), (1.5, 0.7, "sampled-ascent"),
                         (math.inf, 0.5, "sampled-ascent")]:
        r = op_norm(operator(M, p, q), budget=200)
        assert (r.lower_kind, r.upper_kind) == (CERTIFIED, CERTIFIED)
        assert r.lower <= r.upper < math.inf
        assert r.method == method


def test_realify_doubles_singular_values():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = operator(M, 2, 2)
    R = realify(T)
    assert R.field == REAL and R.matrix.shape == (6, 6)
    s = singular_values(T)
    sr = singular_values(R)
    assert np.allclose(sr, np.sort(np.concatenate([s, s]))[::-1])


def test_numerical_rank():
    T = diagonal_operator([1.0, 1e-14, 0.0])
    assert numerical_rank(T) == 1
    assert numerical_rank(identity_operator(3, 2, 2)) == 3


# ---------------------------------------------------------------------------
# CSV matrix files
# ---------------------------------------------------------------------------


def test_read_matrix_roundtrip(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("# a comment\n1, 2.5, -3\n\n4, 5, 6\n")
    M = read_matrix_csv(f)
    assert M.shape == (2, 3)
    assert not np.iscomplexobj(M)
    assert M[0, 1] == 2.5


def test_read_matrix_complex_tokens(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("1+2i, 3i\n-1, 0\n")
    M = read_matrix_csv(f)
    assert np.iscomplexobj(M)
    assert M[0, 0] == 1 + 2j and M[0, 1] == 3j


def test_read_matrix_ragged_names_line(tmp_path):
    f = tmp_path / "r.csv"
    f.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_matrix_csv(f)


def test_read_matrix_bad_token_names_position(tmp_path):
    f = tmp_path / "b.csv"
    f.write_text("1, 2\n3, zebra\n")
    with pytest.raises(ValueError, match="line 2.*column 2"):
        read_matrix_csv(f)


def test_read_matrix_empty_file(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no matrix"):
        read_matrix_csv(f)


def test_load_operator_wires_spaces(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("3,0,0\n0,2,0\n0,0,1\n")
    T = load_operator(f, 2.0, 2.0)
    assert T.domain.n == 3
    assert op_norm(T).lower == pytest.approx(3.0)
