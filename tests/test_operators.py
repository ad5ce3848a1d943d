"""Operators between l_p spaces: construction, norms, file IO."""

import math
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
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
def test_sampled_ascent_stop_contract(field, p, q):
    # on both non-exact paths: a full value below the stop comes back
    # unchanged; otherwise the path may return early, with a value between
    # the stop and the full value
    method = "sampled-ascent" if q < min(1.0, p) else "power-method"
    # a real l_p -> l_1 norm on more than 16 rows is past the sign enumeration
    m = 17 if (field, q) == (REAL, 1.0) else 4
    for seed in range(3):
        rng = np.random.default_rng(40 + seed)
        M = rng.standard_normal((m, 3))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((m, 3))
        T = operator(M, p, q, field=field)
        full = op_norm(T, budget=600, seed=seed)
        assert op_norm(T, budget=600, seed=seed, stop=math.inf) == full
        for factor in (-1.0, 0.0, 0.5, 0.9, 0.99, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0):
            stop = full.lower * factor
            r = op_norm(T, budget=600, seed=seed, stop=stop)
            assert (r.exact, r.method) == (False, method)
            if full.lower < stop:
                assert r.lower == full.lower
            else:
                assert stop <= r.lower <= full.lower


def test_sampled_ascent_stops_before_climbing_once_the_samples_reach_the_stop(monkeypatch):
    # on both non-exact paths, no climb step is taken when the sample phase
    # already reaches the stop
    steps = []
    norm_function = operators._abs_norm_function

    def counting_norm_function(p):
        norm = norm_function(p)

        def counted(a):
            steps.append(1)
            return norm(a)

        return counted

    monkeypatch.setattr(operators, "_abs_norm_function", counting_norm_function)
    for p, q, method in [(1.5, 0.7, "sampled-ascent"), (3.0, 1.5, "power-method")]:
        T = operator(np.arange(1.0, 7.0).reshape(2, 3), p, q)
        full = op_norm(T, budget=600, seed=0)
        assert full.method == method
        assert steps
        steps.clear()
        assert op_norm(T, budget=600, seed=0, stop=0.0).lower <= full.lower
        assert not steps


@pytest.mark.parametrize("T", [
    identity_operator(3, 2.0, 1.0),  # identity-formula
    operator(np.arange(1.0, 7.0).reshape(2, 3), 1.0, 2.0),  # column-max
    operator(np.arange(1.0, 7.0).reshape(2, 3), 2.0, 2.0),  # svd
    operator(np.arange(1.0, 7.0).reshape(2, 3), 3.0, math.inf),  # row-max
    operator(np.arange(1.0, 7.0).reshape(2, 3), 2.0, 1.0),  # sign-enumeration
    operator(np.arange(1.0, 7.0).reshape(2, 3), math.inf, 2.0),  # vertex-enumeration
])
def test_stop_leaves_the_exact_paths_alone(T):
    exact = op_norm(T)
    assert exact.exact
    for stop in (-1.0, 0.0, 0.5 * exact.lower, exact.lower, math.inf):
        assert op_norm(T, stop=stop) == exact


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
        assert operators._power_method(T, 600, seed, math.inf) <= exact * (1.0 + 1e-12)
        assert operators._sampled_ascent(T, 600, seed, math.inf) <= exact * (1.0 + 1e-12)


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
    # each non-exact path gives the norm of a unit vector's image: a certified lower
    for p, q, method in [(3.0, 1.5, "power-method"), (1.5, 0.7, "sampled-ascent"),
                         (math.inf, 0.5, "sampled-ascent")]:
        r = op_norm(operator(M, p, q), budget=200)
        assert (r.lower_kind, r.upper, r.upper_kind) == (CERTIFIED, None, None)
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
