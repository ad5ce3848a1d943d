"""Approximation and Kolmogorov numbers: formulas, searches, axioms."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snumbers import operators, spaces, widths
from snumbers.entropy import regime_envelope
from snumbers.operators import SHAPE, Bracket, diagonal_operator, op_norm, operator, realify
from snumbers.spaces import COMPLEX, REAL, dist_to_subspace
from snumbers.widths import (
    NO_CLOSED_FORM,
    SNumberSeq,
    approx_id_envelope,
    approx_upper_search,
    bound_respecting_axioms,
    conjugate_exponent,
    hilbert_s_numbers,
    kolmogorov_id_envelope,
    kolmogorov_upper_search,
    real_complex_bracket,
    s_axiom_suite,
    width_brackets,
)

INF = math.inf


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(0.5) == INF
    assert math.isinf(conjugate_exponent(1.0))
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0)


def test_seq_validation():
    with pytest.raises(ValueError):
        SNumberSeq((1.0, 2.0))
    with pytest.raises(ValueError):
        SNumberSeq((1.0, -0.5))
    for bad in ((math.nan, 1.0), (1.0, math.nan), (math.nan,)):
        with pytest.raises(ValueError, match="NaN"):
            SNumberSeq(bad)
    s = SNumberSeq((3.0, 1.0))
    assert s.value(1) == 3.0
    assert s.value(2) == 1.0
    assert s.value(7) == 0.0  # past the recorded tail
    with pytest.raises(ValueError):
        s.value(0)


def test_envelope_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0, SHAPE, SHAPE, "bad")
    env = Bracket(None, None, None, None, NO_CLOSED_FORM)
    assert env.lower is None and env.upper is None


def test_hilbert_s_numbers():
    T = diagonal_operator([3.0, 2.0, 1.0])
    s = hilbert_s_numbers(T)
    assert np.array_equal(s.values, [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        hilbert_s_numbers(diagonal_operator([1.0], p=1.0, q=2.0))


# ---------------------------------------------------------------------------
# identity envelopes
# ---------------------------------------------------------------------------


def test_approx_exact_formula_anchors():
    env = approx_id_envelope(2.0, 1.0, 4, 1)
    assert env.exact
    assert env.lower == env.upper == pytest.approx(2.0)
    env = approx_id_envelope(2.0, 1.0, 4, 2)
    assert env.lower == pytest.approx(math.sqrt(3.0))
    assert approx_id_envelope(3.0, 3.0, 9, 5).lower == 1.0
    env = approx_id_envelope(1.0, 2.0, 4, 6)
    assert (env.lower, env.upper, env.method) == (0.0, 0.0, "rank-zero")


def test_approx_exact_matches_norm_of_identity():
    # k = 1 of the formula is the operator norm n^(1/q - 1/p)
    for (p, q, n) in ((2.0, 1.0, 5), (INF, 0.5, 3), (4.0, 2.0, 7)):
        env = approx_id_envelope(p, q, n, 1)
        In = operator(np.eye(n), p, q)
        assert env.lower == pytest.approx(op_norm(In).lower)


def test_approx_dispatch_labels():
    assert approx_id_envelope(1.0, 2.0, 16, 2).method == "one-small-pq"
    assert approx_id_envelope(3.0, 6.0, 16, 2).method == "one-large-pq"
    assert approx_id_envelope(1.5, 2.5, 16, 4).method == "min-root-k-q"
    assert approx_id_envelope(1.5, 4.0, 16, 4).method == "min-root-k-dual"
    assert approx_id_envelope(1.5, 2.0, 8, 4).method == "psi-direct"
    assert approx_id_envelope(1.5, 4.0, 8, 4).method == "psi-dual"
    # the q = p' diagonal only admits an upper estimate at large index
    env = approx_id_envelope(1.5, 3.0, 8, 4)
    assert env.method == "upper-root-k"
    assert env.lower is None
    assert env.upper_kind == SHAPE
    assert env.upper == pytest.approx(8.0 ** (1.0 / 3.0) / 2.0)
    # and (1, inf) at large index has no usable closed form at all
    env = approx_id_envelope(1.0, INF, 8, 4)
    assert env.lower is None and env.upper is None and env.method == NO_CLOSED_FORM


def test_kolmogorov_case_one_matches_approx():
    for (p, q, n, k) in ((2.0, 1.0, 4, 2), (INF, 2.0, 6, 3), (3.0, 3.0, 5, 1)):
        d = kolmogorov_id_envelope(p, q, n, k)
        a = approx_id_envelope(p, q, n, k)
        assert d.method == "phi-case-1"
        assert d.exact
        assert d.lower == pytest.approx(a.lower)


def test_kolmogorov_quasi_lower():
    env = kolmogorov_id_envelope(1.0, 0.5, 10, 3)
    assert env.method == "quasi-lower"
    assert env.lower == pytest.approx(5.0)
    assert env.upper is None
    assert (env.lower_kind, env.upper_kind) == (SHAPE, None)
    env = kolmogorov_id_envelope(1.0, 0.5, 10, 7)
    assert env.lower is None and env.upper is None and env.method == NO_CLOSED_FORM


def test_kolmogorov_log_bracket_at_q_inf():
    env = kolmogorov_id_envelope(1.0, INF, 8, 2)
    assert env.method.endswith("-log-bracket")
    assert not env.exact
    assert env.upper == pytest.approx(env.lower * math.log(math.e * 8 / 2) ** 1.5)


@pytest.mark.parametrize("envelope, args", [
    (kolmogorov_id_envelope, (2.0, math.nan, 4, 2)),
    (kolmogorov_id_envelope, (0.0, 1.0, 4, 2)),
    (approx_id_envelope, (-1.0, 1.0, 4, 2)),
    (approx_id_envelope, (0.0, 1.0, 4, 1)),
    (approx_id_envelope, (2.0, math.nan, 4, 2)),
    (regime_envelope, (math.nan, 1.0, 4, 2)),
    (regime_envelope, (1.0, -INF, 4, 2)),
])
def test_identity_envelopes_reject_exponents_that_are_not_positive(envelope, args):
    # a NaN, zero or negative exponent is no l_p space: each envelope refuses
    # it by name instead of returning a bracket or dividing by zero
    name = "p" if not args[0] > 0 else "q"
    with pytest.raises(ValueError, match=f"^{name} must be a positive number"):
        envelope(*args)


def test_kolmogorov_never_above_approx_on_nested_grid():
    # width shapes nest (d <= a) where both sides are comparable: everywhere
    # for q <= p (both exact), and for p < q on small indices 4k <= n (the
    # equivalence shapes drift apart past that, e.g. p=2, q=4, n=16, k=5)
    cells = []
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        for q in (0.5, 1.0, 2.0, 4.0, INF):
            n = 16
            ks = range(1, n + 1) if q <= p else range(1, n // 4 + 1)
            cells += [(p, q, n, k) for k in ks]
    for (p, q, n, k) in cells:
        d = kolmogorov_id_envelope(p, q, n, k)
        a = approx_id_envelope(p, q, n, k)
        if d.lower is None or a.upper is None:
            continue
        assert d.lower <= a.upper * (1.0 + 1e-9), (p, q, n, k)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def test_approx_search_matches_singular_values():
    T = diagonal_operator([3.0, 2.0, 1.0])
    assert approx_upper_search(T, 1, budget=500, seed=0) == pytest.approx(3.0)
    assert approx_upper_search(T, 2, budget=500, seed=0) == pytest.approx(2.0)
    assert approx_upper_search(T, 3, budget=500, seed=0) == pytest.approx(1.0)


def test_searches_agree_at_k1():
    # a_1 = d_1 = ||T||: on a power-method norm both searches take op_norm's
    # certified upper, which no seed changes, so they return the same float
    rng = np.random.default_rng(3)
    T = operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 2.0, 3.0)
    for seed in (0, 1, 2):
        norm = op_norm(T, seed=seed)
        assert norm.method == "power-method"
        assert approx_upper_search(T, 1, seed=seed) == norm.upper
        assert kolmogorov_upper_search(T, 1, seed=seed) == norm.upper


def test_approx_search_non_hilbert_upper_bound():
    # rank-one residuals of diag(2, 1): l_1 -> l_inf have max-entry at least
    # 2/3 (entries a, b, c, d of uv^T satisfy ad = bc, so a residual below t
    # forces (2 - t)(1 - t) < t^2, i.e. t > 2/3), and truncation gives 1, so
    # the search must land in [2/3, 1]
    T = diagonal_operator([2.0, 1.0], p=1.0, q=INF)
    v = approx_upper_search(T, 2, budget=800, seed=1)
    assert 2.0 / 3.0 - 1e-9 <= v <= 1.0 + 1e-9


# the (p, q) pairs of the search test: both fields reach both non-exact paths
# (power method and sampled ascent), while real (2, 1) and (inf, 2), and
# (2, inf) in either field, take exact paths
SAMPLED_PAIRS = [(2.0, 1.0), (2.0, 3.0), (3.0, 1.5), (INF, 2.0), (2.0, INF), (1.5, 0.7),
                 (0.5, 0.3), (INF, 0.5)]


def _search_matrix(rng, m, n, field, kind):
    M = rng.standard_normal((m, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((m, n))
    if kind == "zero":
        return 0.0 * M
    if kind == "rank-one":
        return np.outer(M[:, 0], M[0])
    # 1e200: perturbed factors overflow in A @ B; 1e-16: the restart and
    # descent candidates land within 1e-15 of the best value
    return M * {"gauss": 1.0, "huge": 1e200, "tiny": 1e-16}[kind]


@settings(max_examples=12, deadline=None)
@given(field=st.sampled_from([REAL, COMPLEX]),
       kind=st.sampled_from(["gauss", "rank-one", "zero", "huge", "tiny"]),
       pq=st.sampled_from(SAMPLED_PAIRS), m=st.integers(2, 5), n=st.integers(2, 5),
       k=st.integers(2, 4), budget=st.integers(5, 80), mseed=st.integers(0, 2**16))
@example(field=REAL, kind="zero", pq=(2.0, 1.0), m=3, n=4, k=2, budget=40, mseed=1)
@example(field=COMPLEX, kind="rank-one", pq=(INF, 0.5), m=4, n=3, k=2, budget=30, mseed=2)
@example(field=REAL, kind="huge", pq=(1.5, 0.7), m=3, n=3, k=2, budget=30, mseed=3)
@example(field=COMPLEX, kind="huge", pq=(2.0, 3.0), m=2, n=3, k=2, budget=20, mseed=4)
@example(field=REAL, kind="tiny", pq=(2.0, 1.0), m=3, n=3, k=2, budget=10, mseed=1)
@example(field=COMPLEX, kind="tiny", pq=(2.0, 1.0), m=3, n=3, k=2, budget=10, mseed=1)
def test_approx_search_value_is_above_the_norm_at_its_best_factors(field, kind, pq, m, n, k,
                                                                   budget, mseed):
    # The value is a certified upper of ||T - A B|| for the best factors, so a
    # maximiser of that residual's norm never exceeds it; on an exact residual
    # path it is the exact norm of the float residual, up to rounding.
    p, q = pq
    rng = np.random.default_rng(mseed)
    T = operator(_search_matrix(rng, m, n, field, kind), p, q, field=field)
    # the search warns of nothing, 1e200 matrices included, so pytest's
    # error::RuntimeWarning holds
    v, factors = widths._approx_search(T, k, budget, mseed)
    assert v == approx_upper_search(T, k, budget=budget, seed=mseed)
    if k - 1 >= min(m, n):
        assert v.hex() == "0x0.0p+0" and factors is None
        return
    R = T.matrix - factors[0] @ factors[1]
    reached = oracles.norm_lower(R, p, q, seed=mseed)
    exact = operators._norm_upper(operator(R, p, q, field=field))[1] is not None
    assert reached <= v * (1.0 + 1e-12 if exact else 1.0)


@pytest.mark.parametrize("field, p, q", [(REAL, 2.0, 1.0), (REAL, 1.0, 2.0), (REAL, 2.0, 2.0),
                                         (COMPLEX, INF, 0.5)])
def test_approx_search_is_exactly_zero_past_full_rank(monkeypatch, field, p, q):
    # k - 1 >= min(m, n): some operator of rank < k is T itself, so a_k = 0
    # exactly, with no residual norm taken
    monkeypatch.setattr(widths, "_residual_norms", None)
    rng = np.random.default_rng(5)
    for m, n in [(3, 3), (2, 4), (4, 2)]:
        M = rng.standard_normal((m, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((m, n))
        T = operator(M, p, q, field=field)
        for k in range(min(m, n) + 1, min(m, n) + 3):
            assert approx_upper_search(T, k, budget=200, seed=1) == 0.0


@pytest.mark.parametrize("field, p, q", [(REAL, 1.0, 2.0), (REAL, 2.0, 2.0), (REAL, 1.0, 0.5),
                                         (COMPLEX, 2.0, 1.0)])
def test_kolmogorov_search_is_exactly_zero_past_full_rank(monkeypatch, field, p, q):
    # k - 1 >= min(m, n): a subspace of dimension k - 1 contains the range, so
    # d_k = 0 exactly, with no candidate evaluated
    monkeypatch.setattr(widths, "_kolmogorov_candidate_value", None)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for m, n in [(3, 3), (2, 4), (4, 2)]:
            M = rng.standard_normal((m, n))
            if field == COMPLEX:
                M = M + 1j * rng.standard_normal((m, n))
            T = operator(M, p, q, field=field)
            for k in range(min(m, n) + 1, min(m, n) + 3):
                v = kolmogorov_upper_search(T, k, budget=200, seed=seed)
                assert v.hex() == "0x0.0p+0"
                assert kolmogorov_upper_search(T, k, budget=200, seed=seed,
                                               return_details=True) == (0.0, [])


def test_residual_norm_of_an_overflowed_candidate_is_inf_without_a_norm(monkeypatch):
    monkeypatch.setattr(widths, "_norm_uppers", None)
    T = operator(np.ones((2, 2)), 1.5, 0.7)
    for bad in (math.inf, -math.inf, math.nan):
        S = np.zeros((2, 2))
        S[1, 0] = bad
        assert widths._residual_norms(T, S[None]) == [math.inf]


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from([REAL, COMPLEX]),
       pq=st.sampled_from([(1.0, 2.0), (2.0, 2.0), (2.0, INF), (2.0, 1.0), (INF, 2.0), (2.0, 3.0),
                           (1.5, 0.7)]),
       m=st.integers(1, 9), n=st.integers(1, 9),
       bad=st.lists(st.sampled_from([None, math.inf, -math.inf, math.nan]), min_size=1,
                    max_size=6),
       seed=st.integers(0, 2**16))
def test_residual_norms_of_a_stack_are_its_candidates_one_at_a_time(field, pq, m, n, bad, seed):
    # every finite residual gets the bits of its own _norm_upper, and a
    # candidate with a non-finite entry gets inf with no norm taken
    p, q = pq
    rng = np.random.default_rng(seed)
    T = operator(_search_matrix(rng, m, n, field, "gauss"), p, q, field=field)
    S = np.array([_search_matrix(rng, m, n, field, "gauss") for _ in bad])
    for s, entry in zip(S, bad):
        if entry is not None:
            s[rng.integers(m), rng.integers(n)] = entry
    seen = []

    def recording(Ms, *args):
        seen.append(Ms.copy())
        return operators._norm_uppers(Ms, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(widths, "_norm_uppers", recording)
        got = widths._residual_norms(T, S)
    assert all(np.isfinite(Ms).all() for Ms in seen)
    assert sum(len(Ms) for Ms in seen) == bad.count(None)
    for v, s, entry in zip(got, S, bad):
        if entry is not None:
            assert v == math.inf
        else:
            value, _ = operators._norm_upper(operator(T.matrix - s, p, q, field=field))
            assert v.hex() == value.hex()


def test_product_rounding_keeps_the_margin_of_a_tiny_residual():
    # the margin is an l_2 norm of entries near 1e-216, whose squares
    # underflow unless rescued; a zero margin would leave the value unproved
    T = operator(1e-200 * np.random.default_rng(3).standard_normal((3, 3)), 0.5, 2.0)
    U, s, Vh = np.linalg.svd(T.matrix)
    A, B = U[:, :1] * s[:1], Vh[:1]
    value = operators._norm_upper(operator(T.matrix - A @ B, 0.5, 2.0))[0]
    assert 0.0 < value < widths._product_rounding(T, A, B, value)


def test_approx_search_stacks_hold_at_most_2_to_14_residual_entries(monkeypatch):
    # on a tall matrix the descent's stacks stop at 2^14 residual entries
    # (32 candidates of 64 x 8) instead of the remaining budget's 400; the
    # sequential rule decides the same, so the values are those of the
    # uncapped stacks
    entries = []
    residual_norms = widths._residual_norms

    def recording(T, products):
        entries.append(products.size)
        return residual_norms(T, products)

    monkeypatch.setattr(widths, "_residual_norms", recording)
    T = operator(np.random.default_rng(0).standard_normal((64, 8)), 1.0, 1.0)
    assert [approx_upper_search(T, k, budget=400, seed=0).hex() for k in (2, 3, 4)] == [
        "0x1.8707ee711584ep+5", "0x1.5b29e914b71abp+5", "0x1.362350690fef3p+5"]
    assert max(entries) == 2 ** 14


# approx_upper_search's values, with the rounding margin on every path: the
# four approximation rows of the width-search benchmark at two matrix
# seeds, then the README's complex l_1 -> l_inf identity (n = 8, k = 2..6)
# and the complex l_0.5 -> l_1 identity (n = 4, k = 2..4) at budget 400 and
# seed 42, as snum idnumbers runs them
PINNED_SEARCHES = [
    "0x1.4a0982a25fffep+1", "0x1.8d09277f36d57p+1", "0x1.f05d52a9b9f98p+0",
    "0x1.0c5acc5950572p+0", "0x1.41c3af6cca2a3p+1", "0x1.f2c7f7897b952p+0",
    "0x1.2516e5f846f08p+0", "0x1.2bf246534edcbp+0", "0x1.000000000000dp+0",
    "0x1.0000000000011p+0", "0x1.0000000000015p+0", "0x1.0000000000019p+0",
    "0x1.d2efde65ac969p-1", "0x1.0000000000031p+0", "0x1.0000000000041p+0",
    "0x1.0000000000051p+0"]


def test_approx_search_values_are_pinned():
    # exact under the versions that wrote them (Python 3.11.7, numpy 2.4.6)
    import platform

    values = []
    for n, field, p, q, k, budget in [(5, REAL, 2.0, 1.0, 3, 60), (3, COMPLEX, 2.0, 3.0, 2, 60),
                                      (4, REAL, 2.0, 2.0, 2, 200), (5, REAL, 1.0, 2.0, 3, 200)]:
        for seed in (3, 11):
            rng = np.random.default_rng(seed)
            M = rng.standard_normal((n, n))
            if field == COMPLEX:
                M = M + 1j * rng.standard_normal((n, n))
            T = operator(M, p, q, field=field)
            values.append(approx_upper_search(T, k, budget=budget, seed=seed))
    for n, p, q, ks in [(8, 1.0, INF, range(2, 7)), (4, 0.5, 1.0, range(2, 5))]:
        T = operators.identity_operator(n, p, q, field=COMPLEX)
        values += [approx_upper_search(T, k, budget=400, seed=42) for k in ks]
    if (platform.python_version(), np.__version__) == ("3.11.7", "2.4.6"):
        assert [v.hex() for v in values] == PINNED_SEARCHES
    else:
        assert values == pytest.approx([float.fromhex(h) for h in PINNED_SEARCHES], rel=1e-12)


def test_kolmogorov_search_hilbert():
    T = diagonal_operator([3.0, 2.0, 1.0])
    # d_1 admits only the zero subspace, so it is the operator norm
    assert kolmogorov_upper_search(T, 1, budget=100, seed=0) == pytest.approx(3.0)
    v, cands = kolmogorov_upper_search(T, 2, budget=4000, seed=0, return_details=True)
    assert v == pytest.approx(2.0, rel=0.05)
    # in the Hilbert case the direct distance and the quotient-map norm agree
    assert all(c.agreement_gap <= 1e-6 for c in cands)


# kolmogorov_upper_search's values where the shared sample set changes
# nothing: the bench's real (1, 1) k = 2 and (1, 1.5) k = 3 rows at matrix
# and search seeds 1-3, a complex (0.5, 1.5) search and a (2, 2) search,
# then candidate 0's full value (the SVD span, whose points are the ones it
# drew itself) at real (2, 3), real (2, inf) and complex (2, 1)
PINNED_KOLMOGOROV = [
    "0x1.c22e6bf6b2846p+0", "0x1.4a214c4fbb0c1p+1", "0x1.d661013abe288p+1",
    "0x1.7da7c3a4868a4p+0", "0x1.f28ab12cc4eaep-1", "0x1.8eedaaacd8efcp+0",
    "0x1.f245cd66c474bp+0", "0x1.2500ee2f13b0ep+0"]
PINNED_FIRST_CANDIDATES = ["0x1.1843247a12f87p-1", "0x1.41323c9057efcp+0",
                           "0x1.d6fe00f6456d6p+0"]


def test_kolmogorov_search_values_are_pinned():
    # exact under the versions that wrote them (Python 3.11.7, numpy 2.4.6):
    # every value at p <= min(1, q), every Hilbert value and every
    # candidate-0 value is the same float as with a sample set per candidate
    import platform

    values = []
    for n, p, q, k, budget in [(4, 1.0, 1.0, 2, 100), (5, 1.0, 1.5, 3, 160)]:
        for seed in (1, 2, 3):
            M = np.random.default_rng(seed).standard_normal((n, n))
            values.append(kolmogorov_upper_search(operator(M, p, q), k, budget=budget, seed=seed))
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    values.append(kolmogorov_upper_search(operator(M, 0.5, 1.5, field=COMPLEX), 2, budget=100,
                                          seed=5))
    M = np.random.default_rng(6).standard_normal((5, 5))
    values.append(kolmogorov_upper_search(operator(M, 2.0, 2.0), 3, budget=2000, seed=6))
    for n, field, p, q, k, budget in [(4, REAL, 2.0, 3.0, 2, 300), (5, REAL, 2.0, INF, 3, 100),
                                      (3, COMPLEX, 2.0, 1.0, 2, 100)]:
        rng = np.random.default_rng(7)
        M = rng.standard_normal((n, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((n, n))
        _, cands = kolmogorov_upper_search(operator(M, p, q, field=field), k, budget=budget,
                                           seed=7, return_details=True)
        values.append(cands[0].value)
    pinned = PINNED_KOLMOGOROV + PINNED_FIRST_CANDIDATES
    if (platform.python_version(), np.__version__) == ("3.11.7", "2.4.6"):
        assert [v.hex() for v in values] == pinned
    else:
        assert values == pytest.approx([float.fromhex(h) for h in pinned], rel=1e-12)


def test_dist_raw_and_orthonormal_bases_agree():
    # the cross-check the non-Hilbert Kolmogorov search no longer pays for:
    # a raw basis and its orthonormalisation span the same subspace
    rng = np.random.default_rng(17)
    for t in range(24):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        x = rng.standard_normal(n)
        B = rng.standard_normal((n, m))
        Q = np.linalg.qr(B)[0]
        for q in (1.0, INF, 0.5):
            raw = dist_to_subspace(x, list(B.T), q)
            ortho = dist_to_subspace(x, list(Q.T), q)
            assert abs(raw - ortho) <= 1e-9 * max(1.0, raw, ortho)


@pytest.mark.parametrize("n, field, p, q, k, columns", [
    (4, REAL, 1.0, 0.5, 2, False),
    (4, REAL, 1.0, 1.0, 2, True),
    (5, REAL, 2.0, INF, 3, False),
    (3, COMPLEX, 2.0, 1.0, 2, False),
    (4, COMPLEX, 0.5, 1.5, 2, True),
])
def test_kolmogorov_search_one_distance_per_sample_point(monkeypatch, n, field, p, q, k, columns):
    # the search draws one sample set and forms its images once: the n
    # columns M @ e_j, then the sphere points' images.  Under details every
    # candidate's basis is factored once (its share of the stacked SVD), and
    # its value is the largest distance over every shared image; each
    # distance solved is the float dist_to_subspace gives
    points, calls, factored, shares = [], [], [], []
    solve, sphere, span = widths._subspace_distance, widths.sample_sphere, widths._span_of_svd
    candidate = widths._kolmogorov_candidate_value

    def count_solve(*args):
        d = solve(*args)
        calls.append((np.array(args[0]), shares[-1][1], d))
        return d

    def count_sphere(*args, **kwargs):
        X = sphere(*args, **kwargs)
        points.append(n + X.shape[0])
        return X

    def count_span(*args):
        factored.append(1)
        return span(*args)

    def record(T, basis, q, images, **kwargs):
        shares.append((images, basis, kwargs["factored"]))
        return candidate(T, basis, q, images, **kwargs)

    monkeypatch.setattr(widths, "_subspace_distance", count_solve)
    monkeypatch.setattr(widths, "sample_sphere", count_sphere)
    monkeypatch.setattr(widths, "_span_of_svd", count_span)
    monkeypatch.setattr(widths, "_kolmogorov_candidate_value", record)
    rng = np.random.default_rng(19)
    M = rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((n, n))
    _, cands = kolmogorov_upper_search(operator(M, p, q, field=field), k, budget=100,
                                       seed=1, return_details=True)
    assert all(c.quotient is None and c.agreement_gap is None for c in cands)
    assert len(points) == 1
    assert len(factored) == len(shares) == len(cands)
    assert len(calls) <= len(cands) * points[0]
    images = shares[0][0]
    assert len(images) == points[0] and all(y is images for y, _, _ in shares)
    for y, basis, d in calls:
        assert d == dist_to_subspace(y, list(basis.T), q)
    # the first n images are the columns, bit for bit
    for j in range(n):
        assert np.array_equal(images[j], M[:, j])
    for c, (_, _, (Q, tilt, caps)) in zip(cands, shares):
        full = [solve(y, Q, tilt, cap, q) for y, cap in zip(images, caps)]
        assert c.value == max(full)
        if columns:
            # p <= min(1, q): the columns' distance maximum is each
            # candidate's supremum, so no separate column pass is needed
            assert c.value == max(full[:n])


# (field, n, p, q, rank-deficient): every dist_to_subspace branch, and q = 2
# with p != 2
PRUNED_SEARCH_CASES = [
    (REAL, 4, 1.0, 1.0, False),  # lp, plus the column supremum
    (REAL, 4, 2.0, INF, True),  # lp
    (REAL, 3, 1.0, 1.5, True),  # smooth
    (REAL, 3, 2.0, 3.0, False),  # smooth
    (REAL, 4, 1.0, 0.5, False),  # quasi: vertex minimum
    (REAL, 4, 1.0, 0.5, True),  # quasi: vertex minimum on independent columns
    (REAL, 4, 1.0, 2.0, True),  # q2 with p != 2: the cap is the distance
    (COMPLEX, 3, 2.0, 1.0, False),  # complex, certified
    (COMPLEX, 3, 1.0, 1.5, True),  # complex, certified
    (COMPLEX, 3, 0.5, INF, True),  # complex
    (COMPLEX, 2, 1.0, 0.5, False),  # complex q < 1
    (COMPLEX, 2, INF, 0.5, True),  # complex q < 1
]


@pytest.mark.parametrize("field, n, p, q, deficient", PRUNED_SEARCH_CASES)
@settings(max_examples=1, deadline=None)
@given(mseed=st.integers(0, 2**16), k=st.integers(2, 4))
def test_pruned_kolmogorov_search_equals_full_evaluation(field, n, p, q, deficient, mseed, k):
    # The search without details skips the distance solves that cannot change
    # its min-max; return_details=True takes every candidate to its full
    # value.  The two must agree bit for bit.
    rng = np.random.default_rng(mseed)
    M = rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((n, n))
    if deficient:
        M[:, -1] = 2.0 * M[:, 0]
    T = operator(M, p, q, field=field)
    k = min(k, n)
    v = kolmogorov_upper_search(T, k, budget=60, seed=mseed)
    _, cands = kolmogorov_upper_search(T, k, budget=60, seed=mseed, return_details=True)
    assert v == min(c.value for c in cands)


@pytest.mark.parametrize("field, p, q", [
    (REAL, 1.0, 1.0), (REAL, 2.0, INF), (REAL, 2.0, 3.0), (REAL, 1.0, 0.5), (COMPLEX, 1.0, 2.0),
])
def test_kolmogorov_candidate_value_is_exact_below_its_bound(field, p, q):
    # given a bound, a candidate returns its full value when that is below
    # the bound, and otherwise a value between the bound and the full value
    for seed in range(31, 37):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        G = rng.standard_normal((4, 2))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((4, 4))
            G = G + 1j * rng.standard_normal((4, 2))
        T = operator(M, p, q, field=field)
        basis = np.linalg.qr(G)[0]
        images = widths._sample_images(T, 16, 3)
        Q, tilt, caps = widths._factored_candidates([basis], images, q)[0]
        full = max(spaces._subspace_distance(y, Q, tilt, cap, q) for y, cap in zip(images, caps))
        assert widths._kolmogorov_candidate_value(T, basis, q, images)[0] == full
        for factor in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, INF):
            bound = full * factor
            v = widths._kolmogorov_candidate_value(T, basis, q, images, bound=bound)[0]
            if full < bound:
                assert v == full
            else:
                assert bound <= v <= full


@pytest.mark.parametrize("k, budget", [(2, 100), (3, 100), (2, 4000)])
def test_kolmogorov_search_draws_complex_random_bases_for_complex_operators(monkeypatch, k,
                                                                            budget):
    # a real random basis spans a real subspace of C^m, a thin family: every
    # random candidate of a complex operator must have a nonzero imaginary part
    bases = []
    candidate = widths._kolmogorov_candidate_value

    def record(T, basis, *args, **kwargs):
        bases.append(basis)
        return candidate(T, basis, *args, **kwargs)

    monkeypatch.setattr(widths, "_kolmogorov_candidate_value", record)
    rng = np.random.default_rng(43)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    _, cands = kolmogorov_upper_search(operator(M, 2.0, 1.0, field=COMPLEX), k, budget=budget,
                                       seed=5, return_details=True)
    random = [B for B, c in zip(bases, cands, strict=True) if c.kind == "random"]
    assert len(random) >= 4
    assert all(np.iscomplexobj(B) and np.any(B.imag != 0.0) for B in random)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, INF])
def test_batched_caps_bracket_each_points_own_cap(field, q):
    # the search prunes on the caps of all its points, computed in one stack,
    # and skips a point whose cap is <= a distance it already has; each must
    # be the very float that the point's own dist_to_subspace call is the
    # minimum of, so the bracket is a point: the cap of the point alone
    rng = np.random.default_rng(41)
    for t in range(40):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        G, Y = rng.standard_normal((n, d)), rng.standard_normal((12, n))
        if field == COMPLEX:
            G, Y = G + 1j * rng.standard_normal((n, d)), Y + 1j * rng.standard_normal((12, n))
        Q = np.linalg.qr(G)[0] if t % 2 else np.linalg.svd(G)[0][:, :d]
        Y[0] = Q @ Y[1, :d]  # a point in the span, whose cap is rounding
        Y[2] *= 10.0 ** int(rng.integers(-8, 9))
        Y[3] *= 1e200  # q-th powers that overflow for q > 1
        caps = spaces._distance_caps(Y, Q, q)
        for y, cap in zip(Y, caps):
            assert cap == spaces._distance_caps(y[None], Q, q)[0]
            residual = spaces.lp_norm(y - Q @ (Q.conj().T @ y), q)
            own = residual if q == 2.0 else min(spaces.lp_norm(y, q), residual)
            assert cap == pytest.approx(own, rel=1e-13, abs=1e-13 * spaces.lp_norm(y, q))


@pytest.mark.parametrize("field, budget, n_cand", [
    (REAL, 100, 5), (REAL, 4000, 8), (COMPLEX, 12000, 20),
])
def test_kolmogorov_search_at_q2_solves_one_distance_per_candidate(monkeypatch, field, budget,
                                                                   n_cand):
    # at q = 2 the cap is the distance: the largest cap is the candidate's
    # value, and no other point can raise it
    calls = []
    solve = widths._subspace_distance

    def count_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(widths, "_subspace_distance", count_solve)
    rng = np.random.default_rng(29)
    M = rng.standard_normal((4, 4))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((4, 4))
    T = operator(M, 1.0, 2.0, field=field)
    kolmogorov_upper_search(T, 3, budget=budget, seed=4)
    assert len(calls) == n_cand


@pytest.mark.parametrize("field, p", [(REAL, 1.0), (REAL, 0.5), (REAL, INF), (COMPLEX, 1.5)])
def test_sample_images_have_the_bits_of_one_product_per_point(field, p):
    # one stacked matmul against column vectors: each image is the float
    # that M @ x gives for its own point, on square and non-square matrices
    for m, n in [(4, 4), (3, 5), (6, 2)]:
        rng = np.random.default_rng(m * n)
        M = rng.standard_normal((m, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((m, n))
        T = operator(M, p, 2.0, field=field)
        images = widths._sample_images(T, 24, 9)
        points = np.random.default_rng([9, n, 24])
        X = np.vstack([np.eye(n), spaces.sample_sphere(points, n, p, field, 24)])
        assert images.shape == (n + 24, m)
        for y, x in zip(images, X, strict=True):
            assert np.array_equal(y, M @ x)


def _drawn_bases(M, k, budget, seed):
    """The candidate bases of a Kolmogorov search drawn one at a time: the
    SVD span, then one QR per jitter and per random frame, in the order the
    search's generator draws them."""
    U = np.linalg.svd(M)[0][:, :k - 1]
    n_cand = max(5, min(20, budget // 500))
    n_svd = max(1, n_cand // 5)
    rng = np.random.default_rng(spaces._stable_seed(seed, M, k, 77))
    bases = [U]
    for _ in range(n_svd - 1):
        bases.append(np.linalg.qr(U + 0.05 * widths._random_like(rng, U))[0])
    for _ in range(n_cand - n_svd):
        bases.append(np.linalg.qr(widths._random_like(rng, U))[0])
    return bases


@pytest.mark.parametrize("field, p, q, budget", [
    (REAL, 1.0, 1.0, 100), (REAL, 2.0, INF, 6000), (COMPLEX, 2.0, 1.0, 100),
    (COMPLEX, 1.0, 1.5, 12000), (REAL, 2.0, 2.0, 5000),
])
def test_stacked_candidate_bases_have_the_bits_of_one_qr_each(monkeypatch, field, p, q, budget):
    # the search draws every Gaussian matrix first and orthonormalises them
    # in one stacked QR: each basis is the one a QR per candidate gives
    bases = []
    candidate = widths._kolmogorov_candidate_value

    def record(T, basis, *args, **kwargs):
        bases.append(basis)
        return candidate(T, basis, *args, **kwargs)

    monkeypatch.setattr(widths, "_kolmogorov_candidate_value", record)
    rng = np.random.default_rng(71)
    M = rng.standard_normal((5, 5))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((5, 5))
    kolmogorov_upper_search(operator(M, p, q, field=field), 3, budget=budget, seed=2,
                            return_details=True)
    want = _drawn_bases(M, 3, budget, 2)
    assert len(bases) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(bases, want))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, INF])
def test_stacked_spans_and_caps_have_the_bits_of_one_candidate_each(field, q):
    # one stacked SVD factors every candidate and, where their ranks agree,
    # one stacked _distance_caps caps every image: each candidate's span,
    # tilt and caps are the floats its own calls give.  A candidate
    # of lower rank makes the ranks disagree, and the caps are then one
    # call per candidate
    rng = np.random.default_rng(73)
    for t in range(12):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(1, m))
        M = rng.standard_normal((m, m))
        G = rng.standard_normal((6, m, d))
        if field == COMPLEX:
            M, G = M + 1j * rng.standard_normal((m, m)), G + 1j * rng.standard_normal((6, m, d))
        bases = [np.linalg.svd(M)[0][:, :d]] + list(np.linalg.qr(G)[0])
        if t % 3 == 2 and d > 1:
            bases[-1] = bases[-1].copy()
            bases[-1][:, -1] = bases[-1][:, 0]  # a rank below d
        images = widths._sample_images(operator(M, 1.0, q, field=field), 16, t)
        got = widths._factored_candidates(bases, images, q)
        assert len(got) == len(bases)
        for basis, (Q, tilt, caps) in zip(bases, got):
            Q1, tilt1 = spaces._orthonormal_span(basis.astype(images.dtype))
            assert np.array_equal(Q, Q1) and tilt == tilt1
            assert caps == spaces._distance_caps(images, Q1, q).tolist()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_hilbert_kolmogorov_search_stops_at_the_svd_candidate(field):
    # at p = q = 2 the SVD span attains d_k = sigma_k (Eckart-Young-Mirsky):
    # the search evaluates it alone, and its value is the minimum of the
    # full evaluation that return_details still makes
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((n, n))
        T = operator(M, 2.0, 2.0, field=field)
        sigma = np.linalg.svd(M, compute_uv=False)
        for k in range(2, n + 1):
            budget = (2000, 6000)[seed % 2]
            v = kolmogorov_upper_search(T, k, budget=budget, seed=seed)
            full, cands = kolmogorov_upper_search(T, k, budget=budget, seed=seed,
                                                  return_details=True)
            assert len(cands) == max(5, min(20, budget // 500))
            assert v == full == cands[0].value == min(c.value for c in cands)
            assert v == pytest.approx(sigma[k - 1], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_hilbert_approx_search_stops_at_the_svd_truncation(field):
    # at p = q = 2 the truncation attains a_k = sigma_k (Eckart-Young-Mirsky):
    # the search returns its rounded residual norm, and no restart around it
    # and no coordinate step of its factors improves on it by the 1e-15 the
    # descent asks of a step (a step can round an ulp below it)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        if field == COMPLEX:
            M = M + 1j * rng.standard_normal((n, n))
        T = operator(M, 2.0, 2.0, field=field)
        U, s, Vh = np.linalg.svd(M)
        for k in range(2, n + 1):
            A0, B0 = U[:, :k - 1] * s[:k - 1], Vh[:k - 1]
            truncation = widths._residual_norms(T, (A0 @ B0)[None])[0]
            v, (A, B) = widths._approx_search(T, k, 400, seed)
            assert np.array_equal(A, A0) and np.array_equal(B, B0)
            assert v == widths._product_rounding(T, A0, B0, truncation)
            assert v == approx_upper_search(T, k, budget=400, seed=seed)
            assert s[k - 1] * (1.0 - 1e-12) <= v <= s[k - 1] * (1.0 + 1e-9) + 1e-12
            x = np.concatenate([A0.ravel(), B0.ravel()])
            tries = [widths._coordinate_tries(x, np.arange(x.size), step)[0]
                     for step in (0.1 * s[0], 1e-3 * s[0], 1e-6 * s[0])]
            tries.append(x + 0.05 * s[0] * widths._random_like(rng, np.zeros((3, x.size))))
            X = np.vstack(tries)
            products = widths._low_rank(*widths._factors(X, A0.shape, B0.shape))
            assert min(widths._residual_norms(T, products)) >= truncation - 1e-15


def test_kolmogorov_search_never_below_sigma():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4))
    T = operator(M, 2.0, 2.0)
    sig = np.linalg.svd(M, compute_uv=False)
    for k in (2, 3, 4):
        v = kolmogorov_upper_search(T, k, budget=3000, seed=2)
        assert v >= sig[k - 1] - 1e-9


def test_width_brackets_decide_the_kinds_of_both_sides():
    M = np.random.default_rng(2).standard_normal((4, 4))
    # p = q = 2: sigma_k on both sides, exact
    pairs = list(width_brackets(operator(M, 2.0, 2.0), 2, 5, 1000, 0))
    sigma = list(np.linalg.svd(M, compute_uv=False)) + [0.0]
    assert [(a.upper, d.upper, a.exact, d.exact, a.method, d.method) for a, d in pairs] == [
        (v, v, True, True, "svd", "svd") for v in sigma[1:]]
    # elsewhere a_1 = d_1 is op_norm's bracket with no search, a_k (k >= 2)
    # the meet of the rank search with its certified upper while n <= 8, at
    # every (p, q): at (2, 1) too, where the search wins; and d_k <= a_k
    # takes a_k's bracket
    for T in (operator(M, 0.5, 2.0), operator(M, 2.0, 1.0)):
        norm = op_norm(T, budget=1000, seed=0)
        pairs = list(width_brackets(T, 1, 3, 1000, 0))
        assert pairs[0] == (Bracket(norm.lower, norm.upper, norm.lower_kind, norm.upper_kind,
                                    "norm-bound"),) * 2
        for k, (a, d) in enumerate(pairs[1:], 2):
            search = approx_upper_search(T, k, budget=400, seed=0)
            assert d == a == Bracket(None, search, None, operators.CERTIFIED, "rank-search")
            assert search < norm.upper
    # past n = 8 both sides are the norm bound
    pairs = list(width_brackets(operator(np.eye(9), 0.5, 2.0), 1, 2, 1000, 0))
    assert all(a is d and d.method == "norm-bound" for a, d in pairs)
    assert pairs[1][1].lower is None and pairs[1][1].upper == pairs[0][1].upper
    # and so are a_k and d_k where each residual norm would enumerate more
    # than 2^7 sign vectors: a real 12 x 8 matrix at q <= 1 < p, or at (1, 0.5)
    M = np.random.default_rng(2).standard_normal((12, 8))
    for p, q, field, method in [(2.0, 1.0, REAL, "norm-bound"), (1.0, 0.5, REAL, "norm-bound"),
                                (2.0, 1.0, COMPLEX, "rank-search"),
                                (1.0, 1.0, REAL, "rank-search"), (2.0, 3.0, REAL, "rank-search")]:
        (a, d), = width_brackets(operator(M, p, q, field=field), 2, 2, 1000, 0)
        assert d == a and a.method == method


def test_real_complex_bracket():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = operator(M, 2.0, 2.0, field=COMPLEX)
    seq_c = hilbert_s_numbers(T)
    seq_r = hilbert_s_numbers(realify(T))
    for k in (1, 2, 3, 4):
        assert real_complex_bracket(seq_r, seq_c, k)
    with pytest.raises(ValueError):
        real_complex_bracket(seq_r, seq_c, 0)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def test_axiom_suite_clean_on_singular_values():
    report = s_axiom_suite(hilbert_s_numbers, trials=30, seed=11)
    assert len(report.entries) > 100
    assert report.ok, report.violations


def _inflated_s2(T):
    # a sequence that inflates s_2 must trip monotonicity
    s = hilbert_s_numbers(T)
    vals = list(s.values)
    if len(vals) >= 2:
        vals[1] = vals[0] * 2.0
        vals = sorted(vals, reverse=True)
    return SNumberSeq(tuple(vals))


class _NaNSeq:
    # stands in for an s-number sequence (SNumberSeq refuses NaN values)
    def value(self, k):
        return math.nan


def _all_nan(T):
    # NaN compares false both ways, so it must fail the checks, not pass them
    return _NaNSeq()


@pytest.mark.parametrize("bad", [_inflated_s2, _all_nan], ids=["inflated-s2", "all-nan"])
def test_axiom_suite_flags_broken_rule(bad):
    report = s_axiom_suite(bad, trials=5, seed=0)
    assert not report.ok


def test_bound_respecting_axioms_small():
    report = bound_respecting_axioms(trials=2, seed=0, cloud=300, k_max=2)
    assert len(report.entries) > 0
    assert report.ok, report.violations
