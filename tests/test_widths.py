"""Approximation and Kolmogorov numbers: formulas, searches, axioms."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snumbers import operators, spaces, widths
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
    # lower with their own seed, so they return the same float for every seed
    rng = np.random.default_rng(3)
    T = operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 2.0, 3.0)
    for seed in (0, 1, 2):
        norm = op_norm(T, seed=seed)
        assert norm.method == "power-method"
        assert approx_upper_search(T, 1, seed=seed) == norm.lower
        assert kolmogorov_upper_search(T, 1, seed=seed) == norm.lower


def test_approx_search_non_hilbert_upper_bound():
    # rank-one residuals of diag(2, 1): l_1 -> l_inf have max-entry at least
    # 2/3 (entries a, b, c, d of uv^T satisfy ad = bc, so a residual below t
    # forces (2 - t)(1 - t) < t^2, i.e. t > 2/3), and truncation gives 1, so
    # the search must land in [2/3, 1]
    T = diagonal_operator([2.0, 1.0], p=1.0, q=INF)
    v = approx_upper_search(T, 2, budget=800, seed=1)
    assert 2.0 / 3.0 - 1e-9 <= v <= 1.0 + 1e-9


def _reference_lp_norm(x, p):
    a = np.abs(x)
    if math.isinf(p):
        v = float(a.max())
    elif p == 2.0:
        v = float(np.sqrt(np.dot(a, a)))
    elif p == 1.0:
        v = float(a.sum())
    else:
        v = float((a**p).sum() ** (1.0 / p))
    if not math.isfinite(v):  # overflowed powers: the norm of a / max(a), scaled back
        top = a.max()
        v = float(top * _reference_lp_norm(a / top, p))
    return v


def _reference_samples(T, budget, seed):
    """The sampling phase of both non-exact paths: generator, points, norms, order."""
    M = T.matrix
    n = T.domain.n
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(M.tobytes())])
    X = operators._unit_directions(n, T.field)
    X = np.vstack([X, spaces.sample_sphere(rng, n, T.domain.p, T.field, max(16, budget // 2))])
    Y = X @ M.T
    vals = operators._norm_rows(Y, T.codomain.p)
    bad = ~np.isfinite(vals)
    vals[bad] = [_reference_lp_norm(y, T.codomain.p) for y in Y[bad]]
    return rng, X, vals, np.argsort(vals)[::-1]


def _unbounded_ascent(T, budget, seed):
    """The sampled ascent with no stop and a norm dispatched on every climb
    step: the reference that op_norm's bounded ascent must match bit for bit."""
    M = T.matrix
    p, q = T.domain.p, T.codomain.p
    n = T.domain.n
    rng, X, vals, order = _reference_samples(T, budget, seed)
    best = float(vals[order[0]])
    spent = X.shape[0]
    for idx in order[:4]:
        x = X[idx].copy()
        cur = float(vals[idx])
        radius = 0.5
        while spent < budget and radius > 1e-7:
            step = rng.standard_normal(n)
            if T.field == COMPLEX:
                step = step + 1j * rng.standard_normal(n)
            y = x + radius * step
            ny = _reference_lp_norm(y, p)
            spent += 1
            if ny == 0.0:
                continue
            y = y / ny
            v = _reference_lp_norm(M @ y, q)
            if v > cur:
                x, cur = y, v
            else:
                radius *= 0.8
        best = max(best, cur)
    return best


def _unbounded_power_method(T, budget, seed):
    """The power method with no stop and a norm dispatched on every step: the
    reference that op_norm's bounded power method must match bit for bit."""
    M = T.matrix
    p, q = T.domain.p, T.codomain.p
    _, X, vals, order = _reference_samples(T, budget, seed)
    best = float(vals[order[0]])
    spent = X.shape[0]
    top = np.linalg.svd(M, full_matrices=False)[2][0].conj()
    for x in [X[i] for i in order[:4]] + [top / _reference_lp_norm(top, p)]:
        cur, misses = 0.0, 0
        while spent < budget:
            y = M @ x
            v = _reference_lp_norm(y, q)
            spent += 1
            if v > cur:
                cur, misses = v, 0
            else:
                misses += 1
                if misses == 2:
                    break
            w = M.conj().T @ operators._dual(y, np.abs(y), q)
            x = operators._dual(w, np.abs(w), conjugate_exponent(p))
            nx = _reference_lp_norm(x, p)
            if nx == 0.0:
                break
            x = x / nx
        best = max(best, cur)
    return best


def _unbounded_norm(T, budget, seed):
    """op_norm's value with no stop: an exact path's value, which ignores the
    stop, or the unbounded copy of the non-exact path that op_norm takes."""
    r = op_norm(T, budget, seed, stop=-INF)  # a non-exact path returns at once
    if r.exact:
        return r.lower
    unbounded = {"power-method": _unbounded_power_method, "sampled-ascent": _unbounded_ascent}
    return unbounded[r.method](T, budget, seed)


def _unbounded_approx_search(T, k, budget, seed):
    """approx_upper_search with every residual norm evaluated in full, for
    k >= 2; a residual with a non-finite entry is inf, as in the search."""
    def residual(S):
        R = T.matrix - S
        if not np.isfinite(R).all():
            return math.inf
        return _unbounded_norm(operator(R, T.domain.p, T.codomain.p, field=T.field), 2000, 0)

    M = T.matrix
    U, s, Vh = np.linalg.svd(M)
    r_eff = min(k - 1, s.size)
    A0 = U[:, :r_eff] * s[:r_eff]
    B0 = Vh[:r_eff]
    best = residual(widths._low_rank(A0, B0))
    spent = 1
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(M.tobytes()), k])
    scale = float(s[0]) if s.size else 1.0
    best_AB = (A0.copy(), B0.copy())
    for _ in range(3):
        if spent >= budget:
            break
        Ar = A0 + 0.05 * scale * widths._random_like(rng, A0)
        Br = B0 + 0.05 * widths._random_like(rng, B0)
        v = residual(widths._low_rank(Ar, Br))
        spent += 1
        if v < best:
            best, best_AB = v, (Ar, Br)
    A, B = best_AB[0].copy(), best_AB[1].copy()
    step = 0.1 * max(scale, 1e-12)
    while spent < budget and step > 1e-10 * max(scale, 1.0):
        improved = False
        coords = [("A", i) for i in range(A.size)] + [("B", i) for i in range(B.size)]
        rng.shuffle(coords)
        for which, i in coords:
            if spent + 2 > budget:
                break
            flat = (A if which == "A" else B).reshape(-1)
            old = flat[i]
            for delta in (step, -step):
                flat[i] = old + delta
                v = residual(widths._low_rank(A, B))
                spent += 1
                if v < best - 1e-15:
                    best = v
                    old = flat[i]
                    improved = True
                    break
            else:
                flat[i] = old
        if not improved:
            step *= 0.5
    return float(best)


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
def test_bounded_approx_search_equals_unbounded_search(field, kind, pq, m, n, k, budget, mseed):
    # The search stops each residual norm once the candidate has lost; the
    # copy above evaluates every norm in full.  The two must agree bit for
    # bit, except past full rank, where a_k is exactly 0.
    p, q = pq
    rng = np.random.default_rng(mseed)
    T = operator(_search_matrix(rng, m, n, field, kind), p, q, field=field)
    # the search warns of nothing, 1e200 matrices included, so pytest's
    # error::RuntimeWarning holds
    v = approx_upper_search(T, k, budget=budget, seed=mseed)
    with np.errstate(over="ignore", invalid="ignore"):
        assert op_norm(T, seed=mseed, stop=INF).lower.hex() == \
            _unbounded_norm(T, 2000, mseed).hex()
        if k - 1 >= min(m, n):
            assert v.hex() == "0x0.0p+0"
        else:
            assert v.hex() == _unbounded_approx_search(T, k, budget, mseed).hex()


@pytest.mark.parametrize("field, p, q", [(REAL, 2.0, 1.0), (REAL, 1.0, 2.0), (REAL, 2.0, 2.0),
                                         (COMPLEX, INF, 0.5)])
def test_approx_search_is_exactly_zero_past_full_rank(monkeypatch, field, p, q):
    # k - 1 >= min(m, n): some operator of rank < k is T itself, so a_k = 0
    # exactly, with no residual norm taken
    monkeypatch.setattr(widths, "_residual_norm", None)
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
    monkeypatch.setattr(widths, "op_norm", None)
    T = operator(np.ones((2, 2)), 1.5, 0.7)
    for bad in (math.inf, -math.inf, math.nan):
        S = np.zeros((2, 2))
        S[1, 0] = bad
        assert widths._residual_norm(T, S) == math.inf
        assert widths._residual_norm(T, S, stop=1.0) == math.inf


def test_kolmogorov_search_hilbert():
    T = diagonal_operator([3.0, 2.0, 1.0])
    # d_1 admits only the zero subspace, so it is the operator norm
    assert kolmogorov_upper_search(T, 1, budget=100, seed=0) == pytest.approx(3.0)
    v, cands = kolmogorov_upper_search(T, 2, budget=4000, seed=0, return_details=True)
    assert v == pytest.approx(2.0, rel=0.05)
    # in the Hilbert case the direct distance and the quotient-map norm agree
    assert all(c.agreement_gap <= 1e-6 for c in cands)


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
            raw = dist_to_subspace(x, list(B.T), q, seed=t)
            ortho = dist_to_subspace(x, list(Q.T), q, seed=t + 1)
            assert abs(raw - ortho) <= 1e-9 * max(1.0, raw, ortho)


@pytest.mark.parametrize("n, field, p, q, k, columns", [
    (4, REAL, 1.0, 0.5, 2, False),
    (4, REAL, 1.0, 1.0, 2, True),
    (5, REAL, 2.0, INF, 3, False),
    (3, COMPLEX, 2.0, 1.0, 2, False),
    (4, COMPLEX, 0.5, 1.5, 2, True),
])
def test_kolmogorov_search_one_distance_per_sample_point(monkeypatch, n, field, p, q, k, columns):
    points, calls, firsts = [], [], []
    dist, unit, sphere = widths.dist_to_subspace, widths._unit_directions, widths.sample_sphere

    def count_dist(*args, **kwargs):
        calls.append(np.array(args[0]))
        return dist(*args, **kwargs)

    def count_unit(*args, **kwargs):
        X = unit(*args, **kwargs)
        points.append(X.shape[0])
        firsts.append(len(calls))
        return X

    def count_sphere(*args, **kwargs):
        X = sphere(*args, **kwargs)
        points.append(X.shape[0])
        return X

    monkeypatch.setattr(widths, "dist_to_subspace", count_dist)
    monkeypatch.setattr(widths, "_unit_directions", count_unit)
    monkeypatch.setattr(widths, "sample_sphere", count_sphere)
    rng = np.random.default_rng(19)
    M = rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((n, n))
    _, cands = kolmogorov_upper_search(operator(M, p, q, field=field), k, budget=100,
                                       seed=1, return_details=True)
    assert all(c.quotient is None and c.agreement_gap is None for c in cands)
    assert len(calls) == sum(points)
    if columns:
        # p <= 1 <= q: each candidate's first n points are the columns, whose
        # distance maximum is the supremum, so no separate column pass is needed
        for first in firsts:
            for j in range(n):
                assert np.array_equal(calls[first + j], M[:, j])


# (field, n, p, q, rank-deficient): every dist_to_subspace branch, and q = 2
# with p != 2
PRUNED_SEARCH_CASES = [
    (REAL, 4, 1.0, 1.0, False),  # lp, plus the column supremum
    (REAL, 4, 2.0, INF, True),  # lp
    (REAL, 3, 1.0, 1.5, True),  # smooth
    (REAL, 3, 2.0, 3.0, False),  # smooth
    (REAL, 4, 1.0, 0.5, False),  # quasi: vertex minimum
    (REAL, 4, 1.0, 0.5, True),  # quasi: descent
    (REAL, 4, 1.0, 2.0, True),  # q2 with p != 2: the cap is the distance
    (COMPLEX, 3, 2.0, 1.0, False),  # complex
    (COMPLEX, 3, 0.5, INF, True),  # complex
    (COMPLEX, 2, 1.0, 0.5, False),  # complex q < 1
    (COMPLEX, 2, INF, 0.5, True),  # complex q < 1
]


@pytest.mark.parametrize("field, n, p, q, deficient", PRUNED_SEARCH_CASES)
@settings(max_examples=1, deadline=None)
@given(mseed=st.integers(0, 2**16), k=st.integers(2, 4))
def test_pruned_kolmogorov_search_equals_full_evaluation(field, n, p, q, deficient, mseed, k):
    # The search without details skips the distance solves that cannot change
    # its min-max; return_details=True solves every one.  The two must agree
    # bit for bit.  Multi-start Nelder-Mead (the complex and the rank-deficient
    # quasi solves) is held to 20 evaluations per start so that the full
    # evaluation stays cheap; the skipping relies only on the caps and the
    # per-point seeds, which this leaves as they are.
    rng = np.random.default_rng(mseed)
    M = rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((n, n))
    if deficient:
        M[:, -1] = 2.0 * M[:, 0]
    T = operator(M, p, q, field=field)
    k = min(k, n)
    descent = spaces._derivative_free_descent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_derivative_free_descent",
                   lambda objective, starts, maxfev: descent(objective, starts, 20))
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
        full = widths._kolmogorov_candidate_value(T, basis, q, 16, 3)[0]
        for factor in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, INF):
            bound = full * factor
            v = widths._kolmogorov_candidate_value(T, basis, q, 16, 3, bound=bound)[0]
            if full < bound:
                assert v == full
            else:
                assert bound <= v <= full


@pytest.mark.parametrize("field, budget, n_cand", [
    (REAL, 100, 5), (REAL, 4000, 8), (COMPLEX, 12000, 20),
])
def test_kolmogorov_search_at_q2_solves_one_distance_per_candidate(monkeypatch, field, budget,
                                                                   n_cand):
    # at q = 2 the cap is the distance: the largest cap is the candidate's
    # value, and no other point can raise it
    calls = []
    dist = widths.dist_to_subspace

    def count_dist(*args, **kwargs):
        calls.append(1)
        return dist(*args, **kwargs)

    monkeypatch.setattr(widths, "dist_to_subspace", count_dist)
    rng = np.random.default_rng(29)
    M = rng.standard_normal((4, 4))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((4, 4))
    T = operator(M, 1.0, 2.0, field=field)
    kolmogorov_upper_search(T, 3, budget=budget, seed=4)
    assert len(calls) == n_cand


def test_kolmogorov_search_never_below_sigma():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4))
    T = operator(M, 2.0, 2.0)
    sig = np.linalg.svd(M, compute_uv=False)
    for k in (2, 3, 4):
        v = kolmogorov_upper_search(T, k, budget=3000, seed=2)
        assert v >= sig[k - 1] - 1e-9


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
