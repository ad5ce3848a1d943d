"""Approximation and Kolmogorov numbers: formulas, searches, axioms."""

import math

import numpy as np
import pytest

from snumbers import widths
from snumbers.operators import diagonal_operator, op_norm, operator, realify
from snumbers.spaces import COMPLEX, REAL, dist_to_subspace
from snumbers.widths import (
    KIND_APPROXIMATION,
    KIND_KOLMOGOROV,
    NO_CLOSED_FORM,
    SNumberSeq,
    WidthEnvelope,
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
        SNumberSeq(KIND_APPROXIMATION, (1.0, 2.0), exact=True, method="x")
    with pytest.raises(ValueError):
        SNumberSeq(KIND_APPROXIMATION, (1.0, -0.5), exact=True, method="x")
    for bad in ((math.nan, 1.0), (1.0, math.nan), (math.nan,)):
        with pytest.raises(ValueError, match="NaN"):
            SNumberSeq(KIND_APPROXIMATION, bad, exact=True, method="x")
    s = SNumberSeq(KIND_APPROXIMATION, (3.0, 1.0), exact=True, method="x")
    assert s.value(1) == 3.0
    assert s.value(2) == 1.0
    assert s.value(7) == 0.0  # past the recorded tail
    with pytest.raises(ValueError):
        s.value(0)


def test_envelope_validation():
    with pytest.raises(ValueError):
        WidthEnvelope(2.0, 1.0, "bad", False)
    env = WidthEnvelope(None, None, NO_CLOSED_FORM, False)
    assert env.no_closed_form


def test_hilbert_s_numbers():
    T = diagonal_operator([3.0, 2.0, 1.0])
    for kind in (KIND_APPROXIMATION, KIND_KOLMOGOROV):
        s = hilbert_s_numbers(T, kind)
        assert s.exact
        assert np.array_equal(s.values, [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        hilbert_s_numbers(diagonal_operator([1.0], p=1.0, q=2.0))


# ---------------------------------------------------------------------------
# identity envelopes
# ---------------------------------------------------------------------------


def test_approx_exact_formula_anchors():
    env = approx_id_envelope(2.0, 1.0, 4, 1)
    assert env.constants_known
    assert env.lower == env.upper == pytest.approx(2.0)
    env = approx_id_envelope(2.0, 1.0, 4, 2)
    assert env.lower == pytest.approx(math.sqrt(3.0))
    assert approx_id_envelope(3.0, 3.0, 9, 5).lower == 1.0
    env = approx_id_envelope(1.0, 2.0, 4, 6)
    assert (env.lower, env.upper, env.case_label) == (0.0, 0.0, "rank-zero")


def test_approx_exact_matches_norm_of_identity():
    # k = 1 of the formula is the operator norm n^(1/q - 1/p)
    for (p, q, n) in ((2.0, 1.0, 5), (INF, 0.5, 3), (4.0, 2.0, 7)):
        env = approx_id_envelope(p, q, n, 1)
        In = operator(np.eye(n), p, q)
        assert env.lower == pytest.approx(op_norm(In).value)


def test_approx_dispatch_labels():
    assert approx_id_envelope(1.0, 2.0, 16, 2).case_label == "one-small-pq"
    assert approx_id_envelope(3.0, 6.0, 16, 2).case_label == "one-large-pq"
    assert approx_id_envelope(1.5, 2.5, 16, 4).case_label == "min-root-k-q"
    assert approx_id_envelope(1.5, 4.0, 16, 4).case_label == "min-root-k-dual"
    assert approx_id_envelope(1.5, 2.0, 8, 4).case_label == "psi-direct"
    assert approx_id_envelope(1.5, 4.0, 8, 4).case_label == "psi-dual"
    # the q = p' diagonal only admits an upper estimate at large index
    env = approx_id_envelope(1.5, 3.0, 8, 4)
    assert env.case_label == "upper-root-k"
    assert env.lower is None
    assert env.upper == pytest.approx(8.0 ** (1.0 / 3.0) / 2.0)
    # and (1, inf) at large index has no usable closed form at all
    assert approx_id_envelope(1.0, INF, 8, 4).no_closed_form


def test_kolmogorov_case_one_matches_approx():
    for (p, q, n, k) in ((2.0, 1.0, 4, 2), (INF, 2.0, 6, 3), (3.0, 3.0, 5, 1)):
        d = kolmogorov_id_envelope(p, q, n, k)
        a = approx_id_envelope(p, q, n, k)
        assert d.case_label == "phi-case-1"
        assert d.constants_known
        assert d.lower == pytest.approx(a.lower)


def test_kolmogorov_quasi_lower():
    env = kolmogorov_id_envelope(1.0, 0.5, 10, 3)
    assert env.case_label == "quasi-lower"
    assert env.lower == pytest.approx(5.0)
    assert env.upper is None
    assert kolmogorov_id_envelope(1.0, 0.5, 10, 7).no_closed_form


def test_kolmogorov_log_bracket_at_q_inf():
    env = kolmogorov_id_envelope(1.0, INF, 8, 2)
    assert env.case_label.endswith("-log-bracket")
    assert not env.constants_known
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


def test_approx_search_non_hilbert_upper_bound():
    # rank-one residuals of diag(2, 1): l_1 -> l_inf have max-entry at least
    # 2/3 (entries a, b, c, d of uv^T satisfy ad = bc, so a residual below t
    # forces (2 - t)(1 - t) < t^2, i.e. t > 2/3), and truncation gives 1, so
    # the search must land in [2/3, 1]
    T = diagonal_operator([2.0, 1.0], p=1.0, q=INF)
    v = approx_upper_search(T, 2, budget=800, seed=1)
    assert 2.0 / 3.0 - 1e-9 <= v <= 1.0 + 1e-9


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


def _inflated_s2(T, kind=KIND_APPROXIMATION):
    # a sequence that inflates s_2 must trip monotonicity
    s = hilbert_s_numbers(T, kind)
    vals = list(s.values)
    if len(vals) >= 2:
        vals[1] = vals[0] * 2.0
        vals = sorted(vals, reverse=True)
    return SNumberSeq(s.kind, tuple(vals), exact=False, method="bad")


class _NaNSeq:
    # stands in for an s-number sequence (SNumberSeq refuses NaN values)
    def value(self, k):
        return math.nan


def _all_nan(T, kind=KIND_APPROXIMATION):
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
