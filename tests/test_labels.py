"""Label truth: every op_norm bracket contains an independent reference, and
every width bracket respects the s-number sandwich through l_2, and the
rank search is an upper of the exact norm of its own residual."""

import math
from fractions import Fraction

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snumbers.operators import CERTIFIED, EXACT, NORM_PATHS, op_norm, operator, singular_values
from snumbers.spaces import COMPLEX, REAL, inv_exponent
from snumbers.widths import _approx_search, width_brackets

INF = math.inf

# exact paths and both non-exact ones: p <= q, p > q, q < 1, and the edges
PAIRS = [(2.0, 3.0), (1.5, 3.0), (1.2, 6.0), (3.0, 3.0), (1.5, 1.5), (3.0, 1.5), (4.0, 4.0 / 3.0),
         (2.0, 1.0), (INF, 2.0), (2.0, 0.5), (3.0, 0.7), (1.5, 0.7), (0.7, 0.3), (INF, 0.5),
         (1.0, 0.5), (0.5, 2.0), (2.0, INF), (2.0, 2.0)]


def _matrix(rng, m, n, field, kind):
    M = rng.standard_normal((m, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((m, n))
    if kind == "rank-one":
        return np.outer(M[:, 0], M[0])
    return M * {"gauss": 1.0, "huge": 1e200, "tiny": 1e-16}[kind]


def _enumerated(M, p, q):
    """The oracle's exact norm where it enumerates one (real matrices, p >= 1
    into l_1, or l_inf into q >= 1), divided through by a power of two so
    that 1e200 entries do not overflow its powers; else None."""
    if np.iscomplexobj(M) or not ((p >= 1.0 and q == 1.0) or (math.isinf(p) and q >= 1.0)):
        return None
    s = math.ldexp(1.0, math.frexp(float(np.abs(M).max()))[1])
    exact = oracles.norm_to_l1(M / s, p) if q == 1.0 else oracles.norm_from_linf(M / s, q)
    return exact * s


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([REAL, COMPLEX]),
       kind=st.sampled_from(["gauss", "rank-one", "huge", "tiny"]),
       pq=st.sampled_from(PAIRS), m=st.integers(1, 6), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
@example(field=REAL, kind="gauss", pq=(2.0, 0.5), m=4, n=4, seed=1)
@example(field=COMPLEX, kind="huge", pq=(3.0, 1.5), m=3, n=5, seed=2)
@example(field=COMPLEX, kind="tiny", pq=(1.5, 0.7), m=6, n=2, seed=3)
@example(field=REAL, kind="rank-one", pq=(0.7, 0.3), m=5, n=6, seed=4)
def test_op_norm_brackets_contain_their_reference(field, kind, pq, m, n, seed):
    # An exact bracket equals the enumerated norm, or is at least every value
    # a maximiser reaches, up to the rounding of both.  A certified bracket
    # is two-sided and ordered, and its upper is at least the maximiser's
    # value, with no allowance: its margin covers its own rounding.  The
    # whole run warns of nothing (pytest's error::RuntimeWarning).
    p, q = pq
    M = _matrix(np.random.default_rng(seed), m, n, field, kind)
    r = op_norm(operator(M, p, q, field=field), budget=400, seed=seed)
    assert r.method in NORM_PATHS
    reached = oracles.norm_lower(M, p, q, seed=seed)
    enumerated = _enumerated(M, p, q)
    if r.exact:
        if enumerated is not None:
            assert r.upper == pytest.approx(enumerated, rel=1e-12)
        assert reached <= r.upper * (1.0 + 1e-12)
        return
    assert (r.lower_kind, r.upper_kind) == (CERTIFIED, CERTIFIED)
    assert r.lower <= r.upper
    assert reached <= r.upper
    if enumerated is not None:
        assert r.lower <= enumerated * (1.0 + 1e-12) and enumerated <= r.upper


def test_op_norm_reaches_every_path_of_norm_paths_and_no_other():
    methods = set()
    for field in (REAL, COMPLEX):
        for p, q in PAIRS:
            for M in (_matrix(np.random.default_rng(0), 3, 3, field, "gauss"), np.eye(3)):
                methods.add(op_norm(operator(M, p, q, field=field), budget=50, seed=0).method)
    assert methods == set(NORM_PATHS)


# q < 1, p > q, and the exact paths of op_norm, (2, 1) and (inf, 2) among them
WIDTH_PAIRS = [(2.0, 0.5), (1.0, 0.5), (0.7, 0.3), (3.0, 1.5), (4.0, 4.0 / 3.0), (2.0, 1.0),
               (INF, 2.0), (0.5, 2.0), (1.0, 1.0), (2.0, INF), (2.0, 2.0), (2.0, 3.0)]


def _id_norm(k, r, s):
    """||id: l_r^k -> l_s^k|| = k^max(0, 1/s - 1/r), on either field."""
    return float(k) ** max(0.0, inv_exponent(s) - inv_exponent(r))


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from([REAL, COMPLEX]), kind=st.sampled_from(["gauss", "rank-one"]),
       pq=st.sampled_from(WIDTH_PAIRS), m=st.integers(1, 6), n=st.integers(1, 6),
       seed=st.integers(0, 2**16))
@example(field=REAL, kind="gauss", pq=(2.0, 1.0), m=5, n=5, seed=1)
@example(field=COMPLEX, kind="gauss", pq=(INF, 2.0), m=4, n=6, seed=2)
@example(field=REAL, kind="gauss", pq=(0.5, 2.0), m=6, n=6, seed=3)
@example(field=COMPLEX, kind="gauss", pq=(2.0, 2.0), m=3, n=5, seed=4)
def test_width_brackets_respect_the_sandwich_through_l2(field, kind, pq, m, n, seed):
    # T: l_p^n -> l_q^m is id(2, p) T id(q, 2) away from T: l_2 -> l_2, so
    # the ideal property and a_k >= d_k give
    # sigma_k / (I_n(2, p) I_m(q, 2)) <= d_k <= a_k <= I_m(2, q) sigma_k I_n(p, 2),
    # which every upper and lower side must respect, up to 1e-12 relative;
    # an svd side is sigma_k itself.  Past the numerical rank LAPACK's sigma_k
    # is rounding noise of about eps sigma_1, but the rank search's margin for
    # the rounding of its residual keeps its upper above it
    p, q = pq
    M = _matrix(np.random.default_rng(seed), m, n, field, kind)
    T = operator(M, p, q, field=field)
    k_hi = min(m, n) + 1
    s = np.zeros(k_hi)
    s[:min(m, n)] = singular_values(T)
    for k, pair in enumerate(width_brackets(T, 1, k_hi, 400, seed), 1):
        sigma = float(s[k - 1])
        low = sigma / (_id_norm(n, 2.0, p) * _id_norm(m, q, 2.0))
        high = _id_norm(m, 2.0, q) * sigma * _id_norm(n, p, 2.0)
        for b in pair:
            assert b.upper >= low * (1.0 - 1e-12)
            assert b.lower is None or b.lower <= high * (1.0 + 1e-12)
            if b.method == "svd":
                assert (b.lower_kind, b.upper_kind) == (EXACT, EXACT)
                assert b.upper == pytest.approx(sigma, rel=1e-12)
            else:
                assert b.upper_kind == CERTIFIED or (k == 1 and b.exact)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([1.0, INF]), m=st.integers(2, 5), n=st.integers(2, 5),
       k=st.integers(2, 5), seed=st.integers(0, 2**16))
# both fell below the exact norm when the exact residual paths took no margin
@example(q=1.0, m=3, n=3, k=2, seed=0)
@example(q=INF, m=3, n=3, k=2, seed=1)
def test_rank_search_is_an_upper_of_the_exact_norm_of_its_residual(q, m, n, k, seed):
    # real l_1 -> l_1 and l_1 -> l_inf: the residual's norm is exact on the
    # float residual fl(T - fl(A B)), and the search's value must also bound
    # the norm of T - A B for its factors in rational arithmetic
    M = np.random.default_rng(seed).standard_normal((m, n))
    v, factors = _approx_search(operator(M, 1.0, q), k, 200, seed)
    if factors is None:  # past full rank: a rank-(k-1) operator is T itself
        assert v == 0.0 and k > min(m, n)
        return
    assert Fraction(v) >= oracles.residual_norm_from_l1_exact(M, *factors, q)
