"""Label truth: every op_norm bracket contains an independent reference."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snumbers.operators import CERTIFIED, op_norm, operator
from snumbers.spaces import COMPLEX, REAL

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
