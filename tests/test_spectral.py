"""Eigenvalue/singular-value inequalities, radius limits, entropy brackets."""

import math

import numpy as np
import pytest

from snumbers.entropy import entropy_upper_cover_sequence, padded_upper
from snumbers.operators import CERTIFIED, ESTIMATE, EXACT, Bracket, diagonal_operator, operator
from snumbers.spaces import COMPLEX
from snumbers.spectral import (
    EigenSeq,
    carl_check,
    eigen_sequence,
    hilbert_entropy_bracket,
    koenig_limit_check,
    spectral_radius,
    weyl_check,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def jordan():
    return operator(np.array([[1.0, 1.0], [0.0, 1.0]]), 2.0, 2.0)


# ---------------------------------------------------------------------------
# eigenvalue sequences
# ---------------------------------------------------------------------------


def test_eigen_sequence_sorted_moduli():
    T = operator(np.diag([1.0, -2.0, 3.0j]), 2.0, 2.0, field=COMPLEX)
    e = eigen_sequence(T)
    assert np.allclose(e.moduli, [3.0, 2.0, 1.0])
    assert not e.padded
    assert e.value(1) == pytest.approx(3.0)
    assert e.value(9) == 0.0


def test_eigen_sequence_nilpotent_padded():
    T = operator(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0, 2.0)
    e = eigen_sequence(T)
    assert np.allclose(e.moduli, [0.0, 0.0])
    assert e.padded


def test_eigen_seq_validation():
    with pytest.raises(ValueError):
        EigenSeq(moduli=np.array([1.0, 2.0]), padded=False)
    with pytest.raises(ValueError):
        EigenSeq(moduli=np.array([]), padded=False)
    for bad in ([math.nan, 1.0], [1.0, math.nan], [math.nan]):
        with pytest.raises(ValueError, match="NaN"):
            EigenSeq(moduli=np.array(bad), padded=False)


# ---------------------------------------------------------------------------
# products and p-sums against singular values
# ---------------------------------------------------------------------------


def test_weyl_jordan_block():
    rep = weyl_check(jordan())
    assert rep.ok
    first = next(e for e in rep.entries if e.name == "weyl-product")
    assert first.lhs == pytest.approx(1.0)  # |lambda_1| of the block
    assert first.rhs == pytest.approx(GOLDEN)  # sigma_1
    assert rep.extras["det"] == pytest.approx(1.0)


def test_weyl_complex_determinant():
    # determinant with a nontrivial phase: |det| = 1 must close the product
    # chain even though det itself is imaginary
    T = operator(np.diag([1.0j, 1.0]), 2.0, 2.0, field=COMPLEX)
    rep = weyl_check(T)
    assert rep.ok
    assert rep.extras["det"] == pytest.approx(1.0)


def test_weyl_random_sweep():
    rng = np.random.default_rng(12)
    for t in range(40):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        if t % 3 == 0:
            M = M + 1j * rng.standard_normal((n, n))
            T = operator(M, 2.0, 2.0, field=COMPLEX)
        else:
            T = operator(M, 2.0, 2.0)
        rep = weyl_check(T)
        assert rep.ok, rep.violations


def test_weyl_rejects_non_hilbert():
    with pytest.raises(ValueError):
        weyl_check(diagonal_operator([1.0], p=1.0, q=2.0))


def test_carl_scaled_disc():
    # diag(c, c): geometric means equal c, entropy numbers sit at or below c
    c = 0.7
    T = diagonal_operator([c, c])
    rep = carl_check(T, entropy_uppers=[c, c, c, c], k_max=4)
    assert rep.ok, rep.violations


def test_carl_with_cover_estimates():
    T = diagonal_operator([1.0, 1.0])
    seq = entropy_upper_cover_sequence(T, 4, cloud=600, seed=0)
    uppers = [padded_upper(b, 2.0) for b in seq]
    rep = carl_check(T, uppers, k_max=4)
    assert rep.ok, rep.violations


def test_carl_zero_operator():
    T = operator(np.zeros((2, 2)), 2.0, 2.0)
    rep = carl_check(T, entropy_uppers=[0.0, 0.0], k_max=2)
    assert rep.ok


def test_carl_input_validation():
    T = diagonal_operator([1.0, 1.0])
    with pytest.raises(ValueError):
        carl_check(T, entropy_uppers=[], k_max=1)
    with pytest.raises(ValueError):
        carl_check(T, entropy_uppers=[-0.1], k_max=1)


# ---------------------------------------------------------------------------
# the factor-14 bracket
# ---------------------------------------------------------------------------


def test_bracket_quantity_identity_pair():
    rep = hilbert_entropy_bracket(
        diagonal_operator([1.0, 1.0]), 1, Bracket(0.9, 1.0, CERTIFIED, CERTIFIED, "norm")
    )
    assert rep.extras["G"] == pytest.approx(2.0 ** -0.5)
    assert rep.ok


def test_bracket_quantity_diag_4_1():
    rep = hilbert_entropy_bracket(
        diagonal_operator([4.0, 1.0]), 2, Bracket(1.0, 4.0, CERTIFIED, CERTIFIED, "volumetric")
    )
    assert rep.extras["G"] == pytest.approx(1.0)
    assert rep.ok


def test_bracket_rank_zero():
    rep = hilbert_entropy_bracket(
        operator(np.zeros((2, 2)), 2.0, 2.0), 1, Bracket(0.0, 0.0, CERTIFIED, CERTIFIED, "trivial")
    )
    assert rep.extras["G"] == 0.0
    assert rep.ok


def test_bracket_rejects_uncertified_lower():
    b = Bracket(0.5, 1.0, ESTIMATE, CERTIFIED, "guess")
    with pytest.raises(ValueError):
        hilbert_entropy_bracket(diagonal_operator([1.0]), 1, b)
    # an exact lower is accepted; a bracket without an upper is refused
    assert hilbert_entropy_bracket(diagonal_operator([1.0]), 1,
                                   Bracket.point(0.5, EXACT, "exact")).ok
    with pytest.raises(ValueError, match="upper side"):
        hilbert_entropy_bracket(diagonal_operator([1.0]), 1,
                                Bracket(0.5, None, CERTIFIED, None, "lower only"))


def test_bracket_flags_inflated_lower():
    # a claimed lower above 14 G must come back as a violation, not a raise
    b = Bracket(100.0, 200.0, CERTIFIED, ESTIMATE, "bogus")
    rep = hilbert_entropy_bracket(diagonal_operator([1.0, 1.0]), 1, b)
    assert not rep.ok
    assert rep.violations[0].name == "bracket-lower"


# ---------------------------------------------------------------------------
# power limits
# ---------------------------------------------------------------------------


def test_radius_normal_matrix_exact_at_every_power():
    T = diagonal_operator([3.0, 2.0, 1.0])
    for m in (1, 2, 5, 16):
        assert spectral_radius(T, max_power=m) == pytest.approx(3.0)


def test_radius_nilpotent_hits_zero():
    T = operator(np.array([[0.0, 5.0], [0.0, 0.0]]), 2.0, 2.0)
    assert spectral_radius(T, max_power=1) == pytest.approx(5.0)
    assert spectral_radius(T, max_power=2) == 0.0


def test_radius_jordan_block_converges_from_above():
    # ||J^m|| = largest root of the power's Gram matrix; at m = 64 the
    # analytic value of sigma_1(J^64)^(1/64) is known in closed form
    T = jordan()
    v, schedule = spectral_radius(T, max_power=64, return_schedule=True)
    t = 4098.0  # trace of (J^64)* (J^64)  =  2 + 64^2
    exact = ((t + math.sqrt(t * t - 4.0)) / 2.0) ** (1.0 / 128.0)
    assert v == pytest.approx(exact, rel=1e-12)
    assert v == pytest.approx(1.0671444700121813)
    ests = [e for (_, e) in schedule]
    assert all(a >= b - 1e-12 for a, b in zip(ests, ests[1:]))  # monotone down
    assert all(e >= 1.0 for e in ests)  # never below the true radius


def test_radius_non_power_of_two_schedule():
    v, schedule = spectral_radius(jordan(), max_power=5, return_schedule=True)
    assert schedule[-1][0] == 5
    M5 = np.linalg.matrix_power(jordan().matrix, 5)
    assert v == pytest.approx(float(np.linalg.norm(M5, 2)) ** (1.0 / 5.0))


# ---------------------------------------------------------------------------
# singular values of powers vs individual eigenvalues
# ---------------------------------------------------------------------------


def test_koenig_diagonal_exact_at_every_k():
    T = diagonal_operator([3.0, 2.0, 1.0])
    for index in (1, 2, 3):
        rep = koenig_limit_check(T, index, k_schedule=(1, 2, 4))
        assert rep.extras["rel_error"] <= 1e-12
        assert rep.ok


def test_koenig_nonnormal_converges():
    T = operator(np.array([[2.0, 1.0], [0.0, 1.0]]), 2.0, 2.0)
    for index, target in ((1, 2.0), (2, 1.0)):
        rep = koenig_limit_check(T, index, k_schedule=(1, 4, 16, 64))
        assert rep.extras["target"] == pytest.approx(target)
        assert rep.extras["rel_error"] <= 0.02
        assert rep.ok
        for K in rep.extras["fitted_K"].values():
            assert math.isfinite(K)
            assert K <= 1.0 + 1e-9  # p-sums are dominated on Hilbert space


def test_koenig_estimates_monotone_in_k_for_top_index():
    # sigma_1(T^k)^(1/k) = ||T^k||^(1/k) is submultiplicative along doublings
    rep = koenig_limit_check(jordan(), 1, k_schedule=(1, 2, 4, 8, 16))
    ests = [e for (_, e) in rep.extras["estimates"]]
    assert all(a >= b - 1e-12 for a, b in zip(ests, ests[1:]))
