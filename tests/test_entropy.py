"""Entropy numbers: certified lower bounds, covering uppers, regime formula."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snumbers.entropy import (
    METHOD_HAMMING,
    METHOD_PACKING,
    METHOD_VOLUMETRIC,
    REGIME_LARGE,
    REGIME_MID,
    REGIME_SMALL,
    BoundPair,
    best_certified_lower,
    entropy_brackets,
    entropy_lower_pack_sequence,
    entropy_lower_volumetric,
    entropy_upper_cover_sequence,
    hamming_pack_lower,
    image_cloud,
    max_nn_gap,
    padded_upper,
    rank_decay_bounds,
    regime_envelope,
    regime_piece,
)
from snumbers import entropy as entropy_mod
from snumbers.entropy import (
    _cover_traversal,
    _doubling_cover,
    _dist_cols,
    _packing_traversal,
    _slab,
)
from snumbers.operators import (
    CERTIFIED,
    ESTIMATE,
    SHAPE,
    _norm_rows,
    diagonal_operator,
    identity_operator,
    operator,
)
from snumbers.spaces import COMPLEX, REAL

INF = math.inf


def test_bound_pair_validation():
    with pytest.raises(ValueError):
        BoundPair(k=0, lower=0.0, upper=1.0, method_lower="x", delta=0.0)


def test_padded_upper_convention():
    b = BoundPair(k=1, lower=0.1, upper=1.0, method_lower="x", delta=0.2)
    assert padded_upper(b, 2.0) == pytest.approx(1.2)
    # quasi-norm triangle: radii add in the qbar-power metric
    assert padded_upper(b, 0.5) == pytest.approx((1.0**0.5 + 0.2**0.5) ** 2.0)


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


def test_volumetric_lower_anchor():
    # id: l_1^2 -> l_inf^2 at k = 3: (vol B_1 / (2^2 vol B_inf))^(1/2)
    v = entropy_lower_volumetric(1.0, INF, 2, 3)
    assert v == pytest.approx((2.0 / 16.0) ** 0.5)
    assert v == pytest.approx(0.3535533905932738)


def test_volumetric_lower_decreasing_in_k():
    vals = [entropy_lower_volumetric(1.0, 2.0, 4, k) for k in range(1, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_hamming_lower_values():
    assert hamming_pack_lower(1.0, INF, 8, 1) == pytest.approx(0.25)
    assert hamming_pack_lower(0.5, INF, 8, 1) == pytest.approx(0.125)
    # no admissible separation count at k = 2 with n = 8
    assert hamming_pack_lower(1.0, INF, 8, 2) == 0.0


def test_hamming_small_n_warns():
    with pytest.warns(UserWarning):
        assert hamming_pack_lower(1.0, 2.0, 3, 1) == 0.0


def test_hamming_requires_p_le_q():
    with pytest.raises(ValueError):
        hamming_pack_lower(2.0, 1.0, 8, 1)


def test_packing_lower_sign_vectors():
    # on the l_1 -> l_inf identity in the plane the four signed unit vectors
    # are pairwise sup-distance >= 1 apart, so three points certify
    # e_2 >= 1/2
    T = identity_operator(2, 1.0, INF)
    b = entropy_lower_pack_sequence(T, 2, budget=64, seed=0)[-1]
    assert b.lower == pytest.approx(0.5)
    assert b.method_lower == "packing"
    # the volume bound is 1/2 too (up to rounding); the bracket takes the meet
    bracket = entropy_brackets(T, 2, 64, 0)[1]
    assert bracket.lower == best_certified_lower(T, 2, budget=64, seed=0).lower
    assert bracket.lower == pytest.approx(0.5)
    assert bracket.lower_kind == CERTIFIED


def test_packing_sequence_monotone():
    T = identity_operator(3, 1.0, 2.0)
    seq = entropy_lower_pack_sequence(T, 5, budget=300, seed=1)
    lows = [b.lower for b in seq]
    assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))


def test_best_certified_lower_reports_method():
    T = identity_operator(2, 1.0, INF)
    b = best_certified_lower(T, 2, budget=256, seed=0)
    assert b.lower == pytest.approx(0.5)
    assert b.method_lower in ("packing", "volumetric")


# ---------------------------------------------------------------------------
# covering uppers
# ---------------------------------------------------------------------------


def test_cover_sequence_monotone_and_flags():
    T = identity_operator(2, 1.0, INF)
    seq = entropy_upper_cover_sequence(T, 4, cloud=600, seed=0)
    ups = [b.upper for b in seq]
    assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))
    assert all(b.delta == seq[0].delta for b in seq)  # one cloud, one gap
    brackets = entropy_brackets(T, 4, 600, 0)
    assert [b.upper for b in brackets] == [padded_upper(c, INF) for c in seq]
    assert all(b.upper_kind == ESTIMATE for b in brackets)
    assert all(b.method == "pack/cover" for b in brackets)


def test_brackets_past_the_cloud_keep_the_packing_lower_and_the_last_cover_upper():
    # a cloud of 100 points holds 2^(k-1) centres up to k = 7: past it each
    # bracket keeps its own packing lower and e_7's padded upper
    T = operator(np.random.default_rng(4).standard_normal((3, 3)), 3.0, 1.5)
    brackets = entropy_brackets(T, 10, 100, 0)
    assert len(brackets) == 10
    assert brackets[:7] == entropy_brackets(T, 7, 100, 0)
    # the packing takes the whole 100-point cloud; T is no identity, so it
    # alone gives the lower
    packs = entropy_lower_pack_sequence(T, 10, budget=100, seed=0)
    assert [b.lower for b in brackets] == [b.lower for b in packs]
    assert [b.lower for b in brackets[7:]] == [0.0] * 3  # 2^(k-1) + 1 > 100 points
    assert all(b.upper == brackets[6].upper for b in brackets[7:])
    assert all((b.lower_kind, b.upper_kind, b.method) == (CERTIFIED, ESTIMATE, "pack/cover")
               for b in brackets)


@pytest.mark.parametrize("n, cloud", [(3, 128), (4, 256), (16, 1024)])
@pytest.mark.parametrize("kind", ["identity", "gauss"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p, q", [(1.0, 2.0), (2.0, 2.0), (1.0, INF), (0.5, 1.0)])
def test_bracket_lowers_are_the_best_certified_lowers(p, q, field, kind, n, cloud):
    # one rule for the lower of e_k: the bracket's is best_certified_lower's
    # on the packing of min(cloud, 512) points, volume and Hamming bounds
    # included for identities
    rng = np.random.default_rng([n, cloud])
    M = np.eye(n) if kind == "identity" else rng.standard_normal((n, n))
    if field == COMPLEX and kind == "gauss":
        M = M + 1j * rng.standard_normal((n, n))
    K = int(math.log2(cloud)) + 1
    brackets = entropy_brackets(operator(M, p, q, field=field), K, cloud, 5)
    T = operator(M, p, q, field=field)
    assert [b.lower for b in brackets] == [
        best_certified_lower(T, k, budget=min(cloud, 512), seed=5).lower for k in range(1, K + 1)]


def test_cover_requires_enough_cloud():
    T = identity_operator(2, 1.0, 2.0)
    with pytest.raises(ValueError):
        entropy_upper_cover_sequence(T, 12, cloud=100, seed=0)


def test_cover_zero_operator():
    T = operator(np.zeros((2, 2)), 1.0, 2.0)
    seq = entropy_upper_cover_sequence(T, 3, cloud=64, seed=0)
    assert all(b.upper == 0.0 for b in seq)
    assert seq == [BoundPair(k=k, upper=0.0, delta=0.0) for k in (1, 2, 3)]


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_overflowing_cloud_distances_raise_in_cover_and_packing(q):
    # the images of the l_inf ball under diag(1.5e308) are finite, but some
    # of their l_q distances are not: a radius or gap of inf would be a
    # false certified lower
    T = operator(np.diag([1.5e308, 1.5e308]), INF, q)
    with pytest.raises(ValueError, match="overflow"):
        entropy_upper_cover_sequence(T, 3, cloud=64, seed=0)
    with pytest.raises(ValueError, match="overflow"):
        entropy_lower_pack_sequence(T, 3, budget=64, seed=0)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, INF])
def test_clouds_whose_distance_powers_overflow_are_scaled(q):
    # the l_q distances of a 1e300 matrix's images are finite, but their
    # squares and cubes are not: the cloud is divided by a power of two, and
    # the radii and gaps are those of the cloud of M / 2^1000, times 2^1000
    M = np.full((2, 2), 1e300)
    big, small = operator(M, 2.0, q), operator(M * 2.0**-1000, 2.0, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        covers = entropy_upper_cover_sequence(big, 3, cloud=64, seed=0)
        packs = entropy_lower_pack_sequence(big, 3, budget=64, seed=0)
    for a, b in zip(covers, entropy_upper_cover_sequence(small, 3, cloud=64, seed=0)):
        assert a.upper == pytest.approx(b.upper * 2.0**1000, rel=1e-12)
        assert a.delta == pytest.approx(b.delta * 2.0**1000, rel=1e-12)
    for a, b in zip(packs, entropy_lower_pack_sequence(small, 3, budget=64, seed=0)):
        assert a.lower == pytest.approx(b.lower * 2.0**1000, rel=1e-12)
    assert all(math.isfinite(b.upper) and b.upper > 1e300 for b in covers[:1])


@pytest.mark.parametrize("s", [600, 1000])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 40.0, INF])
def test_tiny_clouds_give_the_brackets_of_the_cloud_scaled_down(s, q):
    # the entropy numbers of 2^-s M are those of M times 2^-s; at q = 2 and
    # q = 40 the q-th powers of the tiny cloud's gaps underflow to 0 unless
    # the cloud is multiplied up by a power of two first
    M = np.random.default_rng(5).standard_normal((3, 3))
    ref = entropy_brackets(operator(M, 2.0, q), 4, 256, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = entropy_brackets(operator(M * 2.0**-s, 2.0, q), 4, 256, 0)
    for a, b in zip(tiny, ref):
        assert a.lower == pytest.approx(b.lower * 2.0**-s, rel=1e-12, abs=0.0)
        assert a.upper == pytest.approx(b.upper * 2.0**-s, rel=1e-12, abs=0.0)


def test_lower_never_exceeds_padded_upper():
    # bracket consistency on a mixed bag of small identities
    for (p, q) in ((0.5, 1.0), (1.0, 2.0), (2.0, INF)):
        for n in (2, 3):
            T = identity_operator(n, p, q)
            ups = entropy_upper_cover_sequence(T, 5, cloud=400, seed=3)
            lows = entropy_lower_pack_sequence(T, 5, budget=300, seed=3)
            for lo, up in zip(lows, ups):
                assert lo.lower <= padded_upper(up, q) + 1e-9


def test_image_cloud_deterministic_and_in_image():
    T = diagonal_operator([2.0, 1.0])
    a = image_cloud(T, 128, seed=5)
    b = image_cloud(T, 128, seed=5)
    assert np.array_equal(a, b)
    # preimages live in the unit ball, so images obey the ellipse bound
    assert np.all((a[:, 0] / 2.0) ** 2 + a[:, 1] ** 2 <= 1.0 + 1e-9)


def test_image_cloud_seeds_2_to_the_32_apart_differ():
    # the seed is used whole, not wrapped to 32 bits
    T = diagonal_operator([2.0, 1.0])
    assert not np.array_equal(image_cloud(T, 128, seed=0), image_cloud(T, 128, seed=2**32))


def test_max_nn_gap_line():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert max_nn_gap(pts, 2.0) == pytest.approx(2.0)


def test_max_nn_gap_slab_covers_distances_rounded_below_the_key_gap():
    # (1.5^q)^(1/q) rounds to 1.4999999999999998 at q = 0.5, and 3 to
    # 2.9999999999999996 at q = 3, below the key gap that bounds the slab;
    # the point at key 0 starts the traversal, its nearest neighbour lies
    # exactly that key gap away, and the gap is its rounded distance once
    # one insertion has brought the covering radius below it
    for gap, q in ((1.5, 0.5), (3.0, 3.0), (0.7, 0.3)):
        for shift in (0.0, 1e7):
            pts = np.array([[shift, 1.0], [shift + gap, 1.0], [shift + gap, 1.0 + gap / 100]])
            assert max_nn_gap(pts, q) == _reference_nn_gap(pts, q) < gap


def test_max_nn_gap_rejects_non_finite_points():
    for bad in (np.inf, np.nan, complex(0.0, np.inf)):
        pts = np.zeros((3, 2), dtype=type(bad))
        pts[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            max_nn_gap(pts, 2.0)


@pytest.mark.parametrize("s", [-1000, -660, 660, 1000])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, INF])
def test_max_nn_gap_of_a_scaled_cloud_is_the_gap_scaled(s, field, q):
    # a cloud times 2^s has its gap times 2^s; at q >= 2 the q-th powers of
    # its distances overflow (s > 0) or underflow (s < 0) unless the cloud is
    # scaled by a power of two first, as the cover's cloud is
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    if field == COMPLEX:
        X = X + 1j * rng.standard_normal((50, 3))
    gap = max_nn_gap(X * 2.0**s, q)
    expected = _reference_nn_gap(X, q) * 2.0**s
    if q == 3.0:
        assert gap == pytest.approx(expected, rel=1e-13, abs=0.0)
    else:
        assert gap == expected


def test_max_nn_gap_past_the_float_range_raises():
    for q in (0.5, 2.0, INF):
        with pytest.raises(ValueError, match="overflow"):
            max_nn_gap(np.array([[-1.5e308], [1.5e308]]), q)


# ---------------------------------------------------------------------------
# fast kernels against the brute-force and row-major references
# ---------------------------------------------------------------------------

GAP_QS = [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, INF]


def _reference_nn_distances(points, q):
    """Chunked all-pairs distance from each point to its nearest other point,
    the brute-force definition."""
    chunk = 128
    N = points.shape[0]
    out = np.empty(N)
    for start in range(0, N, chunk):
        block = points[start : start + chunk]
        if math.isinf(q):
            D = np.abs(block[:, None, :] - points[None, :, :]).max(axis=2)
        else:
            D = (np.abs(block[:, None, :] - points[None, :, :]) ** q).sum(axis=2) ** (1.0 / q)
        for i in range(block.shape[0]):
            D[i, start + i] = np.inf
        out[start : start + chunk] = D.min(axis=1)
    return out


def _reference_nn_gap(points, q):
    """The brute-force max nearest-neighbour gap."""
    return float(_reference_nn_distances(points, q).max()) if points.shape[0] >= 2 else 0.0


def _reference_start(points, q, subsample=256):
    """The greedy cover's first centre, by row-major distances."""
    N = points.shape[0]
    cand_idx = np.linspace(0, N - 1, min(N, subsample)).astype(int)
    worst = [_norm_rows(points - points[ci], q).max() for ci in cand_idx]
    return int(cand_idx[int(np.argmin(worst))])


def _cover_radii(points, n_centers, q):
    """The cover traversal's radii with 1 .. n_centers centres; past the
    traversal's end (every point a centre or a duplicate of one) they are 0."""
    gaps = _cover_traversal(points, n_centers, q).gaps
    return np.array(gaps + [0.0] * (n_centers - len(gaps)))


def _reference_cover_radii(points, n_centers, q, subsample=256):
    """Farthest-point k-center with row-major distances (_norm_rows)."""
    d = _norm_rows(points - points[_reference_start(points, q, subsample)], q)
    radii = [float(d.max())]
    for _ in range(1, n_centers):
        j = int(np.argmax(d))
        d = np.minimum(d, _norm_rows(points - points[j], q))
        radii.append(float(d.max()))
    return np.array(radii)


def _offset(rng, n):
    """A shift of 1e6 to 1e8 per coordinate, either sign."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(6, 8, n)


def _cloud(seed, N, n, field, kind):
    """Test clouds: Gaussian, scattered magnitudes, half-integer grids, duplicates,
    and Gaussians far from the origin (gaps of order 1 at |coordinate| ~ 1e6-1e8)."""
    rng = np.random.default_rng(seed)
    if kind == "offset":
        X = rng.standard_normal((N, n)) + _offset(rng, n)
    elif kind == "grid":
        X = rng.integers(-3, 4, (N, n)) * 0.5  # many exact ties
    elif kind == "duplicates":
        X = rng.standard_normal((max(1, N // 3), n))
        X = X[rng.integers(0, X.shape[0], N)]
    elif kind == "scales":
        X = rng.standard_normal((N, n)) * 10.0 ** rng.integers(-6, 7, (N, 1))
    else:
        X = rng.standard_normal((N, n))
    if field == COMPLEX:
        Y = rng.integers(-2, 3, X.shape) * 0.5 if kind == "grid" else rng.standard_normal(X.shape)
        if kind == "offset":
            Y = Y + _offset(rng, n)
        X = X + 1j * (Y if kind != "duplicates" else Y[0])
    return X


cloud_args = dict(
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(1, 300),
    n=st.integers(1, 6),
    field=st.sampled_from([REAL, COMPLEX]),
    kind=st.sampled_from(["gauss", "grid", "duplicates", "scales", "offset"]),
    q=st.sampled_from(GAP_QS),
)


@settings(max_examples=150, deadline=None)
@given(**cloud_args)
def test_max_nn_gap_equals_brute_force(seed, N, n, field, kind, q):
    # no traversal given: the start's full pass, then insertions until the
    # centres' largest gap reaches the covering radius
    X = _cloud(seed, N, n, field, kind)
    assert max_nn_gap(X, q) == _reference_nn_gap(X, q)


def _assert_slabs_hold_their_points(X, q):
    """Every j whose computed distance from i is at most r lies in i's slab
    of radius r.  r = d(i, j) is the tightest radius for j, as slabs grow
    with r, so that radius is checked for every pair."""
    trav = entropy_mod._FarthestPoints(X, 0, q)
    keys, cols = trav.keys, trav.cols
    at = np.arange(len(keys))
    for i, key in enumerate(keys):
        d = _dist_cols(cols, cols[:, i], q)
        lo, hi = np.array([_slab(keys, key, r, trav.widen, trav.slack) for r in d.tolist()]).T
        assert np.all((lo <= at) & (at < hi)), (i, q)


def _star(rng, n, field, arms=6):
    """Points c + t e_k (times a phase over C) around a centre c with
    |coordinates| 1e6 to 1e8.  Two points on one arm are |t - t'| apart at
    every q, and over the reals each coordinate of the key direction is +-1
    or 0, so the key gap of such a pair is its distance, up to the key's
    rounding."""
    c = _offset(rng, n)
    if field == COMPLEX:
        c = c + 1j * _offset(rng, n)
    points = [c]
    for k in range(n):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if field == COMPLEX else 1.0
        for t in rng.standard_normal(arms):
            x = c.copy()
            x[k] += t * phase
            points.append(x)
    return np.array(points)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 60), n=st.integers(1, 6),
       field=st.sampled_from([REAL, COMPLEX]),
       kind=st.sampled_from(["offset", "star", "gauss", "grid", "scales"]),
       q=st.sampled_from([0.5, 1.0]))
def test_projected_key_slabs_hold_every_point_within_their_radius(seed, N, n, field, kind, q):
    # at q <= 1 the key is a rounded projection; far from the origin
    # (|coordinate| 1e6 to 1e8) its rounding is largest against the gaps
    if kind == "star":
        X = _star(np.random.default_rng(seed), n, field)
    else:
        X = _cloud(seed, N, n, field, kind)
    _assert_slabs_hold_their_points(X, q)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0])
def test_projected_key_slabs_hold_points_whose_key_rounds_in_a_cancellation(field, q):
    # a diagonal arm pins the key's signs to those of (w, w, w); the key of
    # c + t w e_1 sums terms of 1e8 + t, 1e8 and -2e8, whose partial sums
    # of order 2e8 round by up to 1.5e-8, while the key, the gaps and the
    # distances are of order 1 and a gap along one arm equals its distance
    rng = np.random.default_rng(7)
    w = (1 + 1j) / np.sqrt(2) if field == COMPLEX else 1.0
    c = np.array([1e8, 1e8, -2e8]) * (1 + 1j if field == COMPLEX else 1.0)
    diagonal = [c + s * w for s in 10.0 * rng.standard_normal(20)]
    arms = [c + t * w * e for e in np.eye(3) for t in rng.standard_normal(8)]
    _assert_slabs_hold_their_points(np.array(diagonal + arms), q)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_clouds_whose_projection_could_overflow_keep_the_coordinate_key(field):
    X = _cloud(3, 40, 3, field, "gauss") * 1e307
    widest = np.argmax(np.ptp(entropy_mod._real_coords(X), axis=0))
    for scale, projected in ((1e-300, True), (1.0, False)):
        trav = entropy_mod._FarthestPoints(X * scale, 0, 0.5)
        assert (trav.slack > 0.0) == projected
        if not projected:
            assert trav.keys == sorted(entropy_mod._real_coords(X)[:, widest].tolist())


IMAGE_QS = [0.5, 1.0, 2.0, INF]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", ["gauss", "identity"])
@pytest.mark.parametrize("q", IMAGE_QS)
def test_max_nn_gap_on_image_clouds_equals_brute_force(field, kind, q):
    # the cloud sizes and operator shapes of the entropy brackets
    case = 8 * [REAL, COMPLEX].index(field) + 4 * ["gauss", "identity"].index(kind)
    case += IMAGE_QS.index(q)
    rng = np.random.default_rng([case, 29])
    n = 4 if field == REAL else 3
    M = np.eye(n) if kind == "identity" else rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * (0.0 if kind == "identity" else rng.standard_normal((n, n)))
    T = operator(M, (0.5, 1.0, 2.0)[case % 3], q, field=field)
    X = image_cloud(T, (2048, 3072, 4096)[case % 3], seed=case)
    assert max_nn_gap(X, q) == _reference_nn_gap(X, q)


@settings(max_examples=60, deadline=None)
@given(**cloud_args)
def test_cover_radii_equal_row_major_reference(seed, N, n, field, kind, q):
    X = _cloud(seed, N, n, field, kind)
    centers = max(1, N // 2)
    assert np.array_equal(_cover_radii(X, centers, q), _reference_cover_radii(X, centers, q))


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 15, 16, 17, 64, 129, 130, 300])
def test_dist_cols_matches_norm_rows_bitwise(n):
    # n >= 8 exercises the pairwise-summation order of a row sum
    for field in (REAL, COMPLEX):
        X = _cloud(n, 200, n, field, "scales")
        c = X[17]
        for q in GAP_QS:
            assert np.array_equal(_dist_cols(np.ascontiguousarray(X.T), c, q),
                                  _norm_rows(X - c[None, :], q))
            assert max_nn_gap(X[:60], q) == _reference_nn_gap(X[:60], q)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
def test_packing_sequence_is_prefix_of_longer_one(field, q):
    M = np.random.default_rng(3).standard_normal((3, 3))
    if field == COMPLEX:
        M = M + 1j * np.eye(3)
    T = operator(M, 1.0, q, field=field)
    K = 10
    full = entropy_lower_pack_sequence(T, K, budget=400, seed=2)
    for k in range(1, K):
        assert entropy_lower_pack_sequence(T, k, budget=400, seed=2) == full[:k]


def _reference_pack_sequence(T, k_max, budget, seed):
    """The packing traversal run anew for one call, with no memo."""
    q = T.codomain.p
    pts = image_cloud(T, budget, seed)
    N = pts.shape[0]
    start = int(np.argmax(_norm_rows(pts, q)))
    d = _norm_rows(pts - pts[start], q)
    d[start] = -np.inf
    insert_dists = []
    for _ in range(min(N, 2 ** (k_max - 1) + 1) - 1):
        j = int(np.argmax(d))
        if not d[j] > 0.0:
            break
        insert_dists.append(float(d[j]))
        d = np.minimum(d, _norm_rows(pts - pts[j], q))
        d[j] = -np.inf
    denom = 2.0 ** (1.0 / (1.0 if math.isinf(q) else min(1.0, q)))
    out = []
    for k in range(1, k_max + 1):
        K = 2 ** (k - 1) + 1
        lower = min(insert_dists[: K - 1]) / denom if K - 1 <= len(insert_dists) else 0.0
        out.append(BoundPair(k=k, lower=lower, method_lower=METHOD_PACKING))
    return out


def _reference_best_lower(T, k, budget, seed):
    best, method = _reference_pack_sequence(T, k, budget, seed)[-1].lower, METHOD_PACKING
    if np.array_equal(T.matrix, np.eye(T.domain.n)):
        p, q, n = T.domain.p, T.codomain.p, T.domain.n
        vol = entropy_lower_volumetric(p, q, n, k, T.field)
        if vol > best:
            best, method = vol, METHOD_VOLUMETRIC
        if p <= q and n >= 4:
            ham = hamming_pack_lower(p, q, n, k)
            if ham > best:
                best, method = ham, METHOD_HAMMING
    return BoundPair(k=k, lower=best, method_lower=method)


@settings(max_examples=40, deadline=None)
@given(
    matrix_seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from([REAL, COMPLEX]),
    kind=st.sampled_from(["gauss", "identity"]),
    exponents=st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0]),
                                 st.sampled_from([0.5, 1.0, 2.0, INF])),
                       min_size=1, max_size=3),
    calls=st.lists(st.tuples(st.sampled_from(["sequence", "best"]),
                             st.integers(0, 2), st.integers(1, 9),
                             st.sampled_from([40, 130, 300]), st.sampled_from([0, 1, 7])),
                   min_size=1, max_size=12),
)
def test_memoised_packing_equals_a_fresh_traversal(matrix_seed, field, kind, exponents, calls):
    # calls in any order, on operators that share one matrix but differ in p
    # or q, read what a fresh traversal of their own cloud gives
    rng = np.random.default_rng(matrix_seed)
    n = 4 if field == REAL else 3
    M = np.eye(n) if kind == "identity" else rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * (0.0 if kind == "identity" else rng.standard_normal((n, n)))
    ops = [operator(M, p, q, field=field) for p, q in exponents]
    for what, which, k, budget, seed in calls:
        T = ops[which % len(ops)]
        if what == "sequence":
            got = entropy_lower_pack_sequence(T, k, budget=budget, seed=seed)
            assert got == _reference_pack_sequence(T, k, budget, seed)
        else:
            got = best_certified_lower(T, k, budget=budget, seed=seed)
            assert got == _reference_best_lower(T, k, budget, seed)


@pytest.mark.parametrize("sequence_first", [True, False])
def test_pack_sequence_and_per_k_lowers_build_one_cloud(monkeypatch, sequence_first):
    built = []
    real_cloud = entropy_mod.image_cloud
    monkeypatch.setattr(entropy_mod, "image_cloud",
                        lambda *args, **kwargs: built.append(args) or real_cloud(*args, **kwargs))
    T = operator(np.random.default_rng(5).standard_normal((4, 4)), 1.0, 2.0)
    K = 7
    ks = range(1, K + 1) if sequence_first else range(K, 0, -1)
    if sequence_first:
        entropy_lower_pack_sequence(T, K, budget=300, seed=3)
    bests = [best_certified_lower(T, k, budget=300, seed=3) for k in ks]
    if not sequence_first:
        entropy_lower_pack_sequence(T, K, budget=300, seed=3)
    assert len(built) == 1
    # the traversal went exactly as far as e_K reads: 2^(K-1) insertions
    assert len(_packing_traversal(T, 300, 3)[0].gaps) == 2 ** (K - 1)
    assert {b.k: b for b in bests} == {
        k: _reference_best_lower(T, k, 300, 3) for k in range(1, K + 1)}


# the entropy-brackets benchmark's task shapes: (p, q, field, matrix, cloud)
BENCH_SHAPES = [
    (1.0, 0.5, REAL, "gauss", 2048),
    (2.0, 1.0, COMPLEX, "identity", 3072),
    (1.0, 2.0, REAL, "identity", 4096),
    (1.0, INF, COMPLEX, "gauss", 3072),
    (1.0, 0.5, COMPLEX, "identity", 3072),
    (2.0, 1.0, REAL, "gauss", 2048),
    (1.0, 2.0, COMPLEX, "gauss", 3072),
    (1.0, INF, REAL, "identity", 4096),
]


def _bench_operator(case):
    p, q, field, kind, cloud = BENCH_SHAPES[case]
    rng = np.random.default_rng([case, 41])
    n = 4 if field == REAL else 3
    M = np.eye(n) if kind == "identity" else rng.standard_normal((n, n))
    if field == COMPLEX and kind == "gauss":
        M = M + 1j * rng.standard_normal((n, n))
    return operator(M, p, q, field=field), cloud


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("case", range(len(BENCH_SHAPES)))
def test_cover_radii_on_bench_clouds_equal_reference_bitwise(case):
    # as many centres as the benchmark's cover runs: half the cloud
    T, cloud = _bench_operator(case)
    X = image_cloud(T, cloud, seed=case)
    q = T.codomain.p
    assert _hex(_cover_traversal(X, cloud // 2, q).gaps) == _hex(
        _reference_cover_radii(X, cloud // 2, q))


def _reference_cover_distances(points, insertions, q):
    """Each point's row-major distance to the greedy cover's centres after
    ``insertions`` insertions, -inf at the centres."""
    start = _reference_start(points, q)
    d = _norm_rows(points - points[start], q)
    d[start] = -np.inf
    for _ in range(insertions):
        j = int(np.argmax(d))
        d = np.minimum(d, _norm_rows(points - points[j], q))
        d[j] = -np.inf
    return d


@pytest.mark.parametrize("case", range(len(BENCH_SHAPES)))
def test_cover_traversal_state_on_bench_clouds(case):
    # d, un-permuted, is the row-major traversal's bit for bit, and near[j]
    # of each centre j is j's nearest-neighbour distance bit for bit, which
    # max_nn_gap rests on: the slabs of the key decide which distances
    # reach d and near
    T, cloud = _bench_operator(case)
    X = image_cloud(T, cloud, seed=case)
    q = T.codomain.p
    trav = _cover_traversal(X, cloud // 2, q)
    assert len(trav.gaps) == cloud // 2
    d, near = np.empty(cloud), np.empty(cloud)
    d[trav.perm], near[trav.perm] = trav.d, trav.near
    assert _hex(d) == _hex(_reference_cover_distances(X, cloud // 2, q))
    centres = d == -np.inf
    assert _hex(near[centres]) == _hex(_reference_nn_distances(X, q)[centres])


@pytest.mark.parametrize("case", range(len(BENCH_SHAPES)))
def test_pack_sequence_on_bench_operators_equals_reference_bitwise(case):
    T, _ = _bench_operator(case)
    for k_max in (12, 13):
        got = entropy_lower_pack_sequence(T, k_max, budget=512, seed=case)
        want = _reference_pack_sequence(T, k_max, 512, case)
        assert _hex(b.lower for b in got) == _hex(b.lower for b in want)
    # e_10 reads 2^9 + 1 = 513 points, more than the 512 of the cloud
    assert len(_packing_traversal(T, 512, case)[0].gaps) == 256


def test_first_centre_ties_go_to_the_lowest_index(monkeypatch):
    # candidates 4, 5, 7 and 8 share the least max distance, 6 at q = 1;
    # 7 has the lowest extreme-point bound, so the search meets it first,
    # and the four starts do not all give the same radii
    X = np.array([[3, 1], [1, 2], [-2, -1], [-2, -3], [0, 1], [3, -2], [3, 2], [0, -1],
                  [1, 0]], dtype=float)
    worst = np.array([_norm_rows(X - x, 1.0).max() for x in X])
    assert np.flatnonzero(worst == worst.min()).tolist() == [4, 5, 7, 8]
    starts = []
    real = entropy_mod._FarthestPoints
    monkeypatch.setattr(entropy_mod, "_FarthestPoints",
                        lambda points, start, q: starts.append(start) or real(points, start, q))
    radii = _cover_radii(X, X.shape[0], 1.0)
    assert starts == [4]
    assert _hex(radii) == _hex(_reference_cover_radii(X, X.shape[0], 1.0))


@pytest.mark.parametrize("q", IMAGE_QS)
def test_packing_cloud_of_more_unit_vectors_than_budget(q):
    # real n = 4 at budget 4: the cloud is the 8 images of +-e_j; e_3 reads
    # 2^2 + 1 = 5 of them, the most that any e_k can, since e_4 reads 9
    T = operator(np.random.default_rng(6).standard_normal((4, 4)), 1.0, q)
    got = entropy_lower_pack_sequence(T, 6, budget=4, seed=0)
    want = _reference_pack_sequence(T, 6, 4, 0)
    assert _hex(b.lower for b in got) == _hex(b.lower for b in want)
    trav = _packing_traversal(T, 4, 0)[0]
    assert trav.cols.shape[1] == 8 and len(trav.gaps) == 4
    assert all(b.lower > 0.0 for b in got[:3]) and all(b.lower == 0.0 for b in got[3:])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log2_N=st.integers(0, 8),
    short=st.integers(0, 2),
    n=st.integers(1, 5),
    field=st.sampled_from([REAL, COMPLEX]),
    kind=st.sampled_from(["gauss", "grid", "duplicates", "scales", "offset"]),
    q=st.sampled_from(GAP_QS),
)
def test_cover_radii_doubling_equal_a_full_run(seed, log2_N, short, n, field, kind, q):
    # k_max = log2(N) + 1 is the zero-tail case (2^(k_max-1) = N centers);
    # shorter k_max run the traversal as it is
    X = _cloud(seed, 2**log2_N, n, field, kind)
    k_max = max(1, log2_N + 1 - short)
    full = _cover_radii(X, 2 ** (k_max - 1), q)
    expected = [float(full[2 ** (k - 1) - 1]) for k in range(1, k_max + 1)]
    got = _doubling_cover(X, k_max, q)[1]
    assert [float(r).hex() for r in got] == [r.hex() for r in expected]


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
def test_cover_sequence_on_a_cloud_of_exactly_2_to_k_max_minus_1_points(q):
    T = operator(np.random.default_rng(2).standard_normal((3, 3)), 1.0, q)
    k_max = 7
    seq = entropy_upper_cover_sequence(T, k_max, cloud=2 ** (k_max - 1), seed=4)
    full = _cover_radii(image_cloud(T, 2 ** (k_max - 1), seed=4), 2 ** (k_max - 1), q)
    assert [b.upper for b in seq] == [float(full[2 ** (k - 1) - 1]) for k in range(1, k_max + 1)]
    assert seq[-1].upper == 0.0


@settings(max_examples=150, deadline=None)
@given(**cloud_args, centres=st.sampled_from(["half", "all"]) | st.integers(1, 32))
def test_max_nn_gap_from_a_cover_traversal_equals_brute_force(seed, N, n, field, kind, q,
                                                                centres):
    # half or all of the cloud as centres: long traversals, whose centres
    # mostly settle the gap alone; 1-32 centres: short ones, which mostly
    # insert more centres until their largest gap reaches the covering radius
    X = _cloud(seed, N, n, field, kind)
    run = {"half": max(1, N // 2), "all": N}.get(centres, centres)
    trav = _cover_traversal(X, run, q)
    assert max_nn_gap(X, q, traversal=trav) == _reference_nn_gap(X, q)


@settings(max_examples=150, deadline=None)
@given(**cloud_args,
       centres=st.sampled_from([1, "half", "all", "gap"]) | st.integers(1, 32))
def test_cover_centres_carry_their_exact_nearest_neighbour_distance(seed, N, n, field, kind,
                                                                    q, centres):
    # at every taken position near is the brute-force nearest-neighbour
    # distance bit for bit: the slab a centre was taken with holds it;
    # "gap" is a one-centre cover after max_nn_gap, whose insertions take
    # centres past the cover's
    X = _cloud(seed, N, n, field, kind)
    run = {"half": max(1, N // 2), "all": N, "gap": 1}.get(centres, centres)
    trav = _cover_traversal(X, run, q)
    if centres == "gap":
        max_nn_gap(X, q, traversal=trav)
    taken = trav.d == -np.inf
    assert _hex(trav.near[taken]) == _hex(_reference_nn_distances(X, q)[trav.perm][taken])


@pytest.mark.parametrize("case", range(len(BENCH_SHAPES)))
def test_long_covers_skip_the_sorted_neighbours_and_short_ones_take_them(monkeypatch, case):
    # long covers settle the gap with their own centres; short ones insert more
    T, cloud = _bench_operator(case)
    q = T.codomain.p
    calls = []
    real_dist = entropy_mod._dist_cols
    monkeypatch.setattr(entropy_mod, "_dist_cols",
                        lambda *args: calls.append(1) or real_dist(*args))
    # the benchmark's cover, N/2 centres: its centres settle the gap, with no
    # distance computed and no centre inserted
    X = image_cloud(T, cloud, seed=case)
    trav = _doubling_cover(X, int(math.log2(cloud)) + 1, q)[0]
    inserted, calls[:] = len(trav.gaps), []
    assert max_nn_gap(X, q, traversal=trav) == _reference_nn_gap(X, q)
    assert calls == [] and len(trav.gaps) == inserted
    # snum estimate's cover at k <= 6 on its 2,500-point cloud, 32 centres:
    # the gap inserts centres until their largest gap reaches the radius
    X = image_cloud(T, 2500, seed=case)
    trav = _doubling_cover(X, 6, q)[0]
    assert len(trav.gaps) == 32
    assert max_nn_gap(X, q, traversal=trav) == _reference_nn_gap(X, q)
    assert len(trav.gaps) > 32
    assert trav.near[trav.d == -np.inf].max() >= trav.d.max()


# ---------------------------------------------------------------------------
# the three-regime envelope
# ---------------------------------------------------------------------------


def test_regime_envelope_anchor():
    env = regime_envelope(1.0, INF, 8, 4, field=COMPLEX)
    assert env.method == REGIME_MID
    assert env.lower == pytest.approx(math.log2(1 + 16 / 4) / 4)
    assert env.lower == pytest.approx(0.5804820237218405)
    assert (env.upper, env.lower_kind, env.upper_kind) == (env.lower, SHAPE, SHAPE)


def test_regime_labels_by_k():
    n = 8  # N = 16 over C: small below log2(16) = 4, large past 16
    assert regime_envelope(1.0, 2.0, n, 2, field=COMPLEX).method == REGIME_SMALL
    assert regime_envelope(1.0, 2.0, n, 4, field=COMPLEX).method == REGIME_MID
    assert regime_envelope(1.0, 2.0, n, 16, field=COMPLEX).method == REGIME_MID
    assert regime_envelope(1.0, 2.0, n, 17, field=COMPLEX).method == REGIME_LARGE
    assert regime_envelope(1.0, 2.0, n, 40, field=COMPLEX).method == REGIME_LARGE


def test_regime_requires_p_le_q():
    with pytest.raises(ValueError):
        regime_envelope(2.0, 1.0, 8, 3)


def test_regime_small_piece_is_one():
    assert regime_piece(REGIME_SMALL, 0.5, 2.0, 64, 3, field=REAL) == 1.0


def test_regime_boundary_ratio_exactly_two():
    # at k = N the mid and large pieces differ by the factor 2 for every
    # exponent pair: mid = N^-alpha, large = N^-alpha / 2
    for (p, q, field, n) in ((1.0, INF, COMPLEX, 8), (1.0, 2.0, REAL, 32), (2.0, 2.0, COMPLEX, 4)):
        N = 2 * n if field == COMPLEX else n
        mid = regime_piece(REGIME_MID, p, q, n, N, field=field)
        large = regime_piece(REGIME_LARGE, p, q, n, N, field=field)
        assert mid / large == pytest.approx(2.0, rel=1e-12)


def test_regime_p_equals_q_mid_is_one():
    env = regime_envelope(2.0, 2.0, 16, 10, field=COMPLEX)
    assert env.method == REGIME_MID
    assert env.lower == 1.0


# ---------------------------------------------------------------------------
# finite rank decay
# ---------------------------------------------------------------------------


def test_rank_decay_bounds():
    b = rank_decay_bounds(1, 3)
    assert (b.lower, b.upper) == (pytest.approx(0.25), pytest.approx(0.25))
    assert (b.lower_kind, b.upper_kind, b.method) == (SHAPE, SHAPE, "rank-decay")
    b_c = rank_decay_bounds(1, 3, field=COMPLEX)
    assert b_c.lower == pytest.approx(0.5)  # doubled volumetric dimension
    b2 = rank_decay_bounds(2, 5, norm=3.0)
    assert b2.lower == pytest.approx(2.0 ** (-2.0))
    assert b2.upper == pytest.approx(3.0 * 2.0 ** (-2.0))
    # the lower constant is at most ||T||, so a norm below 1 caps the lower shape
    b_small = rank_decay_bounds(2, 5, norm=0.5)
    assert (b_small.lower, b_small.upper) == (0.125, 0.125)
