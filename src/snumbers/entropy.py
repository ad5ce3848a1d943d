"""Entropy numbers: certified lower bounds, covering upper estimates, envelopes.

The k-th (dyadic) entropy number of T: X -> Y is the infimum of the radii
eps such that T(B_X) is covered by 2^(k-1) closed eps-balls of Y.  Exact
values are out of reach beyond toy cases, so this module provides

* a greedy covering estimate of the upper side, certified only relative to
  a sampled point cloud of the image (reported together with the cloud's
  max nearest-neighbour gap delta),
* certified lower bounds: farthest-point packings of certified image
  points, the volume comparison bound, and a combinatorial packing of
  scaled sign vectors separated in Hamming distance,
* ``entropy_brackets``, the one place that joins best certified lowers and
  padded cover uppers into a ``Bracket`` per k and decides their kinds,
* the closed-form three-regime envelope for the identity l_p -> l_q
  (p <= q) with its regime boundaries at k = log2(2n) and k = 2n in the
  complex convention (n replaces 2n over the reals), and
* the two-sided 2^(-(k-1)/m) decay shape for operators of rank m.

All randomness is driven by explicit integer seeds.
"""

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .operators import (
    CERTIFIED,
    ESTIMATE,
    SHAPE,
    Bracket,
    _unit_directions,
    is_identity,
)
from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
    _check_exponent,
    _norm_rows,
    inv_exponent,
    log_ball_volume,
    sample_ball,
    sample_sphere,
)

METHOD_PACKING = "packing"
METHOD_VOLUMETRIC = "volumetric"
METHOD_HAMMING = "hamming"

REGIME_SMALL = "small-k"
REGIME_MID = "mid-k"
REGIME_LARGE = "large-k"


@dataclass(frozen=True)
class BoundPair:
    """One estimator's record for a single entropy number e_k.

    A packing or best lower carries ``lower`` and its ``method_lower``; a
    greedy cover carries ``upper`` and its cloud's max nearest-neighbour gap
    ``delta``, its discretization margin.  The record says nothing about how
    sure a side is: ``entropy_brackets`` decides the kinds.
    """

    k: int
    lower: float | None = None
    upper: float | None = None
    method_lower: str | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def padded_upper(pair, q):
    """Covering value padded by the cloud gap: the honest upper estimate.

    In a quasi-normed target the radii do not add linearly, so for q < 1 the
    combination is (r^qbar + delta^qbar)^(1/qbar) with qbar = min(1, q).
    """
    if pair.upper is None:
        return None
    qbar = min(1.0, q)
    if qbar == 1.0:
        return pair.upper + pair.delta
    return (pair.upper**qbar + pair.delta**qbar) ** (1.0 / qbar)


# ---------------------------------------------------------------------------
# point clouds and metric helpers
# ---------------------------------------------------------------------------


def _dist_cols(cols, c, q):
    """Distances from the points with coordinate columns ``cols`` to ``c``.

    ``cols`` is the (n, N) transpose of the point array and ``c`` is one
    point (n entries).  The elementwise operations are those of
    ``_norm_rows(points - c, q)`` in the same order, so the result is
    bit-identical, but they run over n contiguous length-N columns instead
    of N short rows, in place.

    Only the moduli depend on the field.  A real cloud takes one broadcast
    difference and its modulus (none at q = 2, since (-x)^2 = x^2 exactly);
    a complex cloud takes them one coordinate at a time, which measured
    faster on large slabs.  Then both take one in-place q-th power, one
    row sum and one root.  Below 8 rows the sum is ``a.sum(axis=0)``, which
    adds the rows of the C-contiguous array left to right, as ``_norm_rows``
    does; from 8 rows on it is numpy's pairwise sum along each point.
    """
    if cols.dtype.kind == "c":
        a = np.empty(cols.shape)
        for j in range(a.shape[0]):
            np.abs(cols[j] - c[j], out=a[j])
    else:
        a = cols - c[:, None]
        if q != 2.0:
            np.abs(a, out=a)
    if math.isinf(q):
        return a.max(axis=0)
    if q == 2.0:
        a *= a
    elif q != 1.0:
        a **= q
    total = np.ascontiguousarray(a.T).sum(axis=1) if a.shape[0] >= 8 else a.sum(axis=0)
    if q == 2.0:
        return np.sqrt(total, out=total)
    if q != 1.0:
        total **= 1.0 / q
    return total


def _cloud_scale(points, q):
    """1.0, or a power of two s such that ``_dist_cols`` on points / s neither
    overflows nor underflows: one check per cloud, on its largest modulus M.

    _dist_cols takes the moduli of coordinate differences (at most 2M), their
    q-th powers, an n-term sum and its 1/q-th power.  The largest of these
    is below 2^1020 when log2(2M / s) is at most the room: 1020 for
    q = inf, (1020 - log2 n) / q for q >= 1, and 1020 - log2(n) / q for
    q < 1.  A cloud with log2(2M) above the room is divided down to it.  At
    a finite q, a cloud with log2(2M) below minus the room would take q-th
    powers of gaps that underflow (a tiny cloud at q = 2 squares them to
    0), so it is multiplied up to the room, by at most 2^1022.  Every other
    cloud gets 1.0 and keeps every bit.  Scaling by a power of two is
    exact (up to underflow of entries below 2^-1022 s, which only lowers
    the distances they are part of), so the radii and gaps of the scaled
    cloud, times s, are those of the cloud.
    """
    top = float(np.abs(points).max(initial=0.0))
    if not 0.0 < top < math.inf:
        return 1.0
    log2_n = math.log2(points.shape[1])
    if math.isinf(q):
        room = 1020.0
    elif q >= 1.0:
        room = (1020.0 - log2_n) / q
    else:
        room = 1020.0 - log2_n / q
    log2_span = math.log2(top) + 1.0  # log2(2M)
    shift = math.ceil(log2_span - room)
    if shift > 0 or (log2_span < -room and not math.isinf(q)):
        return math.ldexp(1.0, max(shift, -1022))
    return 1.0


def _scaled_back(values, scale):
    """Radii or gaps of a cloud divided by ``scale``, times ``scale``; raises
    ValueError when one of them overflows a float, as the traversal does.
    A cloud that needed no scaling (scale 1) gets its values back as they are."""
    if scale == 1.0:
        return values
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype=float) * scale
    if not np.all(out < math.inf):
        raise ValueError(f"image-cloud distances overflow a float (gap {float(out.max())})")
    return out


def image_cloud(T, size, seed):
    """Certified points of T(B_X): images of signed unit vectors plus samples.

    The first rows are the images of +-e_j (and i e_j over the complex
    field), which always lie in the image of the closed unit ball; the rest
    are images of seeded sphere and ball samples.  Order is deterministic.
    """
    n = T.domain.n
    p = T.domain.p
    rng = np.random.default_rng([int(seed), n, T.codomain.n])
    base = _unit_directions(n, T.field)
    extra = max(0, size - base.shape[0])
    n_sphere = (2 * extra) // 3
    n_ball = extra - n_sphere
    blocks = [base]
    if n_sphere:
        blocks.append(sample_sphere(rng, n, p, T.field, n_sphere))
    if n_ball:
        blocks.append(sample_ball(rng, n, p, T.field, n_ball))
    X = np.vstack(blocks)
    return X @ T.matrix.T


_EPS = np.finfo(float).eps


def _real_coords(points):
    """The (N, r) real coordinates of a cloud: [re | im] for complex points."""
    return np.hstack([points.real, points.imag]) if np.iscomplexobj(points) else points


def _widest(coords):
    """The real coordinate indices of a cloud by decreasing width."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.argsort(-np.ptp(coords, axis=0), kind="stable")


def _key_direction(points, coords):
    """The signs u of the principal direction v of a cloud's (N, m) real
    coordinates, or None for a cloud that is not finite, is 0, or is so
    large that its projection on u could overflow.

    Over the complex field the sign of a coordinate is the phase of its
    (re, im) pair of v: each coordinate of u has modulus 1 (0 where v's is
    0).  Of the directions whose per-coordinate moduli are at most 1, u
    spreads the cloud at least as much as v scaled to a largest modulus of
    1.  With moduli taken per coordinate and v a unit vector, <u, v> =
    ||v||_1 >= ||v||_2^2 / ||v||_inf = 1 / ||v||_inf.  The covariance C is
    at least lambda_1 v v^T, so u's variance u^T C u >= lambda_1 ||v||_1^2
    is at least lambda_1 / ||v||_inf^2, the variance along v / ||v||_inf.
    """
    top = float(np.abs(coords).max(initial=0.0))
    if not 0.0 < 2.0 * coords.shape[1] * top < math.inf:
        return None
    X = coords / top
    X -= X.mean(axis=0)
    v = np.linalg.eigh(X.T @ X)[1][:, -1]
    pairs = v.reshape(2, -1) if np.iscomplexobj(points) else v[None, :]
    moduli = np.sqrt((pairs * pairs).sum(axis=0))
    return (pairs / np.where(moduli > 0.0, moduli, 1.0)).reshape(-1)


def _sorted_cloud(points, q):
    """The cloud sorted along its key, as (perm, keys, cols, widen, slack):
    the stable sort permutation, the sorted keys as a list, the (n, N)
    columns of the sorted points and the slab allowances of the key
    (``_slab``).  Every slab |key_j - key| <= h is then a contiguous range
    of positions.

    At q > 1 the key is the widest real coordinate, which is exact.  At
    q <= 1 it is the projection ``coords @ u`` on the signs u of the
    principal direction (``_key_direction``), along which the cloud spreads
    more than along one coordinate.  ||a||_1 <= ||a||_q there, so a u whose
    per-coordinate moduli are at most 1 moves the key by at most ||a||_q.
    The projection and the rounding bound of ``_slab`` are sums of m terms
    of modulus at most about M, the cloud's largest real coordinate, so
    below 2 m M, which ``_key_direction`` keeps finite; a cloud it refuses
    keeps the coordinate key.
    """
    coords = _real_coords(points)
    widen, slack = _slab_widen(points.shape[1], q), 0.0
    u = _key_direction(points, coords) if q <= 1.0 else None
    if u is None:
        key = coords[:, _widest(coords)[0]]
    else:
        key = coords @ u
        widen *= 1.0 + 4.0 * _EPS
        slack = 2.0 * (coords.shape[1] + 1) * _EPS * float((np.abs(coords) @ np.abs(u)).max())
    perm = np.argsort(key, kind="stable")
    return perm, key[perm].tolist(), np.ascontiguousarray(points[perm].T), widen, slack


def _slab_widen(n, q):
    """1 plus a bound on the relative error of ``_dist_cols`` on n
    coordinates: an n-term sum and the powers q and 1/q."""
    return 1.0 + 4.0 * (n + 4) * _EPS / min(1.0, q)


def _slab(keys, key, radius, widen, slack):
    """Positions lo:hi of the sorted list ``keys`` holding every point whose
    computed distance to a point with key ``key`` is at most ``radius``.

    The computed distance can round below the true one (sqrt(1.5)**2 <
    1.5), so d(i, j) <= r puts the true distance below r w, with w =
    ``_slab_widen``.  A coordinate key moves by at most that: |Re a_c| <=
    |a_c| <= ||a||_q and |Im a_c| <= |a_c| <= ||a||_q for every q in
    (0, inf], and the key is exact.  A projected key (q <= 1) moves by at
    most mu ||a||_1 <= mu ||a||_q, where mu is u's largest modulus: a
    computed modulus of v is within 2 eps of the true one (a square, a sum,
    a root) and each divided component gains eps/2 more, so
    mu <= 1 + 3 eps, and ``widen`` is w (1 + 4 eps).  The projection is also
    rounded: a dot product of m terms (m real coordinates), in any order
    and with or without fused multiply-adds, is within gamma_m sum_k |u_k|
    |x_ik| of the exact one, gamma_m = m (eps/2) / (1 - m eps/2) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
    Two keys take that error once each, so their gap is within 2 gamma_m S
    of the exact gap, S = max_i sum_k |u_k| |x_ik|.  ``slack`` is
    2 (m + 1) eps times S as computed (that sum of nonnegative terms rounds
    by at most gamma_m relative), which exceeds 2 gamma_m S; it is 0 for a
    coordinate key.

    The half-width is therefore r ``widen`` + ``slack``, plus 4 eps |key|
    for the rounding of key +- half, which scales with |key|, not with r.
    Outside the slab every computed distance exceeds ``radius``.  The ends
    are bisections of the list: the first key >= key - half, and past the
    last key <= key + half.
    """
    half = radius * widen + slack + 4.0 * _EPS * abs(key)
    return bisect_left(keys, key - half), bisect_right(keys, key + half)


def max_nn_gap(points, q, traversal=None):
    """Max over points of the distance to the nearest other point, exactly.

    Read off ``traversal``, a ``_FarthestPoints`` of these ``points`` at
    this q.  Without one, the points are divided by their ``_cloud_scale``
    s, as the cover's are, the traversal is ``_FarthestPoints(points / s,
    0, q)``, the start's full pass alone, and the gap comes back through
    ``_scaled_back``: times s, with a ValueError when that overflows a
    float.

    A centre j of the traversal (d = -inf) carries near[j] = r_j, its
    nearest-neighbour distance r_j = min_{i != j} d(i, j), exactly
    (``_FarthestPoints``).  Any other point i has d[i], its computed
    distance to the nearest centre, which is that term of r_i's minimum
    (the distance is symmetric bit for bit), so r_i <= d[i].  The best gap
    starts at the centres' largest r_j.  While it is below the covering
    radius R = max d, one more centre is inserted and its exact r_j folded
    in; an insertion keeps both facts.  Once best >= R, every other point
    has r_i <= d[i] <= R <= best, and best is some r_j, so it is the
    brute-force maximum, for every q and either field.  The loop ends: a
    traversal with nothing left to insert has R <= 0 <= best.  A long
    traversal (a cover's N/2 centres) mostly settles the gap with no
    insertion and no distance computed; a short one inserts centres until
    its radius falls to the gap.  The insertions only append to ``gaps``,
    so the cover's radii, read before, keep their bits.
    """
    N = points.shape[0]
    if N < 2:
        return 0.0
    if not np.all(np.isfinite(points)):
        raise ValueError("max_nn_gap needs finite points")
    if traversal is None:
        scale = _cloud_scale(points, q)
        pts = points if scale == 1.0 else points / scale
        return float(_scaled_back(max_nn_gap(pts, q, _FarthestPoints(pts, 0, q)), scale))
    d, near = traversal.d, traversal.near
    best = float(near.max())
    while best < d.max():
        traversal.extend(len(traversal.gaps) + 1)
        best = float(near.max())
    return best


class _FarthestPoints:
    """Farthest-point traversal of the cloud ``points``, grown on demand.

    Starts at point ``start``; each insertion takes the point farthest from
    the points taken so far (d = -inf) and records that distance in ``gaps``.
    gaps[i] is the covering radius of the first i+1 points and min(gaps[:i+1])
    the separation of the first i+2 (Gonzalez, Theor. Comput. Sci. 38, 1985).
    ``extend(count)`` continues the loop exactly where it stopped, so the gaps
    after any sequence of extensions are those of one uninterrupted traversal.

    The cloud is kept sorted along its key (``_sorted_cloud``: the widest
    real coordinate, or at q <= 1 the projection on the signs of the
    principal direction), and an insertion at distance ``gap`` lowers d only
    on the slab of radius gap around the new point (``_slab``, whose ends
    are bisections of the keys, kept as a list).  Outside it the computed
    distance exceeds gap >= d, so ``np.minimum`` would keep every bit
    there.  Of the points at distance gap, the one with the lowest index
    in ``points`` is taken, as ``np.argmax`` takes it in that order,
    so the gaps are those of the unsorted traversal: the taken point's d is
    set to -inf, and only when a second ``argmax`` meets gap again are the
    ties listed.  Without a tie, that second argmax is also the next
    insertion when the new point's slab does not hold it: d is unchanged
    there and lowered elsewhere, so it stays the first maximum.  The
    start's distances are a full pass, so an overflow still raises at the
    first insertion.

    ``near[j]`` of a taken point j is its nearest-neighbour distance
    r_j = min_{i != j} d(i, j), exactly; it is -inf elsewhere, so
    near.max() is the centres' largest, which ``max_nn_gap`` reads.  The
    gap may extend a cover's traversal past its centres, after the cover
    has read its radii from ``gaps``.  For the start, it is the least of the
    full pass.  A later j is taken at gap = d[j], the computed distance to
    the centre c that set d[j].  Its slab of radius gap holds every point
    whose computed distance to j is at most gap, c among them, because the
    distance is symmetric bit for bit.  So r_j <= gap, j's nearest
    neighbour lies in the slab, and near[j] is the least of the slab's
    distances with j's own left out.
    """

    def __init__(self, points, start, q):
        self.perm, self.keys, self.cols, self.widen, self.slack = _sorted_cloud(points, q)
        self.q = q
        start = int(np.flatnonzero(self.perm == start)[0])
        with np.errstate(over="ignore", invalid="ignore"):
            self.d = _dist_cols(self.cols, self.cols[:, start], q)
        self.d[start] = math.inf
        self.near = np.full(self.d.size, -math.inf)
        self.near[start] = self.d.min()
        self.d[start] = -np.inf
        self.gaps = []
        self.next = -1  # the next insertion's position, when known

    def extend(self, count):
        """Run insertions until ``count`` gaps are known or none is left.

        None is left once every point is taken or the rest duplicate taken
        ones; the loop then stops without changing the state.  A gap of +inf
        or NaN means the distances overflowed, and raises ValueError.
        """
        d, near, cols, keys, q = self.d, self.near, self.cols, self.keys, self.q
        widen, slack = self.widen, self.slack
        j_next = self.next
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self.gaps) < count:
                j = j_next if j_next >= 0 else int(d.argmax())
                gap = float(d[j])
                if not gap < math.inf:
                    raise ValueError(f"image-cloud distances overflow a float (gap {gap})")
                if not gap > 0.0:
                    break
                d[j] = -np.inf
                j_next = int(d.argmax())
                if d[j_next] == gap:  # a tie: the lowest index in points is taken
                    d[j] = gap
                    ties = np.flatnonzero(d == gap)
                    j = int(ties[np.argmin(self.perm[ties])])
                    d[j] = -np.inf
                    j_next = -1
                self.gaps.append(gap)
                lo, hi = _slab(keys, keys[j], gap, widen, slack)
                if lo <= j_next < hi:
                    j_next = -1
                dist = _dist_cols(cols[:, lo:hi], cols[:, j], q)
                dist[j - lo] = math.inf
                near[j] = dist.min()
                np.minimum(d[lo:hi], dist, out=d[lo:hi])
        self.next = j_next


# candidate first centres of the greedy cover
_COVER_CANDIDATES = 256


def _cover_traversal(points, n_centers, q):
    """The greedy cover's farthest-point traversal, run to ``n_centers``
    insertions: gaps[i] is the covering radius with i+1 centers.

    The first center approximates the Chebyshev center of the cloud: among
    a strided subsample of candidate points (so interior and boundary points
    are both represented whatever order the cloud was built in), take the one
    minimising the max distance to the whole cloud, ties broken by lowest
    index; later centers are the current farthest points, which is the
    standard greedy covering heuristic.

    A candidate's max is at least its distance to each extreme point of the
    cloud (the argmin and argmax of every real coordinate), computed by the
    same expression as that term of the max, so the largest of these is a
    lower bound on it.  The candidates are evaluated in ascending bound, and
    one whose bound is above the best max found so far is skipped: its max
    is at least its bound, so it cannot win.  Nor can one whose bound equals
    the best max and whose index is higher, since it can at most tie, and a
    tie goes to the lowest index.  Skipped candidates count as +inf, and the
    start is ``np.argmin`` over the candidates' maxima.  A NaN max (a cloud
    that is not finite) has a NaN bound, so it is never skipped, and the
    start is the one the full search takes.
    """
    N = points.shape[0]
    cols = np.ascontiguousarray(points.T)
    cand_idx = np.linspace(0, N - 1, min(N, _COVER_CANDIDATES)).astype(int)
    coords = _real_coords(points)
    extremes = np.concatenate([coords.argmin(axis=0), coords.argmax(axis=0)])
    cand_cols = np.ascontiguousarray(cols[:, cand_idx])
    worst = np.full(cand_idx.size, math.inf)
    best, best_c = math.inf, cand_idx.size
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.full(cand_idx.size, -math.inf)
        for e in extremes.tolist():
            # d(c, e) is symmetric bit for bit, so this is the term at e of c's max
            np.maximum(bound, _dist_cols(cand_cols, cols[:, e], q), out=bound)
        for c in np.argsort(bound, kind="stable").tolist():
            if bound[c] > best or (bound[c] == best and c > best_c):
                continue
            worst[c] = _dist_cols(cols, cols[:, cand_idx[c]], q).max()
            if worst[c] < best or (worst[c] == best and c < best_c):
                best, best_c = float(worst[c]), c
    trav = _FarthestPoints(points, int(cand_idx[int(np.argmin(worst))]), q)
    trav.extend(n_centers)
    return trav


def _doubling_cover(points, k_max, q):
    """(traversal, radii): the cover traversal for e_1 .. e_{k_max} and its
    covering radii with 1, 2, 4, ..., 2^(k_max-1) centers.

    When 2^(k_max-1) equals the number N > 1 of points, the last radius is
    exactly 0 (N centers take every point) and only the first N/2 centers
    are run.
    """
    need = 2 ** (k_max - 1)
    run = need // 2 if need == points.shape[0] > 1 else need
    trav = _cover_traversal(points, run, q)
    gaps = trav.gaps
    return trav, [gaps[2 ** (k - 1) - 1] if 2 ** (k - 1) <= len(gaps) else 0.0
                  for k in range(1, k_max + 1)]


# ---------------------------------------------------------------------------
# covering upper estimates
# ---------------------------------------------------------------------------


def entropy_upper_cover_sequence(T, k_max, cloud=1024, seed=0):
    """Covering estimates for e_1 .. e_{k_max} from one shared cloud.

    A single farthest-point traversal serves every k (the covering radius
    after 2^(k-1) insertions), which also makes the reported uppers
    nonincreasing in k by construction.  When 2^(k_max-1) centers would take
    every cloud point, the traversal stops at half of them and e_{k_max}'s
    radius is the 0 that the remaining centers would reach (see
    ``_doubling_cover``).

    Each upper comes with the cloud's max nearest-neighbour gap delta,
    which ``max_nn_gap`` finds exactly from the same traversal, after the
    radii are read: it may insert centres past the cover's.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    need = 2 ** (k_max - 1)
    if cloud < need:
        raise ValueError(f"cloud size {cloud} is below 2^(k-1) = {need}")
    q = T.codomain.p
    pts = image_cloud(T, cloud, seed)
    scale = _cloud_scale(pts, q)
    if scale != 1.0:
        pts = pts / scale
    trav, radii = _doubling_cover(pts, k_max, q)
    radii = _scaled_back(radii, scale)
    delta = float(_scaled_back(max_nn_gap(pts, q, traversal=trav), scale))
    return [BoundPair(k=k, upper=float(radii[k - 1]), delta=delta) for k in range(1, k_max + 1)]


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


def _packing_traversal(T, budget, seed):
    """Traversal of T's cloud from its largest-norm point, kept on T (its
    matrix is read-only), and the ``_cloud_scale`` its cloud was divided by."""
    key = ("packing", budget, seed)
    if key not in T._memo:
        q = T.codomain.p
        pts = image_cloud(T, budget, seed)
        scale = _cloud_scale(pts, q)
        if scale != 1.0:
            pts = pts / scale
        with np.errstate(over="ignore"):
            start = int(np.argmax(_norm_rows(pts, q)))
        T._memo[key] = _FarthestPoints(pts, start, q), scale
    return T._memo[key]


def entropy_lower_pack_sequence(T, k_max, budget=512, seed=0):
    """Certified packing lower bounds for e_1 .. e_{k_max}.

    Builds a farthest-point packing of certified image points (seeded with
    the images of the signed unit vectors).  If K = 2^(k-1) + 1 points have
    pairwise separation s, two of them would share any covering ball of
    radius eps, so s^qbar <= 2 eps^qbar with qbar = min(1, q); hence
    e_k >= s / 2^(1/qbar), which is s/2 for q >= 1.  The separation of the
    first K traversal points is exactly the minimum insertion distance, so
    the bound is certified.

    e_k only reads the first 2^(k-1) + 1 traversal points, and the traversal
    does not depend on k_max, so the bounds for k <= k_max are the same for
    every k_max (a shorter sequence is a prefix of a longer one).  A cloud
    of N points has no 2^(k-1) + 1 distinct points when that exceeds N, and
    e_k's bound is then 0.  One traversal per (budget, seed) is therefore
    kept on the operator and extended, only when a call needs more of it,
    to the last insertion some k <= k_max reads: the largest 2^(k-1) with
    2^(k-1) + 1 <= N (N is the cloud's point count, at least ``budget``).
    Calls in any order, including the per-k calls of ``best_certified_lower``,
    return exactly what a fresh traversal returns.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    q = T.codomain.p
    trav, scale = _packing_traversal(T, budget, seed)
    N = trav.cols.shape[1]
    need = 2 ** (k_max - 1)
    while need > 1 and need + 1 > N:
        need //= 2
    trav.extend(need)
    insert_dists = _scaled_back(trav.gaps[:need], scale)
    # separation of the first (i+2) points = min of the first (i+1) insertions
    prefix_sep = np.minimum.accumulate(insert_dists)

    denom = 2.0 ** (1.0 / min(1.0, q))
    out = []
    for k in range(1, k_max + 1):
        K = 2 ** (k - 1) + 1
        if K - 2 < len(prefix_sep):
            s = float(prefix_sep[K - 2])
            lower = s / denom
        else:
            lower = 0.0
        out.append(BoundPair(k=k, lower=lower, method_lower=METHOD_PACKING))
    return out


# image points in the packing of ``entropy_brackets``, at most: e_k reads
# only 2^(k-1) + 1 of them, and packing the whole cloud costs ten times as much
PACK_POINTS = 512


def entropy_brackets(T, k_max, cloud, seed):
    """Brackets of e_1 .. e_{k_max}: the best certified lower and the padded cover upper.

    The lower is ``best_certified_lower`` on min(cloud, PACK_POINTS) points,
    certified.  The upper is ``entropy_upper_cover_sequence`` on ``cloud``
    points padded by the cloud's gap (``padded_upper``), an estimate, since
    the cloud only samples the image.  An estimate side may undershoot, so a
    lower above its upper is a violation for the caller to report, not an
    error here.  The method is ``pack/cover``.  The cover runs to
    k_top = min(k_max, floor(log2 cloud) + 1), as 2^(k-1) centres must fit
    the cloud; e_k does not increase with k, so past k_top it is e_{k_top}'s.
    """
    q = T.codomain.p
    k_top = min(k_max, int(math.log2(cloud)) + 1)
    covers = entropy_upper_cover_sequence(T, k_top, cloud=cloud, seed=seed)
    covers += covers[-1:] * (k_max - k_top)
    return [Bracket(best_certified_lower(T, k, budget=min(cloud, PACK_POINTS), seed=seed).lower,
                    padded_upper(cover, q), CERTIFIED, ESTIMATE, "pack/cover")
            for k, cover in enumerate(covers, 1)]


def entropy_lower_volumetric(p, q, n, k, field=REAL):
    """Volume-comparison lower bound for e_k(id: l_p^n -> l_q^n).

    If 2^(k-1) balls of radius eps in l_q cover the l_p ball, then
    vol(B_p) <= 2^(k-1) eps^D vol(B_q) in R^D (D the volumetric dimension),
    which solves to the returned value.  Certified, constants exact.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dom = SpaceSpec(p, n, field)
    cod = SpaceSpec(q, n, field)
    D = dom.volumetric_dim
    log_ratio = log_ball_volume(dom) - log_ball_volume(cod) - (k - 1) * math.log(2.0)
    return math.exp(log_ratio / D)


def _log2_binom(n, k):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2.0)


def hamming_pack_lower(p, q, n, k):
    """Certified combinatorial lower bound for e_k(id: l_p^n -> l_q^n), p <= q.

    Scaled sign vectors with exactly 2m nonzero entries, any two of them
    more than m apart in Hamming distance, form a packing of the l_p ball
    with l_q separation (2m)^(-1/p) m^(1/q); a counting argument guarantees
    more than C(n,2m)/C(n,m) such points.  For each m <= n/4 with
    log2(C(n,2m)/C(n,m)) >= k this certifies a bound; the best one is
    returned.  Needs n >= 4 (otherwise 0, with a warning).  Binomials are
    evaluated in log space.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p > q:
        raise ValueError("the sign-vector packing needs p <= q")
    if n < 4:
        warnings.warn(f"Hamming packing needs n >= 4 (got n={n}); returning 0", stacklevel=2)
        return 0.0
    denom = 2.0 ** (1.0 / min(1.0, q))
    best = 0.0
    for m in range(1, n // 4 + 1):
        log2_a = _log2_binom(n, 2 * m) - _log2_binom(n, m)
        if log2_a >= k:
            sep = (2.0 * m) ** (-inv_exponent(p)) * float(m) ** inv_exponent(q)
            best = max(best, sep / denom)
    return best


# ---------------------------------------------------------------------------
# closed-form envelopes
# ---------------------------------------------------------------------------


def _regime_dim(n, field):
    return 2 * n if field == COMPLEX else n


def regime_piece(piece, p, q, n, k, field=COMPLEX):
    """Evaluate one named piece (small/mid/large) of the three-regime formula."""
    alpha = inv_exponent(p) - inv_exponent(q)
    N = _regime_dim(n, field)
    if piece == REGIME_SMALL:
        return 1.0
    if piece == REGIME_MID:
        return (math.log2(1.0 + N / k) / k) ** alpha
    if piece == REGIME_LARGE:
        return 2.0 ** (-k / N) * float(N) ** (-alpha)
    raise ValueError(f"unknown regime piece {piece!r}")


def regime_envelope(p, q, n, k, field=COMPLEX):
    """Three-regime shape of e_k(id: l_p^n -> l_q^n) for 0 < p <= q <= inf.

    The equivalence constants depend only on p and q and are not known
    explicitly, so both sides of the returned Bracket are the one ``shape``
    value, with the regime as its method.  Regime boundaries sit at
    k = log2(N) and k = N with N = 2n over the complex scalars and N = n
    over the reals; boundary indices are assigned to the mid regime, where
    both adjacent pieces agree up to a bounded factor.
    """
    p, q = _check_exponent(p), _check_exponent(q, "q")
    if p > q:
        raise ValueError("the regime envelope needs p <= q")
    if k < 1:
        raise ValueError("k must be >= 1")
    N = _regime_dim(n, field)
    if k > N:
        regime = REGIME_LARGE
    elif k >= math.log2(N):
        regime = REGIME_MID
    else:
        regime = REGIME_SMALL
    return Bracket.point(regime_piece(regime, p, q, n, k, field), SHAPE, regime)


def rank_decay_bounds(m, k, norm=1.0, field=REAL):
    """Two-sided 2^(-(k-1)/m) decay shape of e_k for operators of rank m.

    Real rank-m operators satisfy c 2^(-(k-1)/m) <= e_k <= C ||T|| 2^(-(k-1)/m);
    over the complex scalars the divisor doubles to 2m.  Both constants are
    unknown and reported as 1, so both sides are of kind ``shape``.  Since
    e_k <= e_1 <= ||T||, the lower constant c is at most ||T||, so the lower
    shape is capped at the upper one when ``norm`` < 1.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if norm < 0:
        raise ValueError("norm must be nonnegative")
    divisor = 2 * m if field == COMPLEX else m
    shape = 2.0 ** (-(k - 1) / divisor)
    return Bracket(min(1.0, norm) * shape, norm * shape, SHAPE, SHAPE, "rank-decay")


def best_certified_lower(T, k, budget=512, seed=0):
    """Best certified lower bound available for e_k(T): the one rule for e lowers.

    ``Bracket.meet`` takes the largest of the packing lower, which wins a
    tie, and, for identity operators, the volumetric and (p <= q, n >= 4)
    Hamming bounds.  Returns a BoundPair with the winning method.  The
    packing reads the traversal kept on T, so the calls for k = 1 .. K
    together build one cloud and run one traversal of 2^(K-1) + 1 points.
    """
    pack = entropy_lower_pack_sequence(T, k, budget=budget, seed=seed)[-1]
    lowers = [(pack.lower, METHOD_PACKING)]
    p, q, n = T.domain.p, T.codomain.p, T.domain.n
    if is_identity(T.matrix):
        lowers.append((entropy_lower_volumetric(p, q, n, k, T.field), METHOD_VOLUMETRIC))
        if p <= q and n >= 4:
            lowers.append((hamming_pack_lower(p, q, n, k), METHOD_HAMMING))
    best = Bracket.meet(*(Bracket(v, None, CERTIFIED, None, m) for v, m in lowers))
    return BoundPair(k=k, lower=best.lower, method_lower=best.method)
