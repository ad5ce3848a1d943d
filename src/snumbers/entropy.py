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
* ``entropy_brackets``, the one place that joins packing lowers and padded
  cover uppers into a ``Bracket`` per k and decides the kinds of its sides,
* the closed-form three-regime envelope for the identity l_p -> l_q
  (p <= q) with its regime boundaries at k = log2(2n) and k = 2n in the
  complex convention (n replaces 2n over the reals), and
* the two-sided 2^(-(k-1)/m) decay shape for operators of rank m.

All randomness is driven by explicit integer seeds.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operators import (
    CERTIFIED,
    ESTIMATE,
    SHAPE,
    Bracket,
    _norm_rows,
    _unit_directions,
    is_identity,
)
from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
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
    qbar = _qbar(q)
    if qbar == 1.0:
        return pair.upper + pair.delta
    return (pair.upper**qbar + pair.delta**qbar) ** (1.0 / qbar)


# ---------------------------------------------------------------------------
# point clouds and metric helpers
# ---------------------------------------------------------------------------


def _row_sum(terms):
    """``np.stack(terms, axis=1).sum(axis=1)``, bit for bit.

    numpy sums a row of fewer than 8 items left to right, so short rows are
    added term by term into ``terms[0]`` without building the (N, n) array.
    """
    if len(terms) >= 8:
        return np.stack(terms, axis=1).sum(axis=1)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return total


def _dist_cols(cols, c, q):
    """Distances from the points with coordinate columns ``cols`` to ``c``.

    ``cols`` is the (n, N) transpose of the point array and ``c`` has one
    entry per coordinate (scalars, or arrays broadcasting against a column).
    The elementwise operations are those of ``_norm_rows(points - c, q)`` in
    the same order, so the result is bit-identical, but they run over n
    contiguous length-N columns instead of N short rows, in place.
    """
    a = [np.abs(col - cj) for col, cj in zip(cols, c)]
    if math.isinf(q):
        out = a[0]
        for t in a[1:]:
            np.maximum(out, t, out=out)
        return out
    if q == 2.0:
        for t in a:
            t *= t
        total = _row_sum(a)
        return np.sqrt(total, out=total)
    if q == 1.0:
        return _row_sum(a)
    for t in a:
        t **= q
    total = _row_sum(a)
    total **= 1.0 / q
    return total


def image_cloud(T, size, seed):
    """Certified points of T(B_X): images of signed unit vectors plus samples.

    The first rows are the images of +-e_j (and i e_j over the complex
    field), which always lie in the image of the closed unit ball; the rest
    are images of seeded sphere and ball samples.  Order is deterministic.
    """
    n = T.domain.n
    p = T.domain.p
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, n, T.codomain.n])
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


# neighbours on each side of a point, in each sorted order, that propose u_i
_NN_SORTED_NEIGHBOURS = 16
# sorted orders (widest real coordinates) that propose u_i
_NN_SORTED_AXES = 3


def max_nn_gap(points, q):
    """Max over points of the distance to the nearest other point, exactly.

    Sort-by-projection search (Friedman, Baskett & Shustek, IEEE Trans.
    Comput. C-24, 1975) on the real coordinates ([re | im] for complex
    points), in numpy alone.  The points are sorted along each of the three
    widest coordinates, and u_i is the exact l_q distance from i to the
    closest of its 16 neighbours on each side in those orders.  u_i is an
    upper bound on the true gap r_i = min_{j != i} d(i, j): it is one of the
    terms of that minimum, computed by the same floating-point expression
    (which is symmetric in i and j bit for bit), so u_i >= r_i.  Points are
    then rechecked in descending u_i, and the scan stops at the first
    u_i <= best gap found, because every remaining r_i <= u_i <= best.  A
    recheck of i also lowers u_j to d(i, j) for the points j it meets, and a
    point whose lowered u_j <= best is skipped for the same reason.

    A recheck of i scans only slabs |key_j - key_i| <= r on the widest
    coordinate, every j with d(i, j) <= r lying in the slab of radius r.
    That holds for every q in (0, inf] and both fields, because
    |Re a_c| <= |a_c| <= ||a||_q and |Im a_c| <= |a_c| <= ||a||_q.  The
    computed distance can round below the key gap (sqrt(1.5)**2 < 1.5), so
    the half-width is r times 1 plus a bound on that relative error (an
    n-term sum and the powers q and 1/q), plus 4 eps |key_i| for the
    rounding of key_i +- r, which scales with |key_i|, not with r.  The
    recheck first scans the slab of radius best.  If it holds a j with
    d(i, j) <= best, then r_i <= best and i cannot raise the maximum, so i
    is done.  Otherwise the nearest j lies within m = min(u_i, the slab's
    minimum) of i, and the recheck scans the rest of the slab of radius m,
    which is its two side ranges (the slab of radius best is inside it,
    since best < m and rounding is monotone).  Either way r_i is known
    whenever it exceeds best, so the result equals the brute-force maximum
    for every q and field.
    """
    N = points.shape[0]
    if N < 2:
        return 0.0
    if not np.all(np.isfinite(points)):
        raise ValueError("max_nn_gap needs finite points")
    coords = np.hstack([points.real, points.imag]) if np.iscomplexobj(points) else points
    widest = np.argsort(-np.ptp(coords, axis=0), kind="stable")[:_NN_SORTED_AXES]
    # work in the sorted order of the widest coordinate, where every slab
    # is a contiguous range of columns
    perm = np.argsort(coords[:, widest[0]], kind="stable")
    coords = coords[perm]
    keys = np.ascontiguousarray(coords[:, widest[0]])
    cols = np.ascontiguousarray(points[perm].T)

    orders = [np.argsort(coords[:, axis], kind="stable") for axis in widest[1:]]
    upper = np.full(N, math.inf)
    for s in range(1, min(_NN_SORTED_NEIGHBOURS, N - 1) + 1):
        # the distance is symmetric bit for bit: fl(a - b) = -fl(b - a)
        d = _dist_cols(cols[:, :-s], cols[:, s:], q)
        np.minimum(upper[:-s], d, out=upper[:-s])
        np.minimum(upper[s:], d, out=upper[s:])
        for order in orders:
            a, b = order[:-s], order[s:]
            d = _dist_cols(cols[:, a], cols[:, b], q)
            upper[a] = np.minimum(upper[a], d)
            upper[b] = np.minimum(upper[b], d)

    eps = np.finfo(float).eps
    # relative error bound of _dist_cols: an n-term sum and the powers q, 1/q
    widen = 1.0 + 4.0 * (points.shape[1] + 4) * eps / min(1.0, q)

    def slab(key, radius):
        half = radius * widen + 4.0 * eps * abs(key)
        lo = int(np.searchsorted(keys, key - half, side="left"))
        return lo, int(np.searchsorted(keys, key + half, side="right"))

    def nearest(i, lo, hi):
        """min of d(i, j) over j != i in lo:hi, lowering u_j on the way."""
        d = _dist_cols(cols[:, lo:hi], cols[:, i], q)
        if lo <= i < hi:
            d[i - lo] = math.inf
        # d(i, j) is also a term of r_j's minimum
        np.minimum(upper[lo:hi], d, out=upper[lo:hi])
        return float(d.min())

    best = 0.0
    scan = np.argsort(upper)[::-1]
    bound = upper[scan]
    for i, u_i in zip(scan.tolist(), bound.tolist()):
        if u_i <= best:
            break
        if upper[i] <= best:  # tightened by an earlier recheck
            continue
        key = float(keys[i])
        lo_b, hi_b = slab(key, best)  # holds i
        r_i = nearest(i, lo_b, hi_b)
        if r_i <= best:
            continue
        lo, hi = slab(key, min(float(upper[i]), r_i))
        for a, b in ((lo, lo_b), (hi_b, hi)):
            if a < b:
                r_i = min(r_i, nearest(i, a, b))
        best = max(best, r_i)
    return best


class _FarthestPoints:
    """Farthest-point traversal of the cloud with columns ``cols``, grown on demand.

    Starts at point ``start``; each insertion takes the point farthest from
    the points taken so far (d = -inf) and records that distance in ``gaps``.
    gaps[i] is the covering radius of the first i+1 points and min(gaps[:i+1])
    the separation of the first i+2 (Gonzalez, Theor. Comput. Sci. 38, 1985).
    ``extend(count)`` continues the loop exactly where it stopped, so the gaps
    after any sequence of extensions are those of one uninterrupted traversal.
    """

    def __init__(self, cols, start, q):
        self.cols, self.q = cols, q
        with np.errstate(over="ignore", invalid="ignore"):
            self.d = _dist_cols(cols, cols[:, start], q)
        self.d[start] = -np.inf
        self.gaps = []

    def extend(self, count):
        """Run insertions until ``count`` gaps are known or none is left.

        None is left once every point is taken or the rest duplicate taken
        ones; the loop then stops without changing the state.  A gap of +inf
        or NaN means the distances overflowed, and raises ValueError.
        """
        d, cols, q = self.d, self.cols, self.q
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self.gaps) < count:
                j = int(np.argmax(d))
                gap = float(d[j])
                if not gap < math.inf:
                    raise ValueError(f"image-cloud distances overflow a float (gap {gap})")
                if not gap > 0.0:
                    break
                self.gaps.append(gap)
                np.minimum(d, _dist_cols(cols, cols[:, j], q), out=d)
                d[j] = -np.inf


# candidate first centres of the greedy cover
_COVER_CANDIDATES = 256


def _greedy_cover_radii(points, n_centers, q):
    """Farthest-point k-center; radii[i] is the covering radius with i+1 centers.

    The first center approximates the Chebyshev center of the cloud: among
    a strided subsample of candidate points (so interior and boundary points
    are both represented whatever order the cloud was built in), take the one
    minimising the max distance to the whole cloud, ties broken by lowest
    index; later centers are the current farthest points, which is the
    standard greedy covering heuristic.  Radii past the traversal's end are
    exactly 0: every point is then a center or duplicates one.
    """
    N = points.shape[0]
    cols = np.ascontiguousarray(points.T)
    cand_idx = np.linspace(0, N - 1, min(N, _COVER_CANDIDATES)).astype(int)
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.array([_dist_cols(cols, cols[:, ci], q).max() for ci in cand_idx])
    trav = _FarthestPoints(cols, int(cand_idx[int(np.argmin(worst))]), q)
    trav.extend(n_centers)
    return np.array(trav.gaps + [0.0] * (n_centers - len(trav.gaps)))


def _cover_radii_doubling(points, k_max, q):
    """Greedy covering radii with 1, 2, 4, ..., 2^(k_max-1) centers.

    Entry k-1 equals ``_greedy_cover_radii(points, 2^(k_max-1), q)[2^(k-1) - 1]``.
    When 2^(k_max-1) equals the number N > 1 of points, the last radius is
    exactly 0 (N centers take every point) and only the first N/2 centers
    are run.
    """
    need = 2 ** (k_max - 1)
    run = need // 2 if need == points.shape[0] > 1 else need
    radii = _greedy_cover_radii(points, run, q)
    return [float(radii[2 ** (k - 1) - 1]) if 2 ** (k - 1) <= run else 0.0
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
    ``_cover_radii_doubling``).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    need = 2 ** (k_max - 1)
    if cloud < need:
        raise ValueError(f"cloud size {cloud} is below 2^(k-1) = {need}")
    q = T.codomain.p
    pts = image_cloud(T, cloud, seed)
    radii = _cover_radii_doubling(pts, k_max, q)
    delta = max_nn_gap(pts, q)
    return [BoundPair(k=k, upper=radii[k - 1], delta=delta) for k in range(1, k_max + 1)]


# ---------------------------------------------------------------------------
# certified lower bounds
# ---------------------------------------------------------------------------


def _qbar(q):
    return 1.0 if math.isinf(q) else min(1.0, q)


def _packing_traversal(T, budget, seed):
    """Traversal of T's cloud from its largest-norm point, kept on T (its matrix is read-only)."""
    key = ("packing", budget, seed)
    trav = T._memo.get(key)
    if trav is None:
        q = T.codomain.p
        pts = image_cloud(T, budget, seed)
        with np.errstate(over="ignore"):
            start = int(np.argmax(_norm_rows(pts, q)))
        trav = T._memo[key] = _FarthestPoints(np.ascontiguousarray(pts.T), start, q)
    return trav


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
    every k_max (a shorter sequence is a prefix of a longer one).  One
    traversal per (budget, seed) is therefore kept on the operator and
    extended to min(budget, 2^(k_max-1) + 1) points only when a call needs
    more of it: calls in any order, including the per-k calls of
    ``entropy_lower_pack`` and ``best_certified_lower``, return exactly what
    a fresh traversal returns.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    q = T.codomain.p
    need = 2 ** (k_max - 1)
    trav = _packing_traversal(T, budget, seed)
    trav.extend(need)
    insert_dists = trav.gaps[:need]
    # separation of the first (i+2) points = min of the first (i+1) insertions
    prefix_sep = np.minimum.accumulate(insert_dists) if insert_dists else np.array([])

    denom = 2.0 ** (1.0 / _qbar(q))
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


def entropy_lower_pack(T, k, budget=512, seed=0):
    """Certified farthest-point packing lower bound for e_k(T)."""
    return entropy_lower_pack_sequence(T, k, budget=budget, seed=seed)[-1]


def entropy_brackets(T, k_max, cloud, pack_budget, seed):
    """Brackets of e_1 .. e_{k_max}: the packing lower and the padded cover upper.

    The lower is ``entropy_lower_pack_sequence`` on ``pack_budget`` points,
    a certified bound.  The upper is ``entropy_upper_cover_sequence`` on
    ``cloud`` points padded by the cloud's gap (``padded_upper``), an
    estimate, since the cloud only samples the image.  An estimate side may
    undershoot, so a lower above its upper is a violation for the caller to
    report, not an error here.  The method is ``pack/cover``.
    """
    q = T.codomain.p
    covers = entropy_upper_cover_sequence(T, k_max, cloud=cloud, seed=seed)
    packs = entropy_lower_pack_sequence(T, k_max, budget=pack_budget, seed=seed)
    return [Bracket(pack.lower, padded_upper(cover, q), CERTIFIED, ESTIMATE, "pack/cover")
            for pack, cover in zip(packs, covers)]


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
    denom = 2.0 ** (1.0 / _qbar(q))
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
    """Best certified lower bound available for e_k(T).

    Packing always applies; for identity operators the volumetric bound and
    (p <= q, n >= 4) the Hamming bound join the maximum.  Returns a
    BoundPair with the winning method recorded.  The packing reads the
    traversal kept on T, so the calls for k = 1 .. K together build one
    cloud and run one traversal of 2^(K-1) + 1 points.
    """
    pair = entropy_lower_pack(T, k, budget=budget, seed=seed)
    best, method = pair.lower, pair.method_lower
    n = T.domain.n
    if is_identity(T.matrix):
        p, q = T.domain.p, T.codomain.p
        vol = entropy_lower_volumetric(p, q, n, k, T.field)
        if vol > best:
            best, method = vol, METHOD_VOLUMETRIC
        if p <= q and n >= 4:
            ham = hamming_pack_lower(p, q, n, k)
            if ham > best:
                best, method = ham, METHOD_HAMMING
    return BoundPair(k=k, lower=best, method_lower=method)
