"""Geometry of the finite-dimensional sequence spaces l_p^n for 0 < p <= inf.

For p >= 1 these are the familiar Banach spaces.  For 0 < p < 1 the triangle
inequality survives only up to the constant C = 2^(1/p - 1),

    ||x + y||_p <= C (||x||_p + ||y||_p),

while the p-th power is always subadditive (||x+y||_p^p <= ||x||_p^p +
||y||_p^p).  Every quasi-norm with triangle constant C is equivalent to a
rho-norm obtained by minimising over finite decompositions,

    ||x||_0 = inf { (sum_i ||f_i||^rho)^(1/rho) : x = f_1 + ... + f_m },

with rho = ln 2 / ln(2C).  The sandwich ||x||_0 <= ||x|| <= (2C)^2 ||x||_0
holds, so the two are equivalent with explicit constants.  This module
implements the constants, the closed form ||.||_0 = ||.||_p of l_p (p < 1),
distances to linear subspaces (= quotient norms), unit-ball volumes, and
samplers for l_p spheres and balls over either scalar field.

Vectors are one-dimensional numpy arrays, real or complex.
"""

import itertools
import math
import numbers
import sys
import zlib
from dataclasses import dataclass

import numpy as np

REAL = "real"
COMPLEX = "complex"

_FIELDS = (REAL, COMPLEX)


def inv_exponent(p):
    """1/p with the convention 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


def conjugate_exponent(p):
    """Hölder conjugate, with p' = inf for 0 < p <= 1 and inf' = 1."""
    if math.isinf(p):
        return 1.0
    if p <= 1.0:
        return math.inf
    return p / (p - 1.0)


def _check_exponent(p, name="p"):
    """p as a float, so that a numpy float32 p is not computed in single
    precision; ValueError unless p is a real number (not a bool) in (0, inf].
    A float skips the slower abstract-class check: norms call this per vector."""
    real = type(p) is float or (isinstance(p, numbers.Real) and not isinstance(p, bool))
    if not (real and not math.isnan(p) and p > 0):
        raise ValueError(f"{name} must be a positive number or inf, got {p!r}")
    return float(p)


def _check_dimension(n):
    """n as an int; ValueError unless n is a positive integer (a Python or
    numpy int, not a bool and not a float)."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class SpaceSpec:
    """A space l_p^n over the real or complex scalars.

    ``volumetric_dim`` is the dimension of the space viewed as a real vector
    space (n for real scalars, 2n for complex), which is the exponent that
    enters every volume comparison.
    """

    p: float
    n: int
    field: str = REAL

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        object.__setattr__(self, "n", _check_dimension(self.n))
        if self.field not in _FIELDS:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def volumetric_dim(self):
        return self.n if self.field == REAL else 2 * self.n


def _power_sums(a, q):
    """The sums of the q-th powers of the moduli a along the last axis, q < inf.
    A single vector's sum of squares is BLAS's dot: on the short vectors
    that lp_norm mostly gets, it takes half the time of the reduction."""
    if q == 2.0:
        return np.dot(a, a) if a.ndim == 1 else (a * a).sum(axis=-1)
    if q == 1.0:
        return a.sum(axis=-1)
    return (a**q).sum(axis=-1)


def _root(sums, q):
    """The l_q norms whose sums of q-th powers are ``sums``, q < inf."""
    return np.sqrt(sums) if q == 2.0 else sums if q == 1.0 else sums ** (1.0 / q)


def _norm_rows(A, q):
    """The l_q (quasi-)norm of each row of A (the last axis, under any stack
    axes), raw: a power out of the float range is left as it comes out."""
    a = np.abs(A)
    if math.isinf(q):
        return a.max(axis=-1)
    return _root(_power_sums(a, q), q)


def _scaled_norm_rows(A, q):
    """``_norm_rows`` of A with the one rescue rule for powers out of range.

    A finite nonzero row whose sum of q-th powers is below the smallest
    normal float, or whose value is not finite, is recomputed on the row
    divided by its largest modulus and multiplied back, so its value is inf
    or 0 only when the norm itself is out of the float range.  Every other
    row keeps its bits: a row with an inf entry is inf, one with a NaN is
    NaN.
    """
    a = np.abs(A)
    if math.isinf(q):
        return a.max(axis=-1)
    with np.errstate(over="ignore"):
        sums = _power_sums(a, q)
        v = _root(sums, q)
        ok = (sums >= sys.float_info.min) & (v < math.inf)
        # a single vector's ok is a numpy bool, whose all() costs a microsecond
        if not (ok.all() if ok.shape else ok):
            top = a.max(axis=-1)
            fix = ~ok & (top > 0.0) & (top < math.inf)
            top = np.where(fix, top, 1.0)
            v = np.where(fix, top * _root(_power_sums(a / top[..., None], q), q), v)
    return v


def lp_norm(x, p):
    """The l_p (quasi-)norm of a vector; max_j |x_j| for p = inf.

    Powers out of the float range are rescued by ``_scaled_norm_rows``'
    rule, so the value is inf or 0 only when the norm itself is out of the
    float range.
    """
    p = _check_exponent(p)
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("lp_norm of an empty vector is undefined")
    return float(_scaled_norm_rows(x.ravel(), p))


def quasi_constant(p):
    """Smallest triangle constant of l_p: max(1, 2^(1/p - 1)).

    Equals 1 for p >= 1 (genuine norm) and 2^(1/p - 1) for 0 < p < 1; the
    bound is attained asymptotically by pairs of disjointly supported
    vectors of equal norm.
    """
    p = _check_exponent(p)
    return max(1.0, 2.0 ** (inv_exponent(p) - 1.0))


def rho_exponent(C):
    """The exponent rho = ln 2 / ln(2C) attached to a triangle constant C >= 1."""
    if not C >= 1.0:
        raise ValueError(f"triangle constant must be >= 1, got {C!r}")
    return math.log(2.0) / math.log(2.0 * C)


@dataclass(frozen=True)
class QuasiNormInfo:
    """Triangle constant C, its doubling C0 = 2C and the exponent rho = ln2/ln C0."""

    C: float
    C0: float
    rho: float

    @classmethod
    def from_constant(cls, C):
        return cls(float(C), 2.0 * C, rho_exponent(C))

    @classmethod
    def for_exponent(cls, p):
        return cls.from_constant(quasi_constant(p))

    @property
    def equivalence_factor(self):
        """A = C0^2; the rho-norm satisfies ||x||_0 <= ||x|| <= A ||x||_0."""
        return self.C0**2


def _stable_seed(seed, x, *tail):
    """A generator seed from ``seed``, the bytes of the array x and the ints
    ``tail``, so a draw depends on its inputs alone, not on call order."""
    return [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(x).tobytes()), *tail]


def aoki_norm(x, p):
    """The Aoki-Rolewicz rho-norm of x in l_p, 0 < p < 1, in closed form:
    ||x||_0 = ||x||_p.  Its constants C, C0 and rho are
    ``QuasiNormInfo.for_exponent(p)``'s.

    Proof.  The triangle constant of l_p is C = 2^(1/p - 1), so 2C =
    2^(1/p) and rho = ln 2 / ln(2C) = p.  For scalars a, b and 0 < p <= 1,
    |a + b|^p <= (|a| + |b|)^p <= |a|^p + |b|^p, since t -> t^p is concave
    with 0^p = 0.  Summing over coordinates, ||f + g||_p^p <= ||f||_p^p +
    ||g||_p^p, and by induction ||x||_p^p <= sum_i ||f_i||_p^p for every
    decomposition x = f_1 + ... + f_m.  So no decomposition beats the
    trivial one [x], and the infimum ||x||_0 is attained there: ||x||_0 =
    ||x||_p.  Hence the sandwich ||x||_p / C0^2 <= ||x||_0 <= ||x||_p holds,
    and ||x + y||_0^rho <= ||x||_0^rho + ||y||_0^rho is p-subadditivity.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"the rho-norm needs 0 < p < 1, got {p!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    return lp_norm(x, float(p))


# ---------------------------------------------------------------------------
# distance to a subspace / quotient norm
# ---------------------------------------------------------------------------


# most m x m subsystems the exact q < 1 distance solves, and the most q = 1
# vertex anchors; larger real q < 1 bases descend
MAX_VERTEX_SYSTEMS = 512


def _arrangement_vertex_min(x, B, q):
    """Best l_q residual over vertices of the arrangement {x_i = (Bc)_i}.

    B must have full column rank.  Each vertex solves an m x m subsystem
    (m = subspace dimension), one per nonsingular choice of m rows, for at
    most MAX_VERTEX_SYSTEMS choices.  The solved rows count as exactly 0, as
    they are at the vertex itself: their rounding residue (about 1e-16)
    would otherwise add |1e-16|^q, which is 1e-8 at q = 1/2.  Returns the
    value and the residual of the best vertex, or (inf, None) when every
    subsystem is singular.
    """
    n, m = B.shape
    best, best_r = math.inf, None
    for rows in itertools.islice(itertools.combinations(range(n), m), MAX_VERTEX_SYSTEMS):
        rows = list(rows)
        try:
            c = np.linalg.solve(B[rows], x[rows])
        except np.linalg.LinAlgError:
            continue
        r = x - B @ c
        r[rows] = 0.0
        value = lp_norm(r, q)
        if value < best:
            best, best_r = value, r
    return best, best_r


def _dual(y, a, r):
    """A positive multiple of the vector z with z^H y = ||z||_r' ||y||_r,
    Hölder's equality case for 1 <= r < inf: z_i = |y_i|^(r-1) y_i / |y_i|
    (0 where y_i = 0), given the moduli a = |y|.  They are divided by the
    largest first, so no power overflows."""
    top = a.max()
    if top == 0.0:
        return y
    return y / (a + (a == 0.0)) * (a / top) ** (r - 1.0)


# a 1 <= q < inf distance from ``_convex_distance`` is accepted when its
# certified relative gap is at most this; otherwise the Nelder-Mead descent
# runs as well
CERTIFIED_GAP = 1e-9
# the objective evaluations of that Nelder-Mead descent, shared by its starts
DESCENT_BUDGET = 2000
_NEWTON_STEPS = 60
# the q = 1 smoothing mu is max |r| times 10^-s for these s, in turn
_SMOOTHING = (1, 3, 5, 7, 9, 11)


def _orthonormal_span(B):
    """(Q, tilt): orthonormal columns Q spanning span(B), by the SVD.
    Singular values up to max(n, m) eps sigma_1 count as rounding, the rank
    rule of lstsq, so a rank-deficient B gives fewer columns (none for
    B = 0).  tilt = max(n, m) eps sigma_1 / sigma_r bounds the sine of the
    angle between span Q and span B (Wedin: the SVD's backward error over
    sigma_r)."""
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    if not s.size or s[0] == 0.0:
        return U[:, :0], 0.0
    tol = max(B.shape) * np.finfo(float).eps * s[0]
    r = int((s > tol).sum())
    return U[:, :r], tol / s[r - 1]


def _dual_lower(x, Q, tilt, y, q):
    """Certified lower bound on dist(x, span B) in l_q, 1 <= q <= inf, from y,
    where (Q, tilt) is ``_orthonormal_span(B)``.

    Hahn-Banach (Singer, Best Approximation in Normed Linear Spaces, 1970):
    for y orthogonal to span B, every v in span B gives y^H (x - v) = y^H x,
    so by Hölder dist(x, span B) >= |y^H x| / ||y||_q'.  Here y is first
    projected, y <- y - Q (Q^H y), and what is left of y on span B is paid
    for.  The nearest point v* has ||v*||_q <= 2 ||x||_q (v = 0 is a
    candidate), so ||v*||_2 <= 2 n^a ||x||_q, a = max(0, 1/2 - 1/q).  With
    v* = Q w + f, the leftover e = Q^H y gives |y^H Q w| <= ||e||_2 ||v*||_2
    and f, ||f||_2 <= tilt ||v*||_2, gives |y^H f| <= ||y||_q' ||f||_q.  So

        dist >= (|y^H x| - 2 n^a ||x||_q ||e||_2) / ||y||_q'
                - 2 n^|1/2 - 1/q| tilt ||x||_q,

    clipped at 0, up to the rounding of these sums (a few n eps relative).
    """
    y = y - Q @ (Q.conj().T @ y)
    a = np.abs(y)
    top = a.max()
    if top == 0.0:
        return 0.0
    n = x.size
    norm = lp_norm(x, q)
    margin = 2.0 * n ** max(0.0, 0.5 - 1.0 / q) * norm * np.linalg.norm(Q.conj().T @ y)
    dual_norm = top * _norm_rows(a / top, conjugate_exponent(q))
    tilted = 2.0 * n ** abs(0.5 - 1.0 / q) * tilt * norm
    return max(0.0, (abs(np.vdot(y, x)) - margin) / dual_norm - tilted)


def _filled_sign_dual(Q, r):
    """The q = 1 dual of a residual r: r_i / |r_i| where r_i != 0, and on the
    coordinates Z where r vanishes the least-squares solution of
    Q_Z^H y_Z = -Q_~Z^H y_~Z, so that Q^H y = 0 when that system is solvable."""
    a = np.abs(r)
    y = _dual(r, a, 1.0).copy()
    zero = a == 0.0
    if zero.any():
        y[zero] = np.linalg.lstsq(Q[zero].conj().T, -(Q[~zero].conj().T @ y[~zero]),
                                  rcond=None)[0]
    return y


def _damped_newton(step_at, z, size):
    """Damped Newton iterations from z; returns (z, step_at(z)).

    step_at(z) is (objective, Newton step) or None where no step is defined.
    A step is halved until the objective falls.  A full step that raises
    the objective by rounding only (1e-14 relative) is taken when it
    shortens the next step: near the optimum the objective is flat to
    within rounding while the gradient, which the duality certificate
    depends on to first order, still falls quadratically.  When it does not
    shorten it, z is at the optimum to within rounding, and the iteration
    ends there rather than halving a step that cannot lower the objective.
    It also ends after _NEWTON_STEPS steps, after a step of at most
    1e-15 |z|, or when no step of at least 2^-20 of the full one lowers the
    objective.
    """
    cur = step_at(z)
    for _ in range(_NEWTON_STEPS):
        if cur is None or not size(cur[1]) > 0.0:
            break
        f, step = cur
        t = 1.0
        while t >= 2.0**-20:
            new = step_at(z + t * step)
            if new is not None and new[0] < f:
                break
            if t == 1.0 and new is not None and new[0] <= f * (1.0 + 1e-14):
                if size(new[1]) < size(step):
                    break
                return z, cur
            t *= 0.5
        else:
            break
        z, cur = z + t * step, new
        if size(t * step) <= 1e-15 * size(z):
            break
    return z, cur


def _newton_distance(x, Q, q, smooth=False):
    """min_c ||x - Q c||_q over complex c for 1 <= q < inf; returns (value, y).
    For real x and Q this is the minimum over real c, which the iteration
    keeps to: the imaginary coordinates of c get no gradient and stay 0.

    ``_damped_newton`` on sum_i (|r_i|^2 + mu^2)^(q/2), r = x - Q c, in the
    2m real coordinates of c, from the least-squares c.  At q = 1, and
    first for q > 1 when smooth is set, the kinks at r_i = 0 are smoothed:
    mu runs through max |r| 10^-s for s in _SMOOTHING, each stage started
    from the last.  q > 1 ends at mu = 0, and y is the Hölder dual of r
    (``_dual``), orthogonal to span Q at the optimum.  At q = 1 the
    residuals below sqrt(mu max |r|) are taken as vanishing, and y is
    ``_filled_sign_dual``.  A residual that vanishes exactly (q < 2 at
    mu = 0) has no finite curvature, and the iteration stops there; near a
    tiny one the plain steps creep, and the smoothed stages step past it.
    """
    n, m = Q.shape
    J = np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])
    xr = np.concatenate([x.real, x.imag])
    c = Q.conj().T @ x
    z = np.concatenate([c.real, c.imag])

    def smoothed(z, mu):
        v = xr - J @ z
        return v, v[:n] ** 2 + v[n:] ** 2 + mu * mu

    def step_at(z, mu):
        v, base = smoothed(z, mu)
        if not base.all() and q < 2.0:
            return None
        s = base ** (q / 2.0 - 1.0)
        grad = -q * (J.T @ (np.concatenate([s, s]) * v))
        # coordinate i's 2x2 block is q s_i (I + (q - 2) v_i v_i^T / base_i)
        W = v[:n, None] * J[:n] + v[n:, None] * J[n:]
        kappa = np.divide(s, base, out=np.zeros(n), where=base > 0.0)
        H = J.T @ (np.concatenate([s, s])[:, None] * J) + (q - 2.0) * (W.T @ (kappa[:, None] * W))
        try:
            return float((base ** (q / 2.0)).sum()), np.linalg.solve(q * H, -grad)
        except np.linalg.LinAlgError:
            return None

    top = float(np.sqrt(smoothed(z, 0.0)[1].max()))
    if top == 0.0:
        return 0.0, np.zeros_like(x)
    stages = [top * 10.0**-s for s in _SMOOTHING] if q == 1.0 or smooth else []
    for mu in stages + ([0.0] if q > 1.0 else []):
        z = _damped_newton(lambda z: step_at(z, mu), z, np.linalg.norm)[0]
    r = x - Q @ (z[:m] + 1j * z[m:])
    a = np.abs(r)
    if q == 1.0:
        return float(a.sum()), _filled_sign_dual(Q, np.where(a < math.sqrt(mu * top), 0.0, r))
    return lp_norm(r, q), _dual(r, a, q)


def _vertex_anchors(x, Q, q):
    """The q = 1 anchors where m residuals vanish (``_arrangement_vertex_min``);
    returns (value, y) as ``_newton_distance`` does."""
    value, r = _arrangement_vertex_min(x, Q, 1.0)
    return value, np.zeros_like(x) if r is None else _filled_sign_dual(Q, r)


def _exchange_distance(x, Q, q):
    """min_c ||x - Q c||_inf over real c, by Stiefel's exchange method
    (Cheney, Introduction to Approximation Theory, 1966, ch. 2); returns
    (value, y) as ``_newton_distance`` does.

    The distance is the maximum of |y^T x| / ||y||_1 over y orthogonal to
    span Q, and that polytope's vertices are supported on r + 1 rows, r the
    number of columns of Q.  A reference S of r + 1 rows gives one such y,
    the null vector of Q_S^T, and the residual that levels on S: h sign(y_i)
    on the rows of S, with h = y^T x / ||y||_1, the least deviation there.
    While a row j off S has a larger residual, j enters S, and the row whose
    removal keeps the largest |h| leaves; the exchange is made only when
    |h| rises, so no reference repeats.  At the maximising reference, when
    y vanishes nowhere on it, the leveled residual is a best approximation
    and its norm is |h|; ``_convex_distance`` certifies the pair either
    way.  The start is the r + 1 rows of largest least-squares residual.
    """
    n, r = Q.shape
    S = list(np.argsort(-np.abs(x - Q @ (Q.T @ x)), kind="stable")[: r + 1])
    for _ in range(n + _NEWTON_STEPS):
        y = np.zeros(n)
        y[S] = np.linalg.svd(Q[S])[0][:, -1]
        h = y @ x / np.abs(y).sum()
        level = x[S] - h * np.sign(y[S])
        # the rows of S but the one of largest |y_i| form an invertible block
        # when Q_S has rank r; LU on it levels more accurately than lstsq
        k = int(np.argmax(np.abs(y[S])))
        rows = S[:k] + S[k + 1:]
        try:
            c = np.linalg.solve(Q[rows], np.delete(level, k))
        except np.linalg.LinAlgError:
            c = np.linalg.lstsq(Q[S], level, rcond=None)[0]
        res = x - Q @ c
        j = int(np.argmax(np.abs(res)))
        if j in S:
            break
        # the null vectors of the r + 2 rows S + [j] form a plane; row i of W
        # is the one in it that vanishes at S[i]
        u, v = np.linalg.svd(Q[S + [j]].T)[2][-2:]
        W = (v[:, None] * u - u[:, None] * v)[:-1]
        norm1 = np.abs(W).sum(axis=1)
        gains = np.abs(W @ x[S + [j]]) / np.where(norm1 > 0.0, norm1, np.inf)
        i = int(np.argmax(gains))
        if not gains[i] > abs(h):
            break
        S[i] = j
    return float(np.abs(res).max()), y


def _convex_distance(x, Q, tilt, q):
    """(value, lower) for dist(x, span B) on either field for 1 <= q < inf,
    and on real data for q = inf, where (Q, tilt) is ``_orthonormal_span(B)``.

    ``value`` is the l_q norm of a computed residual x - Q c, so it is at
    least the distance (up to rounding), and ``lower`` is ``_dual_lower``'s
    certified bound.  x is first divided by a power of two near its largest
    modulus, which is exact and keeps every power finite.  Coordinates where
    x and Q both vanish add nothing to either side and are dropped.  q = 1
    tries the vertex anchors first (for one basis vector u these are the
    Fermat-Weber anchors x_i / u_i), then ``_newton_distance``; q = inf
    takes ``_exchange_distance``; any other q tries ``_newton_distance``
    plain, then smoothed.  The tries stop at the first that certifies the
    value to CERTIFIED_GAP, and the best value and lower over them are
    returned.
    """
    top = float(np.abs(x).max())
    if top == 0.0:
        return 0.0, 0.0
    scale = math.ldexp(1.0, math.frexp(top)[1])
    keep = (x != 0.0) | (Q != 0.0).any(axis=1)
    x, Q = x[keep] / scale, Q[keep]
    if Q.shape[1] == x.size:
        return 0.0, 0.0
    if Q.shape[1] == 0:
        value = lp_norm(x, q)
        return value * scale, value * scale
    if q == 1.0:
        tries = (_vertex_anchors, _newton_distance)
    elif math.isinf(q):
        tries = (_exchange_distance,)
    else:
        tries = (_newton_distance, lambda x, Q, q: _newton_distance(x, Q, q, smooth=True))
    value, lower = math.inf, 0.0
    for solve in tries:
        v, y = solve(x, Q, q)
        value, lower = min(value, v), max(lower, _dual_lower(x, Q, tilt, y, q))
        if value - lower <= CERTIFIED_GAP * value:
            break
    return value * scale, lower * scale


def _derivative_free_descent(objective, starts, maxfev):
    from scipy import optimize

    best = math.inf
    for c0 in starts:
        res = optimize.minimize(objective, c0, method="Nelder-Mead",
                                options={"maxfev": maxfev, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, float(res.fun))
    return best


def _one_field(x, B):
    """x, a vector or a stack of them, and the matrix B cast to one field:
    complex if either is complex."""
    if np.iscomplexobj(x) or np.iscomplexobj(B):
        return x.astype(complex), B.astype(complex)
    return x.astype(float), B.astype(float)


def _distance_caps(Y, Q, q):
    """The value dist(y, span Q) never exceeds, for each row y of Y:
    min(||y||_q, ||y - Q Q^H y||_q), or ||y - Q Q^H y||_2 when q = 2, which
    is then the distance itself.  Q has orthonormal columns, from
    ``_orthonormal_span``.  Each entry is a sum along one axis, in an order
    that the other rows do not change, so the cap of y alone is the same
    float as its cap in any stack."""
    C = (Y[:, None, :] * Q.conj().T).sum(axis=2)
    residual = _scaled_norm_rows(Y - (C[:, :, None] * Q.T).sum(axis=1), q)
    return residual if q == 2.0 else np.minimum(_scaled_norm_rows(Y, q), residual)


def _subspace_distance(x, B, Q, tilt, cap, q, seed=0):
    """dist_to_subspace(x, list(B.T), q, seed) from its one
    factorization: x and B of one field (``_one_field``), (Q, tilt) =
    ``_orthonormal_span(B)`` and cap, x's ``_distance_caps``.  The value
    is min(cap, the branch's value), so it never exceeds cap, bit for bit,
    and at q = 2 it is cap."""
    if q == 2.0:
        return cap
    iscomplex = np.iscomplexobj(x)
    n, m = B.shape

    if 1.0 <= q < math.inf or (math.isinf(q) and not iscomplex):
        value, lower = _convex_distance(x, Q, tilt, q)
        if (value - lower <= CERTIFIED_GAP * value
                or value <= 8.0 * n * np.finfo(float).eps * lp_norm(x, q)):
            return float(min(cap, value))
        cap = min(cap, value)
    elif not iscomplex and q < 1.0 and math.comb(n, Q.shape[1]) <= MAX_VERTEX_SYSTEMS:
        # q < 1: the objective is concave on every cell of the arrangement
        # {x_i = (Qc)_i}.  Q has independent columns, so every cell is a
        # pointed polyhedron, and a concave function that is bounded below on
        # one is smallest at a vertex, so the vertex minimum is the distance
        return float(min(cap, _arrangement_vertex_min(x, Q, q)[0]))

    # the descent, over z = c for real data and z = (Re c, Im c) for complex,
    # from the least-squares coefficients of B
    c_ls = np.linalg.lstsq(B, x, rcond=None)[0]
    z0 = np.concatenate([c_ls.real, c_ls.imag]) if iscomplex else c_ls
    starts = [z0, np.zeros(z0.size)]
    if q < 1.0:
        coords = x.view(float)
        rng = np.random.default_rng(_stable_seed(seed, coords, coords.size))
        scale = max(1.0, float(np.abs(z0).max(initial=0.0)))
        starts += [z0 + 0.5 * scale * rng.standard_normal(z0.size) for _ in range(6)]

    def objective(z):
        r = np.abs(x - B @ (z[:m] + 1j * z[m:] if iscomplex else z))
        return float(r.max() if math.isinf(q) else _power_sums(r, q))

    val = _derivative_free_descent(objective, starts, max(200, DESCENT_BUDGET // len(starts)))
    return float(min(cap, val if math.isinf(q) else val ** (1.0 / q)))


def dist_to_subspace(x, basis, q, seed=0):
    """Distance from x to span(basis) in the l_q (quasi-)norm.

    This equals the quotient norm of the class of x in l_q^n / span(basis).
    The basis is stacked, cast to one field with x, and factored once:
    (Q, tilt) = ``_orthonormal_span(B)``, orthonormal columns Q for its
    numerical span.  Every branch reads that one factorization, and each
    value is capped by ``_distance_caps``, min(||x||_q, ||x - Q Q^H x||_q),
    the norm of x and of its residual after orthogonal projection.  Each
    branch is exact, certified or a descent:

    - q = 2, either field: exact, the cap ||x - Q Q^H x||_2 (orthogonal
      projection).
    - Every other 1 <= q < inf, either field, and real q = inf: certified.
      ``_convex_distance`` solves the convex problem on Q in numpy alone (at
      q = 1 the vertex anchors, where as many residuals vanish as Q has
      columns, then smoothed Newton steps; plain Newton steps for
      1 < q < inf; Stiefel's exchange method for real q = inf) and bounds
      the distance from below by a Hahn-Banach certificate:
      dist(x, V) >= |y^H x| / ||y||_q' for every y orthogonal to V (Singer,
      Best Approximation in Normed Linear Spaces, 1970), with y the Hölder
      dual of the final residual (the exchange method's reference vector
      at q = inf), less the rounding margin that ``_dual_lower`` proves.
      The value is returned when it is within CERTIFIED_GAP (relative) of
      that bound, or when it is at most 8 n eps ||x||_q: the residual
      x - Q c rounds at the scale of x, so such a value is the distance up
      to that rounding (a point in span(basis), where the bound is 0).
      Otherwise the Nelder-Mead descent below also runs, and the smaller
      value is returned; so no value is above the descent's by more than
      its certified gap.
    - Real q < 1: not convex, but concave on each cell of the arrangement
      {x_i = (Qc)_i}.  Exact, up to rounding, when comb(n, rank) <=
      MAX_VERTEX_SYSTEMS, by minimising over the cell vertices; Q's columns
      are independent, so a rank-deficient basis takes this route too.
    - Everything else (complex q = inf, complex q < 1, real q < 1 above the
      vertex cap, and the uncertified convex values): a descent, Nelder-Mead
      from the least-squares and the zero coefficients of the stacked basis
      over their real coordinates (the real and imaginary parts for complex
      data), with six more seeded starts for q < 1, DESCENT_BUDGET
      objective evaluations in all.  scipy is loaded only for it.

    A descent returns an upper approximation of the infimum.  Every value
    is at most the cap.
    """
    q = _check_exponent(q, "q")
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d vector")
    basis = [np.asarray(b) for b in basis]
    if not basis:
        return lp_norm(x, q)
    for b in basis:
        if b.shape != x.shape:
            raise ValueError(f"basis vector shape {b.shape} does not match x shape {x.shape}")
    x, B = _one_field(x, np.column_stack(basis))
    Q, tilt = _orthonormal_span(B)
    cap = float(_distance_caps(x[None], Q, q)[0])
    return _subspace_distance(x, B, Q, tilt, cap, q, seed)


# ---------------------------------------------------------------------------
# unit-ball volumes
# ---------------------------------------------------------------------------


def log_ball_volume(space):
    """log of the Lebesgue volume of the closed unit ball of the space.

    Complex balls are measured in R^(2n):

        vol = pi^n Gamma(1 + 2/p)^n / Gamma(1 + 2n/p),

    real balls in R^n:

        vol = 2^n Gamma(1 + 1/p)^n / Gamma(1 + n/p).

    Both limits at p = inf come out right (pi^n and 2^n) since Gamma(1) = 1.
    Computed in log space so large n stays finite.
    """
    if not isinstance(space, SpaceSpec):
        raise TypeError("expected a SpaceSpec")
    ip = inv_exponent(space.p)
    n = space.n
    if space.field == COMPLEX:
        return n * math.log(math.pi) + n * math.lgamma(1.0 + 2.0 * ip) - math.lgamma(1.0 + 2.0 * n * ip)
    return n * math.log(2.0) + n * math.lgamma(1.0 + ip) - math.lgamma(1.0 + n * ip)


def ball_volume(space):
    """Lebesgue volume of the closed unit ball of l_p^n (see log_ball_volume)."""
    return math.exp(log_ball_volume(space))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_sphere(rng, n, p, field=REAL, size=1):
    """Points with lp_norm exactly 1, as rows of a (size, n) array.

    Finite p uses the Gamma(1/p) representation, which is uniform with
    respect to the cone measure of the sphere; p = inf scales uniform cube
    points onto the boundary.  Complex points get independent uniform phases
    on top of real moduli.  Raises ValueError when p is so small that a
    power 1/p of the draws or of their norm overflows a float.
    """
    p = _check_exponent(p)
    if field == COMPLEX:
        r = np.abs(sample_sphere(rng, n, p, REAL, size))
        phase = rng.uniform(0.0, 2.0 * np.pi, (size, n))
        return r * np.exp(1j * phase)
    if math.isinf(p):
        x = rng.uniform(-1.0, 1.0, (size, n))
        m = np.abs(x).max(axis=1, keepdims=True)
        m[m == 0.0] = 1.0
        return x / m
    with np.errstate(over="ignore"):
        g = rng.gamma(1.0 / p, 1.0, (size, n)) ** (1.0 / p)
        g *= rng.choice([-1.0, 1.0], (size, n))
        norms = _norm_rows(g, p)
    if not np.all(np.isfinite(norms)):
        raise ValueError(f"exponent p={p!r} is too small to sample the l_p sphere: "
                         f"a power 1/p of its Gamma(1/p) draws overflows a float")
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


def sample_ball(rng, n, p, field=REAL, size=1):
    """Points with lp_norm <= 1 (boundary-biased radial mixing)."""
    x = sample_sphere(rng, n, p, field, size)
    t = rng.random((size, 1)) ** (1.0 / max(1, n))
    return x * t
