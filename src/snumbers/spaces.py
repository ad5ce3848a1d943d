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
implements the constants, a bounded search approximating ||.||_0 from above,
distances to linear subspaces (= quotient norms), unit-ball volumes, and
samplers for l_p spheres and balls over either scalar field.

Vectors are one-dimensional numpy arrays, real or complex.
"""

import itertools
import math
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
    if not (isinstance(p, (int, float)) and not math.isnan(p) and p > 0):
        raise ValueError(f"{name} must be a positive number or inf, got {p!r}")


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
        _check_exponent(self.p)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.field not in _FIELDS:
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def volumetric_dim(self):
        return self.n if self.field == REAL else 2 * self.n


def _abs_norm_function(p):
    """The map a -> ||a||_p on nonempty 1-d arrays of moduli, p already checked.

    This is lp_norm's own arithmetic with the exponent dispatched once, so a
    loop that takes many norms at one p gets the same floats as lp_norm
    without re-validating p on every call.
    """
    if math.isinf(p):
        return lambda a: float(a.max())
    if p == 2.0:
        return lambda a: float(np.sqrt(np.dot(a, a)))
    if p == 1.0:
        return lambda a: float(a.sum())
    return lambda a: float((a**p).sum() ** (1.0 / p))


def lp_norm(x, p):
    """The l_p (quasi-)norm of a vector; max_j |x_j| for p = inf."""
    _check_exponent(p)
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("lp_norm of an empty vector is undefined")
    return _abs_norm_function(p)(np.abs(x).ravel())


def quasi_constant(p):
    """Smallest triangle constant of l_p: max(1, 2^(1/p - 1)).

    Equals 1 for p >= 1 (genuine norm) and 2^(1/p - 1) for 0 < p < 1; the
    bound is attained asymptotically by pairs of disjointly supported
    vectors of equal norm.
    """
    _check_exponent(p)
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


def _stable_seed(seed, x):
    """Deterministic per-vector rng seed (independent of call order)."""
    return [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(x).tobytes()), x.size]


class AokiNorm:
    """Bounded-search upper approximation of the rho-norm of l_p, 0 < p < 1.

    The search pool contains the trivial decomposition, coordinate
    bipartitions, `trials` random signed splits, and greedy refinements with
    up to `depth` parts.  Every pool entry is a genuine decomposition, so the
    returned value is an upper bound of the true infimum; the sandwich
    ||x||_p / C0^2 <= result <= ||x||_p therefore holds automatically.

    The evaluator memoises the best decomposition per vector.  For sums use
    ``value_of_sum(x, y)``: the pool for x+y then contains the concatenation
    of the stored decompositions of x and y, which makes

        value(x+y)^rho <= value(x)^rho + value(y)^rho

    hold by construction.
    """

    def __init__(self, p, depth=3, trials=32, seed=0):
        if not (0.0 < p < 1.0):
            raise ValueError(f"the rho-norm search needs 0 < p < 1, got {p!r}")
        if not depth >= 1:
            raise ValueError("depth must be >= 1")
        if not trials >= 1:
            raise ValueError("trials must be >= 1")
        self.p = float(p)
        self.depth = int(depth)
        self.trials = int(trials)
        self.seed = int(seed)
        self.info = QuasiNormInfo.for_exponent(p)
        self._cache = {}

    # -- scoring ---------------------------------------------------------

    def _score(self, parts):
        rho = self.info.rho
        s = sum(lp_norm(f, self.p) ** rho for f in parts)
        return float(s ** (1.0 / rho))

    def _two_part_splits(self, x, rng):
        """Candidate splits x = u + (x - u): coordinate masks and signed blends."""
        n = x.size
        out = []
        if n > 1:
            if n <= 10:
                masks = range(1, 2 ** (n - 1))
            else:
                masks = (int(rng.integers(1, 2**n - 1)) for _ in range(self.trials))
            for m in masks:
                sel = np.array([(m >> i) & 1 for i in range(n)], dtype=bool)
                u = np.where(sel, x, 0.0)
                out.append((u, x - u))
        for _ in range(self.trials):
            t = rng.uniform(-0.5, 1.5, n)
            u = x * t
            out.append((u, x - u))
        return out

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x, extra_pool=()):
        """Return (value, parts) of the best decomposition found for x."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("expected a nonempty 1-d vector")
        key = (x.shape, x.tobytes())
        rng = np.random.default_rng(_stable_seed(self.seed, x))

        pool = [[x]]
        for u, v in self._two_part_splits(x, rng):
            pool.append([u, v])
        for parts in extra_pool:
            pool.append([np.asarray(f, dtype=float) for f in parts])

        best = min(pool, key=self._score)
        # greedy refinement: keep splitting the heaviest part while it pays
        current = [f for f in best]
        while len(current) < self.depth:
            i = max(range(len(current)), key=lambda j: lp_norm(current[j], self.p))
            head = current[i]
            if not np.any(head):
                break
            sub = [[head]] + [[u, v] for u, v in self._two_part_splits(head, rng)]
            chosen = min(sub, key=self._score)
            if len(chosen) == 1:
                break
            trial = current[:i] + chosen + current[i + 1 :]
            if self._score(trial) >= self._score(current) - 1e-15:
                break
            current = trial
        if self._score(current) < self._score(best):
            best = current

        val = self._score(best)
        prev = self._cache.get(key)
        if prev is None or val < prev[0]:
            self._cache[key] = (val, [f.copy() for f in best])
        return self._cache[key]

    def value(self, x):
        return self.evaluate(x)[0]

    def parts(self, x):
        return [f.copy() for f in self.evaluate(x)[1]]

    def value_of_sum(self, x, y):
        """Value at x + y with the pool seeded by the stored decompositions of x and y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        _, px = self.evaluate(x)
        _, py = self.evaluate(y)
        return self.evaluate(x + y, extra_pool=[list(px) + list(py)])[0]


def aoki_norm(x, p, depth=3, trials=32, seed=0):
    """One-shot upper approximation of the Aoki-Rolewicz rho-norm of x in l_p.

    The result lies in [||x||_p / (2C)^2, ||x||_p] with C the triangle
    constant of l_p; see :class:`AokiNorm` for the search contract.
    """
    return AokiNorm(p, depth=depth, trials=trials, seed=seed).value(x)


# ---------------------------------------------------------------------------
# distance to a subspace / quotient norm
# ---------------------------------------------------------------------------


# most m x m subsystems the exact q < 1 distance solves; larger bases descend
MAX_VERTEX_SYSTEMS = 512


def _lq_power(x, q):
    return float((np.abs(x) ** q).sum())


def _linprog_distance(x, B, q):
    """Exact min_c ||x - B c||_q for q in {1, inf} on real data (LP)."""
    from scipy import optimize

    n, m = B.shape
    if math.isinf(q):
        # minimise t  s.t.  -t <= x - B c <= t
        col = np.ones((n, 1))
        A_ub = np.block([[B, -col], [-B, -col]])
        b_ub = np.concatenate([x, -x])
        cobj = np.zeros(m + 1)
        cobj[-1] = 1.0
        bounds = [(None, None)] * m + [(0, None)]
    else:
        # q == 1: minimise sum t_i  s.t.  -t <= x - B c <= t  componentwise
        eye = np.eye(n)
        A_ub = np.block([[B, -eye], [-B, -eye]])
        b_ub = np.concatenate([x, -x])
        cobj = np.concatenate([np.zeros(m), np.ones(n)])
        bounds = [(None, None)] * m + [(0, None)] * n
    res = optimize.linprog(cobj, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return math.inf
    return float(res.fun)


def _smooth_descent(x, B, q, starts):
    """Gradient descent on ||x - B c||_q^q for real data, 1 < q < inf."""
    from scipy import optimize

    def fg(c):
        r = x - B @ c
        a = np.abs(r)
        f = float((a**q).sum())
        g = -q * (B.T @ (np.sign(r) * a ** (q - 1.0)))
        return f, g

    best = math.inf
    for c0 in starts:
        res = optimize.minimize(fg, c0, jac=True, method="L-BFGS-B",
                                options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        best = min(best, float(res.fun))
    return best ** (1.0 / q)


def _arrangement_vertex_min(x, B, q):
    """Best l_q residual over vertices of the arrangement {x_i = (Bc)_i}.

    B must have full column rank.  Each vertex solves an m x m subsystem
    (m = subspace dimension), one per nonsingular choice of m rows.  The
    solved rows count as exactly 0, as they are at the vertex itself: their
    rounding residue (about 1e-16) would otherwise add |1e-16|^q, which is
    1e-8 at q = 1/2.
    """
    n, m = B.shape
    best = math.inf
    for rows in itertools.combinations(range(n), m):
        rows = list(rows)
        try:
            c = np.linalg.solve(B[rows], x[rows])
        except np.linalg.LinAlgError:
            continue
        r = x - B @ c
        r[rows] = 0.0
        best = min(best, lp_norm(r, q))
    return best


def _derivative_free_descent(objective, starts, maxfev):
    from scipy import optimize

    best = math.inf
    for c0 in starts:
        res = optimize.minimize(objective, c0, method="Nelder-Mead",
                                options={"maxfev": maxfev, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, float(res.fun))
    return best


def _distance_start(x, basis, q):
    """The start every dist_to_subspace(x, basis, q) solve takes, and its cap.

    Returns (x, B, c_ls, r_ls, rank, cap): x and the stacked basis B cast to
    one field, the least-squares coefficients, residual and rank of B, and
    cap = min(||x||_q, ||r_ls||_q), or ||r_ls||_2 when q = 2.  The distance
    is min(cap, solver value), so it never exceeds cap, and at q = 2 it is
    cap.  x must be 1-d and the basis nonempty.
    """
    x = np.asarray(x)
    basis = [np.asarray(b) for b in basis]
    for b in basis:
        if b.shape != x.shape:
            raise ValueError(f"basis vector shape {b.shape} does not match x shape {x.shape}")
    B = np.column_stack(basis)
    if np.iscomplexobj(x) or np.iscomplexobj(B):
        x = x.astype(complex)
        B = B.astype(complex)
    else:
        x = x.astype(float)
        B = B.astype(float)

    c_ls, _, rank, _ = np.linalg.lstsq(B, x, rcond=None)
    r_ls = x - B @ c_ls
    if q == 2.0:
        return x, B, c_ls, r_ls, rank, float(np.linalg.norm(r_ls))
    return x, B, c_ls, r_ls, rank, min(lp_norm(x, q), lp_norm(r_ls, q))


def dist_to_subspace(x, basis, q, budget=2000, seed=0):
    """Distance from x to span(basis) in the l_q (quasi-)norm.

    This equals the quotient norm of the class of x in l_q^n / span(basis).
    Exact for q = 2 (orthogonal projection) and, on real data, for q in
    {1, inf} (linear programming).  Other q >= 1 use convex descent from the
    l_2 projection.  Real q < 1 is not convex but concave on each cell of
    the arrangement {x_i = (Bc)_i}; it is exact, up to rounding, when the
    basis vectors are linearly independent and comb(n, len(basis)) <=
    MAX_VERTEX_SYSTEMS, by minimising over the cell vertices.  Otherwise,
    and for complex q < 1, a randomized multi-start descent returns an
    upper approximation of the infimum.  The zero and the least-squares
    coefficients are always in the candidate set, so the result never
    exceeds min(||x||_q, ||x - B c_ls||_q).
    """
    _check_exponent(q, "q")
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("x must be a 1-d vector")
    basis = list(basis)
    if not basis:
        return lp_norm(x, q)
    x, B, c_ls, r_ls, rank, best = _distance_start(x, basis, q)
    if q == 2.0:
        return best
    iscomplex = np.iscomplexobj(x)
    n, m = B.shape

    if not iscomplex:
        if q >= 1.0:
            if q == 1.0 or math.isinf(q):
                best = min(best, _linprog_distance(x, B, q))
            else:
                best = min(best, _smooth_descent(x, B, q, [c_ls, np.zeros(m)]))
            return float(best)
        # q < 1: the objective is concave on every cell of the arrangement
        # {x_i = (Bc)_i}.  With full column rank every cell is a pointed
        # polyhedron, and a concave function that is bounded below on one
        # is smallest at a vertex, so the vertex minimum is the distance
        if rank == m and math.comb(n, m) <= MAX_VERTEX_SYSTEMS:
            return float(min(best, _arrangement_vertex_min(x, B, q)))
        # rank-deficient (no vertices) or too many vertices: multi-start descent
        rng = np.random.default_rng(_stable_seed(seed, x))
        scale = max(1.0, float(np.abs(c_ls).max(initial=0.0)))
        starts = [c_ls, np.zeros(m)]
        starts += [c_ls + 0.5 * scale * rng.standard_normal(m) for _ in range(6)]
        maxfev = max(100, budget // max(1, len(starts)))
        val = _derivative_free_descent(lambda c: _lq_power(x - B @ c, q), starts, maxfev)
        return float(min(best, val ** (1.0 / q)))

    # complex data: optimise over real and imaginary coefficient parts
    def unpack(z):
        return z[:m] + 1j * z[m:]

    rng = np.random.default_rng(_stable_seed(seed, np.ascontiguousarray(x.view(float))))
    z0 = np.concatenate([c_ls.real, c_ls.imag])
    starts = [z0, np.zeros(2 * m)]
    if q < 1.0:
        scale = max(1.0, float(np.abs(z0).max(initial=0.0)))
        starts += [z0 + 0.5 * scale * rng.standard_normal(2 * m) for _ in range(6)]
    qq = min(q, 1.0) if math.isinf(q) else q

    def objective(z):
        r = np.abs(x - B @ unpack(z))
        if math.isinf(q):
            return float(r.max())
        return float((r**qq).sum())

    maxfev = max(200, budget // max(1, len(starts)))
    val = _derivative_free_descent(objective, starts, maxfev)
    if not math.isinf(q):
        val = val ** (1.0 / qq)
    return float(min(best, val))


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
    _check_exponent(p)
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
        norms = (np.abs(g) ** p).sum(axis=1) ** (1.0 / p)
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
