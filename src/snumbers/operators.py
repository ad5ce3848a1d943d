"""Matrices as bounded operators between l_p^n spaces.

A LinOp is a matrix together with explicit domain and codomain space
descriptors; the operator (quasi-)norm then depends on both exponents.
``op_norm`` is exact wherever a short proof makes it so: the identity
formula; the largest column for p <= min(1, q) (q-subadditivity); sigma_1
for p = q = 2; the largest row l_p' norm for q = inf (Hölder); and, for
real matrices, the sign vectors for p >= 1, q = 1 (duality) and the cube's
vertices for p = inf, q >= 1 (convexity), each while the enumerated
dimension is at most 16.  The op_norm docstring gives the proofs.  The
general p -> q norm is NP-hard, so elsewhere the norm is a two-sided
certified bracket: ``_norm_upper``'s upper, from exact norms by Riesz-Thorin
interpolation and by factorisation through identities, and a lower from
Boyd's nonlinear power method for p, q >= 1, or from a seeded sampled
ascent for the quasi-norm cases q < min(1, p).  Every norm comes back as a
``Bracket``, the package's one shape for "a lower, an upper, and how sure".
"""

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
    _check_dimension,
    _dual,
    _norm_rows,
    _scaled_norm_rows,
    _stable_seed,
    conjugate_exponent,
    inv_exponent,
    sample_sphere,
)


EXACT = "exact"  # the value itself
CERTIFIED = "certified"  # a proved bound on its side
ESTIMATE = "estimate"  # a heuristic value, which may miss on its side
SHAPE = "shape"  # an equivalence shape with unknown constants

# op_norm's paths in its dispatch order: the six exact ones, then the two
# certified brackets; the dispatch takes its method names from here
NORM_PATHS = ("identity-formula", "column-max", "svd", "row-max", "sign-enumeration",
              "vertex-enumeration", "power-method", "sampled-ascent")
_IDENTITY, _COLUMN_MAX, _SVD, _ROW_MAX, _SIGNS, _VERTICES, _POWER, _ASCENT = NORM_PATHS


class BracketError(ValueError):
    """A bracket whose sides contradict their kinds: a fault of its producer."""


@dataclass(frozen=True)
class Bracket:
    """A lower and an upper value, each with its kind (or both None), and the
    method or case that produced them.  Refused: NaN, a kind without a value
    or a value without one, ``exact`` on one side only or on two unequal
    sides, and ``lower > upper + 1e-12 * min(1, |upper|)`` unless a side is
    an ``estimate`` (which may undershoot): an absolute 1e-12 at and above
    1, and relative below it, so crossed sides are refused at every scale.
    The modulus keeps the allowance positive for negative sides, such as a
    log-volume."""

    lower: float | None
    upper: float | None
    lower_kind: str | None
    upper_kind: str | None
    method: str

    def __post_init__(self):
        lo, hi, lo_kind, hi_kind = self.lower, self.upper, self.lower_kind, self.upper_kind
        if ((lo is None) != (lo_kind is None) or (hi is None) != (hi_kind is None)
                or lo != lo or hi != hi  # NaN
                or (EXACT in (lo_kind, hi_kind) and not (lo_kind == hi_kind and lo == hi))
                or (lo is not None and hi is not None
                    and lo > hi + 1e-12 * min(1.0, abs(hi))
                    and ESTIMATE not in (lo_kind, hi_kind))):
            raise BracketError(f"inconsistent {self}")

    @classmethod
    def point(cls, value, kind, method):
        """Both sides at one value of one kind: an exact value or a shape."""
        return cls(value, value, kind, kind, method)

    @classmethod
    def meet(cls, *brackets):
        """The tightest bracket that the sides of kind ``exact`` or
        ``certified`` among ``brackets`` prove: their largest lower and their
        smallest upper, both certified.  Other sides are dropped, so an
        estimate or shape never displaces a certified side.  On a tie the
        earlier bracket wins; the method names the winner, or is
        ``lower|upper`` when the two winners differ.  Crossed sides raise
        BracketError, as the constructor does; an exact input that passes
        that check is returned whole."""
        sure = (EXACT, CERTIFIED)
        lo, lo_method = max(((b.lower, b.method) for b in brackets if b.lower_kind in sure),
                            key=lambda side: side[0], default=(None, None))
        hi, hi_method = min(((b.upper, b.method) for b in brackets if b.upper_kind in sure),
                            key=lambda side: side[0], default=(None, None))
        met = cls(lo, hi, None if lo is None else CERTIFIED, None if hi is None else CERTIFIED,
                  "|".join(dict.fromkeys(m for m in (lo_method, hi_method) if m)))
        return next((b for b in brackets if b.exact), met)

    @property
    def exact(self):
        return self.lower_kind == EXACT and self.upper_kind == EXACT


@dataclass(frozen=True)
class LinOp:
    """A matrix as an operator from ``domain`` to ``codomain``.

    The matrix is a private read-only copy, so results that depend only on
    the operator can be kept in ``_memo`` (the entropy packing keeps its
    traversal there) for as long as the operator lives.
    """

    matrix: np.ndarray
    domain: SpaceSpec
    codomain: SpaceSpec
    # a dataclasses.field, spelled out: the class has a `field` property
    _memo: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        M = np.asarray(self.matrix)
        if M.ndim != 2:
            raise ValueError("operator matrix must be 2-d")
        if M.shape != (self.codomain.n, self.domain.n):
            raise ValueError(
                f"matrix shape {M.shape} does not match spaces "
                f"({self.codomain.n}, {self.domain.n})"
            )
        if self.domain.field != self.codomain.field:
            raise ValueError("domain and codomain must share the scalar field")
        if np.iscomplexobj(M) and self.domain.field != COMPLEX:
            raise ValueError("complex matrix over real spaces")
        dtype = complex if self.domain.field == COMPLEX else float
        # a copy: the caller's array stays writable and cannot change T
        M = np.array(M, dtype=dtype, order="C")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def field(self):
        return self.domain.field

    @property
    def shape(self):
        return self.matrix.shape

    def __call__(self, x):
        return self.matrix @ np.asarray(x)


def operator(matrix, p, q, field=None):
    """Wrap a matrix as an operator l_p -> l_q; the field is inferred if omitted."""
    M = np.asarray(matrix)
    if M.ndim != 2:
        raise ValueError("operator matrix must be 2-d")
    if field is None:
        field = COMPLEX if np.iscomplexobj(M) else REAL
    m, n = M.shape
    return LinOp(M, SpaceSpec(p, n, field), SpaceSpec(q, m, field))


def identity_operator(n, p, q, field=REAL):
    """The identity id: l_p^n -> l_q^n."""
    return operator(np.eye(_check_dimension(n)), p, q, field=field)


def diagonal_operator(diag, p=2.0, q=2.0, field=None):
    diag = np.asarray(diag)
    return operator(np.diag(diag), p, q, field=field)


def add(S, T):
    """Pointwise sum; spaces must match exactly."""
    if S.domain != T.domain or S.codomain != T.codomain:
        raise ValueError("operator sum needs identical domain and codomain specs")
    return LinOp(S.matrix + T.matrix, S.domain, S.codomain)


def compose(S, T):
    """The composition S after T (first apply T)."""
    if T.codomain != S.domain:
        raise ValueError(
            f"cannot compose: T maps into {T.codomain}, S expects {S.domain}"
        )
    return LinOp(S.matrix @ T.matrix, T.domain, S.codomain)


def realify(T):
    """The real 2n x 2m block form [[Re, -Im], [Im, Re]] of a complex operator.

    Every singular value of T appears twice among the singular values of the
    realification, which is what the real/complex comparison of s-numbers
    consumes.
    """
    if T.field != COMPLEX:
        raise ValueError("realify expects a complex operator")
    M = T.matrix
    R = np.block([[M.real, -M.imag], [M.imag, M.real]])
    return operator(R, T.domain.p, T.codomain.p, field=REAL)


def singular_values(T):
    return np.linalg.svd(T.matrix, compute_uv=False)


def numerical_rank(T, tol=1e-10):
    """Number of singular values above tol * sigma_1 (0 for the zero operator)."""
    s = singular_values(T)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int((s > tol * s[0]).sum())


def is_identity(M):
    """True where the last two axes of M hold exactly a square identity
    matrix: one bool for a matrix, one per slice for a stack of them."""
    m, n = M.shape[-2:]
    if m != n:
        return np.zeros(M.shape[:-2], dtype=bool)[()]
    return (M == np.eye(n, dtype=M.dtype)).all(axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _half_cube(d):
    """The 2^(d-1) sign vectors s in {-1, 1}^d with s_1 = +1, as rows.  The
    other half of the vertices are their negatives, whose images have the
    same norms."""
    bits = (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)) & 1
    S = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    S.setflags(write=False)
    return S


def _max_image_norms(S, As, r):
    """For each matrix A of the stack As, max ||A s||_r over the rows s of S.
    The rows of S go in blocks of at most 2^16 image entries, and the
    matrices in groups whose images of one block hold at most 2^16 entries
    (one matrix at least), so 2^15 sign vectors of a wide matrix take little
    memory; each image is one block's product, whatever the group."""
    d = As.shape[1]
    step = max(1, 65536 // d)
    group = max(1, 65536 // (min(step, S.shape[0]) * d))
    out = np.empty(As.shape[0])
    for g in range(0, As.shape[0], group):
        G = As[g:g + group].transpose(0, 2, 1)
        out[g:g + group] = np.max([_scaled_norm_rows(S[i:i + step] @ G, r).max(axis=-1)
                                   for i in range(0, S.shape[0], step)], axis=0)
    return out


def _unit_directions(n, field):
    eye = np.eye(n)
    dirs = [eye, -eye]
    if field == COMPLEX:
        dirs += [1j * eye]
    return np.vstack(dirs)


def _prescaled(path):
    """A non-exact op_norm lower run on M = T.matrix / s, and its value
    times s, for a power of two s.

    s is 1 unless the largest modulus of T's matrix times max(m, n) reaches
    2^1020.  The paths multiply M only by vectors whose entries have modulus
    at most 1 (sphere points, and duals divided by their largest entry), and
    M^H likewise, so below that no product overflows, and above it M / s
    keeps them finite.  Division and multiplication by a power of two are
    exact, so the value is the norm of T's own matrix; with s = 1 every bit
    is unchanged.  The path's generator is still seeded from T.matrix.
    """
    @functools.wraps(path)
    def run(T, budget, seed):
        top = float(np.abs(T.matrix).max(initial=0.0))
        shift = (math.ceil(math.log2(top) + math.log2(max(T.shape)) - 1020.0)
                 if 0.0 < top < math.inf else 0)
        scale = math.ldexp(1.0, shift) if shift > 0 else 1.0
        return path(T, T.matrix / scale, budget, seed) * scale
    return run


def _sample_phase(T, M, budget, seed):
    """The sampling phase of both non-exact paths: the signed unit vectors
    (and i e_j for complex scalars) and max(16, budget // 2) seeded points of
    the l_p sphere, with their norms under M (T's matrix, or a ``_prescaled``
    multiple of it), sorted best first.  The generator is seeded from
    ``(seed, T.matrix)``, so no other call changes its draws; it is returned
    for the ascent's steps."""
    n = T.domain.n
    rng = np.random.default_rng(_stable_seed(seed, T.matrix))
    X = np.vstack([_unit_directions(n, T.field),
                   sample_sphere(rng, n, T.domain.p, T.field, max(16, budget // 2))])
    vals = _scaled_norm_rows(X @ M.T, T.codomain.p)
    return rng, X, vals, np.argsort(vals)[::-1]


@_prescaled
def _sampled_ascent(T, M, budget, seed):
    """Seeded lower bound for ||T: l_p -> l_q|| by sampling plus hill climbing.

    The value is the running maximum of the sampled norms and of the four
    climbs from the best samples.
    """
    p, q = T.domain.p, T.codomain.p
    n = T.domain.n
    rng, X, vals, order = _sample_phase(T, M, budget, seed)
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
            ny = _norm_rows(y, p)
            spent += 1
            if ny == 0.0:
                continue
            y = y / ny
            v = float(_norm_rows(M @ y, q))
            if v > cur:
                x, cur = y, v
            else:
                radius *= 0.8
        best = max(best, cur)
    return best


@_prescaled
def _power_method(T, M, budget, seed):
    """Certified lower for ||T: l_p -> l_q||, p, q >= 1, by Boyd's nonlinear
    power method (Boyd, Linear Algebra Appl. 9, 1974).

    The sampling phase is the ascent's (``_sample_phase``).  From the four
    best samples and from the top right singular vector, each normalised in
    l_p, the iteration is x <- dual_p'(A^H dual_q(A x)), normalised in l_p.
    A^H is the conjugate transpose, and dual_r(y) is the z of
    ``spaces._dual`` scaled to ||z||_r' = 1, so that z^H y = sum_i
    conj(z_i) y_i = ||y||_r.
    With z = dual_q(A x_k) and w = A^H z, Hölder gives

        ||A x_k||_q = z^H A x_k = w^H x_k <= ||w||_p'
                    = x_{k+1}^H w = z^H A x_{k+1} <= ||A x_{k+1}||_q,

    where the middle equality is the equality case of x_{k+1} =
    dual_p'(w), and each inner product that equals a norm is real.  So in
    exact arithmetic no step decreases the value.  In floating point the
    values at the fixed point jitter by a few ulps, so a start ends at the
    second successive step that does not raise its maximum, or when
    ``budget`` norms are spent.

    The value is the running maximum of the sampled norms and of the
    iterates, so it is never below the sample maximum.  Each iterate's norm
    is ``_scaled_norm_rows``', which rescues powers out of the float range.
    """
    MH = M.conj().T
    p, q = T.domain.p, T.codomain.p
    dual_p = conjugate_exponent(p)
    _, X, vals, order = _sample_phase(T, M, budget, seed)
    best = float(vals[order[0]])
    spent = X.shape[0]
    top = np.linalg.svd(M, full_matrices=False)[2][0].conj()
    for x in [X[i] for i in order[:4]] + [top / _norm_rows(top, p)]:
        cur, misses = 0.0, 0
        while spent < budget:
            y = M @ x
            v = float(_scaled_norm_rows(y, q))
            spent += 1
            if not v > cur:
                misses += 1
                if misses == 2:
                    break
            else:
                misses = 0
                cur = v
            w = MH @ _dual(y, np.abs(y), q)
            x = _dual(w, np.abs(w), dual_p)
            nx = _norm_rows(x, p)
            if nx == 0.0:
                break
            x = x / nx
        best = max(best, cur)
    return best


_FAN_WEIGHTS = np.linspace(0.0, 1.0, 5)[:, None]  # edge weights, from the ray's to 1
_FAN_SPLITS = np.linspace(0.0, 1.0, 3)  # splits of an edge weight between the edges


def _max_vector_norms(a, exps, axis):
    """For each matrix of moduli in the stack a and each exponent r in
    ``exps`` (inf allowed), the largest l_r norm of its vectors along
    ``axis`` (0: the columns, 1: the rows), as an array (stack, exps).
    Each vector is divided by its largest entry first (a zero vector by the
    smallest normal float), so no power overflows, and a vector's sum of
    powers is at least 1 unless it is 0."""
    top = a.max(axis=1 + axis, keepdims=True)
    np.maximum(top, sys.float_info.min, out=top)
    sums = ((a / top)[:, None] ** exps[:, None, None]).sum(axis=2 + axis)
    return (sums ** (1.0 / exps[:, None]) * top.reshape(len(a), 1, -1)).max(axis=-1)


def _fan(u, v):
    """The interpolation routes at a point (u, v) with 0 <= v <= u <= 1, as
    arrays over the routes: the weights of the column anchor (1, c), the
    row anchor (r, 0) and the SVD point (1/2, 1/2), and c and r.

    The ray from (1/2, 1/2) through (u, v) leaves the triangle at t_exit
    (on the edge u = 1 or v = 0).  Each of 5 edge weights beta, from
    1 / t_exit to 1, puts 1 - beta on the SVD point and beta on
    P' = (1/2, 1/2) + ((u, v) - (1/2, 1/2)) / beta, which lies in the
    triangle; P' splits as (1 - theta) (1, c) + theta (r, 0) for 3 values
    of theta from 1 - u' to 1 - v', with c = v' / (1 - theta) and
    r = 1 - (1 - u') / theta.  A side of weight 0 gets the position of the
    other end, so every position is in [0, 1].
    """
    du, dv = u - 0.5, v - 0.5
    if du == 0.0 and dv == 0.0:
        return np.zeros(1), np.zeros(1), np.ones(1), np.ones(1), np.zeros(1)
    t_exit = min(0.5 / du if du > 0.0 else math.inf, -0.5 / dv if dv < 0.0 else math.inf)
    beta = 1.0 / t_exit + (1.0 - 1.0 / t_exit) * _FAN_WEIGHTS
    u1 = np.minimum(0.5 + du / beta, 1.0)
    v1 = np.maximum(0.5 + dv / beta, 0.0)
    theta = (1.0 - u1) + (u1 - v1) * _FAN_SPLITS
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(theta < 1.0, np.minimum(v1 / (1.0 - theta), 1.0), 0.0)
        r = np.where(theta > 0.0, np.maximum(1.0 - (1.0 - u1) / theta, 0.0), 1.0)
    w = np.broadcast_to(beta, theta.shape)
    return ((w * (1.0 - theta)).ravel(), (w * theta).ravel(), (1.0 - w).ravel(),
            c.ravel(), r.ravel())


@functools.lru_cache(maxsize=256)
def _route_table(p, q, m, n, real):
    """The routes of ``_norm_upper`` for an m x n matrix l_p -> l_q, as one
    linear form in the logs of the anchors:

        log(route) = W @ log(anchors) + offsets.

    The anchors are the largest column norms at the exponents ``col_exps``,
    the largest row norms at ``row_exps``, sigma_1 (needed when ``svd``)
    and the sign-enumeration value (needed when ``sign``), in that order.
    Each distinct exponent is evaluated once: ``index`` picks the anchors in
    that order out of [norms at the distinct column exponents, at the
    distinct row exponents, sigma_1, sign].  ``rho`` is the relative
    rounding margin.  Returns (col_exps, row_exps, svd, sign, index, W,
    offsets, rho), with the distinct exponents."""
    x, y = inv_exponent(p), inv_exponent(q)
    ln_n, ln_m = math.log(n), math.log(m)
    col_exps, row_exps, routes = [], [], []

    def col(v):  # the column anchor at (1, v), or at (u, v) with u >= max(1, v)
        col_exps.append(1.0 / v if v > 0.0 else math.inf)
        return "col", len(col_exps) - 1

    def row(u):  # the row anchor at (u, 0), u <= 1: the row l_(1/(1-u)) norms
        row_exps.append(1.0 / (1.0 - u) if u < 1.0 else math.inf)
        return "row", len(row_exps) - 1

    def route(terms, u, v):  # a middle point (u, v) with u >= x, v <= y
        routes.append((terms, (u - x) * ln_n + (y - v) * ln_m))

    for v in sorted({0.0, min(1.0, y), min(x, y), y}):
        route([(col(v), 1.0)], max(1.0, v, x), v)
    sign = _row_signs(p, q, m, real) > 0
    if x <= 1.0:  # p >= 1: the row anchor, the sign enumeration, the triangle
        route([(row(x), 1.0)], x, 0.0)
        if sign:
            route([(("sign", 0), 1.0)], x, 1.0)
        diagonal = {x, min(1.0, y)} | ({0.5} if x < 0.5 < y else set())
        for u, v in [(x, y)] if y <= x else [(w, w) for w in sorted(diagonal)]:
            for w_col, w_row, w_svd, c, r in zip(*_fan(u, v)):
                route([(col(c), w_col), (row(r), w_row), (("svd", 0), w_svd)], u, v)

    first = {"col": 0, "row": len(col_exps), "svd": len(col_exps) + len(row_exps)}
    first["sign"] = first["svd"] + 1
    W = np.zeros((len(routes), first["sign"] + 1))
    for i, (terms, _) in enumerate(routes):
        for (kind, j), weight in terms:
            W[i, first[kind] + j] += weight
    d = max(m, n)
    eps = sys.float_info.epsilon
    rho = (16.0 * (m * n + d + 4) * eps / min(1.0, q)
           + 64.0 * (1.0 + x + y) ** 2 * math.log(4.0 * d) * eps)
    cols, rows = dict.fromkeys(col_exps), dict.fromkeys(row_exps)  # the distinct ones, in order
    at = {**{("col", e): i for i, e in enumerate(cols)},
          **{("row", e): len(cols) + i for i, e in enumerate(rows)}}
    index = ([at["col", e] for e in col_exps] + [at["row", e] for e in row_exps]
             + [len(cols) + len(rows), len(cols) + len(rows) + 1])
    table = (np.array(list(cols), dtype=float), np.array(list(rows), dtype=float),
             np.array(index), W, np.array([offset for _, offset in routes]))
    for array in table:
        array.setflags(write=False)
    return table[:2] + (x <= 1.0, sign) + table[2:] + (rho,)


def _routed_upper(Ms, p, q, real):
    """A certified upper of ||M: l_p -> l_q|| from exact norms only, for each
    matrix M of the stack Ms, for the (p, q) that no exact path of op_norm
    covers.  See ``_norm_upper``."""
    a = np.abs(Ms)
    top = a.max(axis=(1, 2))
    ok = (top > 0.0) & (top < math.inf)
    if not ok.all():  # a zero or non-finite matrix is its own value
        if ok.any():
            top[ok] = _routed_upper(Ms[ok], p, q, real)
        return top
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1)  # top / scale is in [1, 2)
    a = a / scale[:, None, None]
    s, m, n = a.shape
    col_exps, row_exps, svd, sign, index, W, offsets, rho = _route_table(p, q, m, n, real)
    with np.errstate(over="ignore"):  # a norm out of range is inf, and so is its route
        anchors = [_max_vector_norms(a, col_exps, 0), _max_vector_norms(a, row_exps, 1),
                   np.ones((s, 2))]
        if svd:
            anchors[2][:, 0] = np.linalg.svd(Ms / scale[:, None, None], compute_uv=False)[:, 0]
        if sign:
            anchors[2][:, 1] = _max_image_norms(_half_cube(m), (Ms / scale[:, None, None])
                                                .transpose(0, 2, 1), conjugate_exponent(p))
        # every anchor is >= 1; an infinite one becomes a huge log, which its
        # zero weights keep out of the other routes
        logs = np.minimum(np.log(np.concatenate(anchors, axis=1)), 1e300)[:, index]
        # one matrix-vector product per matrix, as for a single matrix
        routes = (W @ logs[:, :, None])[:, :, 0] + offsets
        return np.exp(routes.min(axis=1)) * (1.0 + rho) * scale


def _norm_upper(T):
    """(upper, method): op_norm's exact value and path name where it has one,
    else a certified upper of ||T: l_p -> l_q|| and None.

    The exact paths come in op_norm's order, with the floats op_norm
    returns.  Elsewhere the upper is the smallest of a fixed set of routes,
    each built from exact norms only.  Write x = 1/p, y = 1/q, d = max(m, n)
    for the m x n matrix A, and I_k(r, s) = k^max(0, 1/s - 1/r) for the
    norm of the identity l_r^k -> l_s^k, which is exact on both fields.

    Exact anchors.  On three families the real and the complex norm are
    equal, because each is attained at a vector of unimodular multiples of
    one real pattern: ||A||_{1 -> s} = the largest column l_s norm, for
    s >= 1 (attained at a unit vector e_j); ||A||_{r -> inf} = the largest
    row l_r' norm, for r >= 1 (Hölder's equality vector); and ||A||_{2 -> 2}
    = sigma_1 (the top singular vector).  For s < 1 the largest column
    l_s norm is the exact norm on the whole region r <= min(1, s), the
    column-max path.  For real A and m <= 16, ``sign-enumeration`` also
    gives ||A||_{r -> 1} for r >= 1; that is a real norm only, so it is
    used as the middle factor below and never as an end point.

    Interpolation (Riesz-Thorin; Bergh and Löfström, Interpolation Spaces,
    1976, Thm 1.1.1).  With complex scalars, log ||A||_{1/x -> 1/y} is
    convex on the triangle 0 <= y <= x <= 1, and the real norm of a real
    matrix is at most the complex norm of the same matrix.  So a point of
    the triangle that is a convex combination, with weights w_i, of points
    with exact anchor values N_i has ||A|| <= prod_i N_i^w_i on both
    fields.  The anchors are the edge x = 1 (columns), the edge y = 0
    (rows) and the point (1/2, 1/2) (sigma_1); ``_fan`` lists the 15
    combinations taken at a point.

    Factorisation.  ||A||_{p -> q} <= I_n(p, r) ||A||_{r -> s} I_m(s, q)
    for all r, s in (0, inf], quasi-norms included, since A = id A id.  In
    (x, y) terms a middle point (u, v) with u >= x and v <= y costs
    n^(u - x) m^(y - v).  The middle points taken are:

    - (max(1, v, x), v), the column-max value at l_(1/v), for v in
      {0, min(1, y), min(x, y), y};
    - for p >= 1: (x, 0), the row-max value; and for real A with q < 1 and
      m <= 16, (x, 1), the sign-enumeration value;
    - for p >= 1, interpolated points of the triangle: (x, y) itself when
      p <= q, and otherwise the diagonal points (w, w) for w in
      {x, min(1, y)}, and 1/2 when x < 1/2 < y (this last one is the l_2
      sandwich).

    Rounding margin.  A is first divided by the power of two s with
    max |A_ij| / s in [1, 2), which is exact (up to entries below 2^-1022
    of the largest, whose loss is far inside the margin), and the result is
    multiplied back.  Then every anchor value is at least 1 (a vector that
    holds the entry of modulus >= 1 has norm >= 1) and, on the triangle,
    at most 2 d.  Each route is exp(sum of weights times logs of anchors,
    plus (u - x) log n + (y - v) log m).  Its float value differs from the
    value of a route whose positions and weights satisfy the combination
    exactly by three kinds of error, to first order in eps:

    - each anchor is a norm of moduli evaluated in floats (moduli, a
      division by the vector's largest entry, powers, a sum of at most d
      terms, a root, a product), to a relative error below
      (d + 4) eps / min(1, r) at exponent r >= min(1, q); LAPACK's sigma_1
      is within a small multiple of d eps sigma_1 (LAPACK Users' Guide,
      sec. 4.9); a sign-enumeration value is a norm of A^T s, whose
      products add m n eps relative, since the value is at least every
      column's l_1 norm over n;
    - the positions and weights are a few roundings of numbers in [0, 1],
      or of x and y, so they satisfy the combination only up to
      8 (1 + x + y) eps per coordinate.  Moving a point by delta in x or y
      changes the norm by at most n^delta or m^delta (factorisation), and
      a weight error delta changes N^w by N^delta, with log N at most
      (1 + x + y) log(4 d);
    - the logs, the sum and the exp add a few eps times the sum of the
      terms' moduli, again at most (1 + x + y) log(4 d) each.

    rho = 16 (m n + d + 4) eps / min(1, q) + 64 (1 + x + y)^2 log(4 d) eps
    is at least twice the sum of these, which covers the second-order
    terms and the two final products, so the value times (1 + rho) is a
    certified upper.  An upper that overflows is inf, which is still one.
    """
    values, methods = _norm_uppers(T.matrix[None], T.domain.p, T.codomain.p, T.field == REAL)
    return float(values[0]), methods[0]


def _norm_uppers(Ms, p, q, real):
    """``_norm_upper`` of each m x n matrix of the stack Ms, l_p -> l_q, real
    or complex scalars: (values, one method name or None per matrix).

    Each path runs once over the stack.  Its arithmetic on each matrix is
    the arithmetic it makes on that matrix alone: the same elementwise
    operations, each reduction along the same axis of the same layout, one
    product per matrix (a matrix times the sign vectors, or the route
    weights times a vector of logs), and LAPACK's sigma_1 of each matrix.
    So every value has the bits of the matrix's own ``_norm_upper``.
    """
    ident = is_identity(Ms)
    if not ident.any():
        values, method = _path_norms(Ms, p, q, real)
        return values, [method] * len(Ms)
    try:
        value = float(Ms.shape[2]) ** max(0.0, inv_exponent(q) - inv_exponent(p))
    except OverflowError:  # as on the other exact paths, a norm past the float range is inf
        value = math.inf
    values = np.full(len(Ms), value)
    methods = [_IDENTITY] * len(Ms)
    if not ident.all():
        rest = np.flatnonzero(~ident)
        values[rest], method = _path_norms(Ms[rest], p, q, real)
        for i in rest:
            methods[i] = method
    return values, methods


def _row_signs(p, q, m, real):
    """The number of sign vectors that a real m x n matrix's norm enumerates:
    2^(m-1) on the q = 1 sign path and for the routed sign anchor, else 0."""
    return 2 ** (m - 1) if real and p >= 1.0 >= q and p > q and m <= 16 else 0


def _path_norms(Ms, p, q, real):
    """op_norm's exact path for a stack of non-identity matrices, in its
    order, with its values and name; else ``_routed_upper`` and None."""
    m, n = Ms.shape[1:]
    if p <= min(1.0, q):
        return _scaled_norm_rows(Ms.transpose(0, 2, 1), q).max(axis=1), _COLUMN_MAX
    if p == 2.0 and q == 2.0:
        return np.linalg.svd(Ms, compute_uv=False)[:, 0], _SVD
    if math.isinf(q):
        return _scaled_norm_rows(Ms, conjugate_exponent(p)).max(axis=1), _ROW_MAX
    if q == 1.0 and _row_signs(p, q, m, real):
        return (_max_image_norms(_half_cube(m), Ms.transpose(0, 2, 1), conjugate_exponent(p)),
                _SIGNS)
    if real and math.isinf(p) and q >= 1.0 and n <= 16:
        return _max_image_norms(_half_cube(n), Ms, q), _VERTICES
    return _routed_upper(Ms, p, q, real), None


def op_norm(T, budget=2000, seed=0):
    """The operator (quasi-)norm of T: l_p -> l_q as a Bracket.

    Dispatch, in this order; ``method`` names the path, and p' is the
    Hölder conjugate of p.

    - ``identity-formula``: n^max(0, 1/q - 1/p), inf past the float range.
    - ``column-max``, p <= min(1, q): the largest column l_q norm.  With
      r = min(1, q), ||.||_q^r is subadditive and ||x||_r <= ||x||_p, so
      ||Tx||_q^r <= sum_j |x_j|^r ||Te_j||_q^r <= max_j ||Te_j||_q^r ||x||_p^r,
      with equality at a unit vector.
    - ``svd``, p = q = 2: sigma_1.
    - ``row-max``, q = inf: the largest row l_p' norm, by Hölder: |(Tx)_i|
      <= ||row_i||_p' ||x||_p, with equality at the dual vector of the row.
      (For p <= 1 column-max comes first, with the same value, the largest
      |entry|.)
    - ``sign-enumeration``, real, p >= 1, q = 1, m <= 16: max ||T^T s||_p'
      over s in {-1, 1}^m with s_1 = +1.  By duality ||y||_1 = max_s s^T y,
      so ||T|| = max_s sup_x (T^T s)^T x = max_s ||T^T s||_p', and s and -s
      give the same value.
    - ``vertex-enumeration``, real, p = inf, q >= 1, n <= 16: max ||Ts||_q
      over the same half of the vertices.  x -> ||Tx||_q is convex for
      q >= 1, so its maximum over the cube is at a vertex (for q < 1 it is
      not convex, and the vertices can miss the maximum).
    - ``power-method``, every other p >= 1, q >= 1, and ``sampled-ascent``,
      q < min(1, p), where the duality argument fails: a two-sided
      certified bracket.  The lower is ``_power_method``'s or
      ``_sampled_ascent``'s, the norm of a point of the unit sphere.  The
      upper is ``_norm_upper``'s: the smallest of a fixed set of
      Riesz-Thorin interpolation and factorisation routes through exact
      norms, times a proved rounding margin (both in its docstring).  The
      p -> q norm is NP-hard in general (Hendrickx and Olshevsky, SIAM J.
      Matrix Anal. Appl. 31, 2010), so the two sides need not meet.

    The exact paths are point brackets of kind ``exact``; they scale a norm
    whose powers overflow, so a finite value keeps its bits.  The lowers
    seed their own generator from ``(seed, matrix)``, so no other call
    changes their draws.
    """
    upper, method = _norm_upper(T)
    if method is not None:
        return Bracket.point(upper, EXACT, method)
    if T.domain.p >= 1.0 and T.codomain.p >= 1.0:
        return Bracket(_power_method(T, budget, seed), upper, CERTIFIED, CERTIFIED,
                       _POWER)
    return Bracket(_sampled_ascent(T, budget, seed), upper, CERTIFIED, CERTIFIED,
                   _ASCENT)


# ---------------------------------------------------------------------------
# CSV matrix ingestion
# ---------------------------------------------------------------------------


def _parse_scalar(token, path, lineno, colno):
    text = token.strip()
    if not text:
        raise ValueError(f"{path}: line {lineno}, column {colno}: empty entry")
    try:
        value, was_complex = float(text), False
    except ValueError:
        try:
            value, was_complex = complex(text.replace(" ", "").replace("i", "j")), True
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}, column {colno}: cannot parse {text!r}"
            ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{path}: line {lineno}, column {colno}: non-finite entry {text!r}")
    return value, was_complex


def read_matrix_csv(path):
    """Read a matrix from plain-text CSV; complex entries use 'a+bi' tokens.

    One row per line, commas between entries.  Blank lines and lines starting
    with '#' are ignored.  Parse failures report the line and column.
    """
    rows = []
    any_complex = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            row = []
            for colno, token in enumerate(stripped.split(","), start=1):
                value, was_complex = _parse_scalar(token, path, lineno, colno)
                any_complex = any_complex or was_complex
                row.append(value)
            if rows and len(row) != len(rows[0][1]):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(rows[0][1])} entries, got {len(row)}"
                )
            rows.append((lineno, row))
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    data = [r for _, r in rows]
    return np.array(data, dtype=complex if any_complex else float)


def load_operator(path, p, q):
    """Read a CSV matrix and wrap it as an operator l_p -> l_q, over the
    complex scalars exactly when an entry is complex."""
    return operator(read_matrix_csv(path), p, q)
