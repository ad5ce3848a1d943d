"""Matrices as bounded operators between l_p^n spaces.

A LinOp is a matrix together with explicit domain and codomain space
descriptors; the operator (quasi-)norm then depends on both exponents.
``op_norm`` is exact wherever a short proof makes it so: the identity
formula; the largest column for p <= min(1, q) (q-subadditivity); sigma_1
for p = q = 2; the largest row l_p' norm for q = inf (Hölder); and, for
real matrices, the sign vectors for p >= 1, q = 1 (duality) and the cube's
vertices for p = inf, q >= 1 (convexity), each while the enumerated
dimension is at most 16.  The op_norm docstring gives the proofs.  The
general p -> q norm is NP-hard, so elsewhere the norm is a certified lower
with no upper side: Boyd's nonlinear power method for p, q >= 1, and a
seeded sampled ascent for the quasi-norm cases q < min(1, p).  Every norm
comes back as a ``Bracket``, the package's one shape for "a lower, an
upper, and how sure".
"""

import dataclasses
import functools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
    _abs_norm_function,
    _dual,
    _rescaled,
    conjugate_exponent,
    inv_exponent,
    sample_sphere,
)


EXACT = "exact"  # the value itself
CERTIFIED = "certified"  # a proved bound on its side
ESTIMATE = "estimate"  # a heuristic value, which may miss on its side
SHAPE = "shape"  # an equivalence shape with unknown constants


class BracketError(ValueError):
    """A bracket whose sides contradict their kinds: a fault of its producer."""


@dataclass(frozen=True)
class Bracket:
    """A lower and an upper value, each with its kind (or both None), and the
    method or case that produced them.  Refused: NaN, a kind without a value
    or a value without one, ``exact`` on one side only or on two unequal
    sides, and ``lower > upper + 1e-12`` unless a side is an ``estimate``
    (which may undershoot)."""

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
                or (lo is not None and hi is not None and lo > hi + 1e-12
                    and ESTIMATE not in (lo_kind, hi_kind))):
            raise BracketError(f"inconsistent {self}")

    @classmethod
    def point(cls, value, kind, method):
        """Both sides at one value of one kind: an exact value or a shape."""
        return cls(value, value, kind, kind, method)

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
    return operator(np.eye(n), p, q, field=field)


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
    """True when the matrix M is exactly a square identity matrix."""
    return M.shape[0] == M.shape[1] and np.array_equal(M, np.eye(M.shape[0], dtype=M.dtype))


def _norm_rows(A, q):
    """lp_norm applied to each row of A."""
    a = np.abs(A)
    if math.isinf(q):
        return a.max(axis=1)
    if q == 2.0:
        return np.sqrt((a * a).sum(axis=1))
    if q == 1.0:
        return a.sum(axis=1)
    return (a**q).sum(axis=1) ** (1.0 / q)


def _scaled_norm_rows(A, q):
    """_norm_rows of A, with each row whose value is not finite recomputed by
    ``_rescaled``; a finite value keeps its bits."""
    with np.errstate(over="ignore"):
        v = _norm_rows(A, q)
    bad = ~np.isfinite(v)
    if bad.any():
        norm = _abs_norm_function(q)
        v[bad] = [_rescaled(norm, a) for a in np.abs(A[bad])]
    return v


@functools.lru_cache(maxsize=None)
def _half_cube(d):
    """The 2^(d-1) sign vectors s in {-1, 1}^d with s_1 = +1, as rows.  The
    other half of the vertices are their negatives, whose images have the
    same norms."""
    bits = (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)) & 1
    S = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    S.setflags(write=False)
    return S


def _max_image_norm(S, A, r):
    """max ||A s||_r over the rows s of S, in blocks of at most 2^16 image
    entries, so that 2^15 sign vectors of a wide matrix take little memory."""
    step = max(1, 65536 // A.shape[0])
    return max(float(_scaled_norm_rows(S[i:i + step] @ A.T, r).max())
               for i in range(0, S.shape[0], step))


def _unit_directions(n, field):
    eye = np.eye(n)
    dirs = [eye, -eye]
    if field == COMPLEX:
        dirs += [1j * eye]
    return np.vstack(dirs)


def _prescaled(path):
    """A non-exact op_norm path run on M = T.matrix / s, with ``stop`` / s,
    and its value times s, for a power of two s.

    s is 1 unless the largest modulus of T's matrix times max(m, n) reaches
    2^1020.  The paths multiply M only by vectors whose entries have modulus
    at most 1 (sphere points, and duals divided by their largest entry), and
    M^H likewise, so below that no product overflows, and above it M / s
    keeps them finite.  Division and multiplication by a power of two are
    exact, so the value is the norm of T's own matrix; with s = 1 every bit
    is unchanged.  The path's generator is still seeded from T.matrix.
    """
    @functools.wraps(path)
    def run(T, budget, seed, stop):
        top = float(np.abs(T.matrix).max(initial=0.0))
        shift = (math.ceil(math.log2(top) + math.log2(max(T.shape)) - 1020.0)
                 if 0.0 < top < math.inf else 0)
        scale = math.ldexp(1.0, shift) if shift > 0 else 1.0
        return path(T, T.matrix / scale, budget, seed, stop / scale) * scale
    return run


def _sample_phase(T, M, budget, seed):
    """The sampling phase of both non-exact paths: the signed unit vectors
    (and i e_j for complex scalars) and max(16, budget // 2) seeded points of
    the l_p sphere, with their norms under M (T's matrix, or a ``_prescaled``
    multiple of it), sorted best first.  The generator is seeded from
    ``(seed, T.matrix)``, so no other call changes its draws; it is returned
    for the ascent's steps."""
    n = T.domain.n
    rng = np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(T.matrix).tobytes())]
    )
    X = np.vstack([_unit_directions(n, T.field),
                   sample_sphere(rng, n, T.domain.p, T.field, max(16, budget // 2))])
    vals = _scaled_norm_rows(X @ M.T, T.codomain.p)
    return rng, X, vals, np.argsort(vals)[::-1]


@_prescaled
def _sampled_ascent(T, M, budget, seed, stop):
    """Seeded lower bound for ||T: l_p -> l_q|| by sampling plus hill climbing.

    The value is the running maximum of the sampled norms and of the four
    climbs from the best samples.  That maximum never decreases, so once it
    reaches ``stop`` the ascent returns it: the value is then >= stop and
    <= the full value.  A full value below ``stop`` is never cut short, so
    it is the same float as with no stop.  Both norms are resolved once per
    call (``_abs_norm_function``: lp_norm's arithmetic, the same floats).
    """
    p, q = T.domain.p, T.codomain.p
    n = T.domain.n
    norm_p, norm_q = _abs_norm_function(p), _abs_norm_function(q)
    rng, X, vals, order = _sample_phase(T, M, budget, seed)
    best = float(vals[order[0]])
    if best >= stop:
        return best

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
            ny = norm_p(np.abs(y))
            spent += 1
            if ny == 0.0:
                continue
            y = y / ny
            v = norm_q(np.abs(M @ y))
            if v > cur:
                x, cur = y, v
                if cur >= stop:
                    return cur
            else:
                radius *= 0.8
        best = max(best, cur)
    return best


@_prescaled
def _power_method(T, M, budget, seed, stop):
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
    iterates, so it is never below the sample maximum, and ``stop`` acts as
    in the ascent: the value returned once the maximum reaches ``stop`` is
    >= stop and <= the full value, and a full value below ``stop`` is the
    same float.  A norm whose powers overflow is recomputed by
    ``_rescaled``; a finite one keeps its bits.
    """
    MH = M.conj().T
    p, q = T.domain.p, T.codomain.p
    norm_p, norm_q = _abs_norm_function(p), _abs_norm_function(q)
    dual_p = conjugate_exponent(p)
    _, X, vals, order = _sample_phase(T, M, budget, seed)
    best = float(vals[order[0]])
    if best >= stop:
        return best

    spent = X.shape[0]
    top = np.linalg.svd(M, full_matrices=False)[2][0].conj()
    with np.errstate(over="ignore"):  # an overflowed norm is recomputed
        for x in [X[i] for i in order[:4]] + [top / norm_p(np.abs(top))]:
            cur, misses = 0.0, 0
            while spent < budget:
                y = M @ x
                a = np.abs(y)
                v = norm_q(a)
                if not math.isfinite(v):
                    v = _rescaled(norm_q, a)
                spent += 1
                if not v > cur:
                    misses += 1
                    if misses == 2:
                        break
                else:
                    misses = 0
                    cur = v
                    if cur >= stop:
                        return cur
                w = MH @ _dual(y, a, q)
                x = _dual(w, np.abs(w), dual_p)
                nx = norm_p(np.abs(x))
                if nx == 0.0:
                    break
                x = x / nx
            best = max(best, cur)
    return best


def op_norm(T, budget=2000, seed=0, *, stop=math.inf):
    """The operator (quasi-)norm of T: l_p -> l_q as a Bracket.

    Dispatch, in this order; ``method`` names the path, and p' is the
    Hölder conjugate of p.

    - ``identity-formula``: n^max(0, 1/q - 1/p).
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
    - ``power-method``, every other p >= 1, q >= 1: ``_power_method``, a
      certified lower (the norm of a point of the unit sphere) with no upper
      side.  The p -> q norm is NP-hard in general (Hendrickx and
      Olshevsky, SIAM J. Matrix Anal. Appl. 31, 2010).
    - ``sampled-ascent``, q < min(1, p), where the duality argument fails:
      ``_sampled_ascent``, a certified lower with no upper side.

    The exact paths are point brackets of kind ``exact``; they scale a norm
    whose powers overflow, so a finite value keeps its bits.

    ``stop`` is for callers that only ask whether the norm is below a
    threshold.  The two non-exact paths return as soon as their running
    maximum reaches ``stop``, with a value that is >= stop and <= the full
    value; a full value below ``stop`` comes back as the same float.  So
    ``v < stop`` has the same answer with and without the stop, and a value
    that passes it is the full value.  Both seed their own generator from
    ``(seed, matrix)``, so stopping early changes no other call's draws.
    The exact paths ignore ``stop``.
    """
    M = T.matrix
    p, q = T.domain.p, T.codomain.p
    m, n = M.shape
    real = T.field == REAL

    if is_identity(M):
        value = float(n) ** max(0.0, inv_exponent(q) - inv_exponent(p))
        return Bracket.point(value, EXACT, "identity-formula")
    if p <= min(1.0, q):
        return Bracket.point(float(_scaled_norm_rows(M.T, q).max()), EXACT, "column-max")
    if p == 2.0 and q == 2.0:
        return Bracket.point(float(singular_values(T)[0]), EXACT, "svd")
    if math.isinf(q):
        value = float(_scaled_norm_rows(M, conjugate_exponent(p)).max())
        return Bracket.point(value, EXACT, "row-max")
    if real and p >= 1.0 and q == 1.0 and m <= 16:
        value = _max_image_norm(_half_cube(m), M.T, conjugate_exponent(p))
        return Bracket.point(value, EXACT, "sign-enumeration")
    if real and math.isinf(p) and q >= 1.0 and n <= 16:
        return Bracket.point(_max_image_norm(_half_cube(n), M, q), EXACT, "vertex-enumeration")
    if p >= 1.0 and q >= 1.0:
        return Bracket(_power_method(T, budget, seed, stop), None, CERTIFIED, None,
                       "power-method")
    return Bracket(_sampled_ascent(T, budget, seed, stop), None, CERTIFIED, None,
                   "sampled-ascent")


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


def load_operator(path, p, q, field=None):
    """Read a CSV matrix and wrap it as an operator l_p -> l_q."""
    return operator(read_matrix_csv(path), p, q, field=field)
