"""Matrices as bounded operators between l_p^n spaces.

A LinOp is a matrix together with explicit domain and codomain space
descriptors; the operator (quasi-)norm then depends on both exponents.
Exact norm formulas exist for the identity, for p <= 1 with q >= 1 (the
extreme points of the domain ball are the signed unit vectors, so the norm
is the largest column norm), and for the Hilbert case p = q = 2 (largest
singular value).  Everything else falls back to a seeded sampled-ascent
lower bound.  Every norm comes back as a ``Bracket``, the package's one
shape for "a lower, an upper, and how sure".
"""

import dataclasses
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
    _abs_norm_function,
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


def _unit_directions(n, field):
    eye = np.eye(n)
    dirs = [eye, -eye]
    if field == COMPLEX:
        dirs += [1j * eye]
    return np.vstack(dirs)


def _sampled_ascent(T, budget, seed, stop):
    """Seeded lower bound for ||T: l_p -> l_q|| by sampling plus hill climbing.

    The value is the running maximum of the sampled norms and of the four
    climbs from the best samples.  That maximum never decreases, so once it
    reaches ``stop`` the ascent returns it: the value is then >= stop and
    <= the full value.  A full value below ``stop`` is never cut short, so
    it is the same float as with no stop.  Both norms are resolved once per
    call (``_abs_norm_function``: lp_norm's arithmetic, the same floats).
    """
    M = T.matrix
    p, q = T.domain.p, T.codomain.p
    n = T.domain.n
    norm_p, norm_q = _abs_norm_function(p), _abs_norm_function(q)
    rng = np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(M).tobytes())]
    )
    X = _unit_directions(n, T.field)
    nsamp = max(16, budget // 2)
    X = np.vstack([X, sample_sphere(rng, n, p, T.field, nsamp)])
    vals = _norm_rows(X @ M.T, q)
    order = np.argsort(vals)[::-1]
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


def op_norm(T, budget=2000, seed=0, *, stop=math.inf):
    """The operator (quasi-)norm of T: l_p -> l_q as a Bracket.

    Dispatch, strongest first: exact identity formula n^max(0, 1/q - 1/p);
    exact column maximum for p <= 1, q >= 1; exact sigma_1 for p = q = 2.
    Each is a point bracket of kind ``exact``.  Otherwise a seeded
    sampled-ascent value, which is the norm of a point of the unit sphere
    and so a certified lower with no upper side.  ``method`` names the path.

    ``stop`` is for callers that only ask whether the norm is below a
    threshold.  The sampled ascent returns as soon as its running maximum
    reaches ``stop``, with a value that is >= stop and <= the full value; a
    full value below ``stop`` comes back as the same float.  So ``v < stop``
    has the same answer with and without the stop, and a value that passes
    it is the full value.  The ascent seeds its own generator from
    ``(seed, matrix)``, so stopping early changes no other call's draws.
    The exact paths ignore ``stop``.
    """
    M = T.matrix
    p, q = T.domain.p, T.codomain.p
    n = T.domain.n

    if is_identity(M):
        value = float(n) ** max(0.0, inv_exponent(q) - inv_exponent(p))
        return Bracket.point(value, EXACT, "identity-formula")
    if p <= 1.0 and q >= 1.0:
        value = float(_norm_rows(M.T, q).max()) if n else 0.0
        return Bracket.point(value, EXACT, "column-max")
    if p == 2.0 and q == 2.0:
        s = singular_values(T)
        return Bracket.point(float(s[0]) if s.size else 0.0, EXACT, "svd")
    value = _sampled_ascent(T, budget, seed, stop)
    return Bracket(value, None, CERTIFIED, None, "sampled-ascent")


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
