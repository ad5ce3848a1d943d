"""Approximation and Kolmogorov numbers: exact Hilbert values, closed-form
envelopes for the identity l_p^n -> l_q^n, rank-restricted searches, and the
s-number axiom harness.

The k-th approximation number a_k(T) is the distance of T to the operators
of rank below k; the k-th Kolmogorov number d_k(T) measures how well the
image of the unit ball is captured by a subspace of dimension below k,

    d_k(T) = inf_{dim U < k} sup_{||x|| <= 1} inf_{y in U} ||Tx - y||,

which equals the norm of the composition of T with the quotient map onto
Y/U, minimised over U.  In Hilbert space both sequences coincide with the
singular values (Eckart-Young), which is the exact anchor everything else
is checked against.

Closed forms: for q <= p the approximation numbers of the identity are
exactly (n - k + 1)^(1/q - 1/p).  For p < q only equivalences with unknown
constants are known; the dispatcher returns the strongest applicable case
as a Bracket named after the case, one-sided when only an inequality is
known, and with both sides None (method ``no-closed-form``) when nothing
applies (e.g. the q = p' boundary, or the pair (1, inf)).
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import entropy as entropy_mod
from .operators import (
    EXACT,
    SHAPE,
    Bracket,
    _unit_directions,
    add,
    compose,
    identity_operator,
    op_norm,
    operator,
    singular_values,
)
from .spaces import (
    COMPLEX,
    REAL,
    _distance_start,
    conjugate_exponent,
    dist_to_subspace,
    inv_exponent,
    quasi_constant,
    sample_sphere,
)
from .spectral import CheckReport

NO_CLOSED_FORM = "no-closed-form"


@dataclass(frozen=True)
class SNumberSeq:
    """An s-number sequence, 1-indexed through ``value(k)``; zero past the rank."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("values must be a 1-d array")
        if np.any(np.isnan(v)):
            raise ValueError("s-numbers must not be NaN")
        if v.size and np.any(np.diff(v) > 1e-12):
            raise ValueError("s-numbers must be nonincreasing")
        if v.size and v[-1] < -1e-15:
            raise ValueError("s-numbers must be nonnegative")
        v = np.maximum(v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value(self, k):
        if k < 1:
            raise ValueError("s-number index is 1-based")
        if k > self.values.size:
            return 0.0
        return float(self.values[k - 1])


def hilbert_s_numbers(T):
    """Exact s-numbers of T: l_2 -> l_2: the singular values, which are both
    the approximation and the Kolmogorov numbers.

    Zero-padded to the domain dimension, since every s-number vanishes past
    the rank.
    """
    if T.domain.p != 2.0 or T.codomain.p != 2.0:
        raise ValueError("hilbert_s_numbers needs p = q = 2 on both sides")
    s = singular_values(T)
    n = T.domain.n
    vals = np.zeros(n)
    vals[: min(n, s.size)] = s[: min(n, s.size)]
    return SNumberSeq(vals)


# ---------------------------------------------------------------------------
# closed-form envelopes for the identity
# ---------------------------------------------------------------------------


def _validate_id_args(p, q, n, k):
    if not n >= 1:
        raise ValueError("n must be >= 1")
    if not k >= 1:
        raise ValueError("k must be >= 1")


def approx_id_envelope(p, q, n, k):
    """Bracket for a_k(id: l_p^n -> l_q^n), strongest applicable case first.

    q <= p is exact: (n - k + 1)^(1/q - 1/p) with known constants (this also
    gives a_1 = ||id|| and the p = q value 1).  k > n is exactly zero.  For
    p < q the small-index (4k <= n) equivalences and the general real-case
    shape are returned as ``shape`` sides; the upper-only root-k shape
    covers p <= 2 <= q < inf (and 1 < p <= 2 with q = inf); the remaining
    cells (q = p' boundary, the pair (1, inf) at large k, and p < 1 with
    q > 2 at large k) report no closed form.  The case is the method.
    """
    _validate_id_args(p, q, n, k)
    if k > n:
        return Bracket.point(0.0, EXACT, "rank-zero")
    ip, iq = inv_exponent(p), inv_exponent(q)
    if q <= p:
        return Bracket.point(float(n - k + 1) ** (iq - ip), EXACT, "exact-formula")

    pp = conjugate_exponent(p)
    if 4 * k <= n:
        if q <= 2.0:
            return Bracket.point(1.0, SHAPE, "one-small-pq")
        if p >= 2.0:
            return Bracket.point(1.0, SHAPE, "one-large-pq")
        if q < pp:
            return Bracket.point(min(1.0, n**iq / math.sqrt(k)), SHAPE, "min-root-k-q")
        if p >= 1.0 and not (p == 1.0 and math.isinf(q)):
            v = min(1.0, n ** inv_exponent(pp) / math.sqrt(k))
            return Bracket.point(v, SHAPE, "min-root-k-dual")

    if p >= 1.0 and not (p == 1.0 and math.isinf(q)):
        if q < pp:
            v, _ = _phi_kolmogorov(n, k, p, q)
            return Bracket.point(v, SHAPE, "psi-direct")
        if q > max(p, pp):
            v, _ = _phi_kolmogorov(n, k, conjugate_exponent(q), pp)
            return Bracket.point(v, SHAPE, "psi-dual")
        # q == p': the equivalence theorems leave this boundary open

    if (p <= 2.0 <= q and not math.isinf(q)) or (1.0 < p <= 2.0 and math.isinf(q)):
        v = n ** inv_exponent(min(pp, q)) / math.sqrt(k)
        return Bracket(None, v, None, SHAPE, "upper-root-k")
    return Bracket(None, None, None, None, NO_CLOSED_FORM)


def _phi_kolmogorov(n, k, p, q):
    """Phi shape of the identity widths and its case label; cases 2-4 (p < q)
    are also the approximation shape, directly and through the dual (q', p')."""
    ip, iq = inv_exponent(p), inv_exponent(q)
    if q <= p:
        return float(n - k + 1) ** (iq - ip), "phi-case-1"
    root = math.sqrt(1.0 - k / n) if k < n else 0.0
    if p >= 2.0:
        return min(1.0, n**iq / math.sqrt(k)) ** ((ip - iq) / (0.5 - iq)), "phi-case-2"
    if q <= 2.0:
        return max(n ** (iq - ip), root ** ((ip - iq) / (ip - 0.5))), "phi-case-3"
    return max(n ** (iq - ip), min(1.0, n**iq / math.sqrt(k)) * root), "phi-case-4"


def kolmogorov_id_envelope(p, q, n, k, field=REAL):
    """Bracket for d_k(id: l_p^n -> l_q^n), with the case as its method.

    For 1 <= q <= p the case-1 value (n - k + 1)^(1/q - 1/p) coincides with
    the exact approximation formula (and d <= a), so it is exact.
    For 1 <= p < q < inf the four-case shape is an equivalence with unknown
    constants; q = inf only brackets d_k between the shape and the shape
    times (log(e n / k))^(3/2).  For q < 1 <= everything the quasi-norm
    argument pins a lower shape (n/2)^(1/q - 1/p) whose certified index is
    only known up to a constant, so it is reported for k <= n//2 + 1 (where
    it is consistent with d <= a) and no closed form beyond.
    """
    _validate_id_args(p, q, n, k)
    if field not in (REAL, COMPLEX):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    if k > n:
        return Bracket.point(0.0, EXACT, "rank-zero")
    ip, iq = inv_exponent(p), inv_exponent(q)
    if q <= p:
        if q >= 1.0:
            return Bracket.point(float(n - k + 1) ** (iq - ip), EXACT, "phi-case-1")
        if k <= n // 2 + 1:
            return Bracket((n / 2.0) ** (iq - ip), None, SHAPE, None, "quasi-lower")
        return Bracket(None, None, None, None, NO_CLOSED_FORM)
    if p >= 1.0:
        phi, case = _phi_kolmogorov(n, k, p, q)
        if math.isinf(q):
            widen = math.log(math.e * n / k) ** 1.5
            return Bracket(phi, phi * widen, SHAPE, SHAPE, case + "-log-bracket")
        return Bracket.point(phi, SHAPE, case)
    return Bracket(None, None, None, None, NO_CLOSED_FORM)


# ---------------------------------------------------------------------------
# rank-restricted searches
# ---------------------------------------------------------------------------


def _residual_norm(T, S_matrix, stop=math.inf):
    """||T - S||, or a value >= stop once the norm is known to reach ``stop``
    (see op_norm); ``v < stop`` has the same answer either way.  A residual
    with a non-finite entry (an overflowed candidate) is inf without a norm:
    its norm would be inf or NaN, which fails ``v < best`` just the same."""
    R = T.matrix - S_matrix
    if not np.isfinite(R).all():
        return math.inf
    return op_norm(operator(R, T.domain.p, T.codomain.p, field=T.field), stop=stop).lower


def _low_rank(A, B):
    """A @ B for the rank-restricted candidates.  Perturbed factors of a huge
    matrix can overflow; the residual is then infinite (or NaN), so
    ``_residual_norm`` gives inf and the overflow changes no value and warns
    of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return A @ B


def approx_upper_search(T, k, budget=2000, seed=0):
    """Search upper estimate of a_k(T): min ||T - S|| over rank < k candidates.

    Candidates: the SVD truncation, random perturbations of it, and a
    coordinate-descent polish of the low-rank factors, within `budget` norm
    evaluations.  Residual norms use the exact dispatch where available, so
    in the Hilbert case the result matches sigma_k to within 1e-9 relative
    (checked internally; the truncation candidate attains it).  For
    k - 1 >= min(m, n) a rank-(k-1) operator can equal T, so the result is
    exactly 0 and no candidate is evaluated.  At k = 1 the only candidate is
    S = 0, and the result is ``op_norm(T, seed=seed)``'s lower, the value
    ``kolmogorov_upper_search`` gives at k = 1 (a_1 = d_1 = ||T||).

    The search is a branch and bound over the residual norms that op_norm
    cannot give exactly, those of its two non-exact paths (``power-method``
    for p, q >= 1 and ``sampled-ascent`` for q < min(1, p)): a candidate is
    only asked whether it beats the best value so far, so its norm is
    evaluated with that threshold as op_norm's ``stop``: ``best`` for the
    restarts, which keep ``v < best``, and ``best - 1e-15`` for the
    descent, which keeps ``v < best - 1e-15``.  The truncation candidate,
    which sets the first best, gets no stop.  A candidate that is kept had
    a full norm below its stop, so its path ran in full and gave the same
    float; one that was stopped returned a value at or above the stop, so
    it is rejected as its full norm would have been.  Each path seeds its
    own generator from the residual matrix, so stopping one early changes
    no other draw, and the result is the same float as with every norm
    evaluated in full.  The exact paths ignore the stop.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    M = T.matrix
    m_, n_ = M.shape
    r = k - 1
    if r >= min(m_, n_):
        return 0.0
    if r == 0:
        return float(op_norm(T, seed=seed).lower)
    hilbert = T.domain.p == 2.0 and T.codomain.p == 2.0

    U, s, Vh = np.linalg.svd(M)
    r_eff = min(r, s.size)
    A0 = U[:, :r_eff] * s[:r_eff]
    B0 = Vh[:r_eff]
    best = _residual_norm(T, _low_rank(A0, B0))
    spent = 1

    rng = np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(M).tobytes()), k]
    )
    scale = float(s[0]) if s.size else 1.0

    A, B = A0.copy(), B0.copy()
    best_AB = (A0.copy(), B0.copy())
    # random restarts around the truncation
    for _ in range(3):
        if spent >= budget:
            break
        Ar = A0 + 0.05 * scale * _random_like(rng, A0)
        Br = B0 + 0.05 * _random_like(rng, B0)
        v = _residual_norm(T, _low_rank(Ar, Br), stop=best)
        spent += 1
        if v < best:
            best, best_AB = v, (Ar, Br)

    # coordinate descent on the factor entries
    A, B = best_AB[0].copy(), best_AB[1].copy()
    step = 0.1 * max(scale, 1e-12)
    while spent < budget and step > 1e-10 * max(scale, 1.0):
        improved = False
        coords = [("A", i) for i in range(A.size)] + [("B", i) for i in range(B.size)]
        rng.shuffle(coords)
        for which, i in coords:
            if spent + 2 > budget:
                break
            target = A if which == "A" else B
            flat = target.reshape(-1)
            old = flat[i]
            for delta in (step, -step):
                flat[i] = old + delta
                v = _residual_norm(T, _low_rank(A, B), stop=best - 1e-15)
                spent += 1
                if v < best - 1e-15:
                    best = v
                    best_AB = (A.copy(), B.copy())
                    old = flat[i]
                    improved = True
                    break
            else:
                flat[i] = old
                continue
        if not improved:
            step *= 0.5

    if hilbert:
        sk = float(s[k - 1]) if k - 1 < s.size else 0.0
        if abs(best - sk) > 1e-9 * max(1.0, sk):
            raise AssertionError(
                f"Eckart-Young consistency failed: search {best} vs sigma_k {sk}"
            )
    return float(best)


def _random_like(rng, X):
    G = rng.standard_normal(X.shape)
    if np.iscomplexobj(X):
        G = G + 1j * rng.standard_normal(X.shape)
    return G


@dataclass(frozen=True)
class SubspaceCandidate:
    """Diagnostics for one evaluated subspace in the Kolmogorov search.

    ``direct`` is the supremum of per-point distances through the basis.
    ``quotient`` is the same supremum through the quotient map: the exact
    operator norm of the projected matrix in the Hilbert case (and ||T|| for
    the zero subspace).  Elsewhere it is None, since the only other route
    would repeat the same distances on the same orthonormal basis.
    """

    kind: str  # svd | svd-jitter | random
    value: float
    direct: float
    quotient: float | None

    @property
    def agreement_gap(self):
        """Relative gap between the two routes; None without a quotient route."""
        if self.quotient is None:
            return None
        return abs(self.direct - self.quotient) / max(1.0, self.direct, self.quotient)


def _orthonormal_columns(M):
    Q, _ = np.linalg.qr(M)
    return Q


def _kolmogorov_candidate_value(T, basis, q, n_samples, seed, bound=None):
    """sup over the unit ball of the distance to span(basis).

    Returns (value, direct, quotient).  Hilbert case: quotient is the exact
    operator norm of the projected matrix, direct the least-squares distance
    at its maximiser, and value the larger of the two; they are the same
    number mathematically, so their gap measures evaluation error only.
    Otherwise direct is the largest distance over the signed unit vectors
    and n_samples sphere points, quotient is None, and value is direct.
    For p <= 1 <= q the supremum is the column maximum, and direct already
    contains it: the first n points are the +e_j, M @ e_j equals M[:, j]
    bit for bit, and the seed is the same, so no separate column pass is
    made.  The searched bases are orthonormal, so no second,
    re-orthonormalised route is evaluated.

    With ``bound=None`` every point gets one dist_to_subspace call, in
    order.  With a bound, the points are taken in descending order of their
    caps (the value dist_to_subspace never exceeds; a stable sort, so ties
    go to the lower index), and two stops skip the calls that cannot change
    the search's result:

    - at the first point whose cap is <= the running max, since every later
      cap, and so every later distance, is no larger: the running max is
      then the full max, the same float;
    - once the running max reaches ``bound``, since the candidate can then
      no longer lower a minimum that is already <= bound; the value
      returned is the running max, which is below the full max or equal.

    A point's distance depends only on (M @ x, basis, q, seed), so taking
    fewer points, in another order, changes no evaluated distance.  Each
    distance is the quotient norm of M @ x modulo span(basis), of the kind
    its dist_to_subspace branch gives: exact (q = 2, real q in {1, inf}),
    certified to spaces.CERTIFIED_GAP (every other 1 <= q < inf, unless it
    falls back to Nelder-Mead), or a descent, which can only overshoot.
    """
    M = T.matrix
    p = T.domain.p
    n = T.domain.n
    if p == 2.0 and q == 2.0:
        Q = _orthonormal_columns(basis)
        P = np.eye(M.shape[0]) - Q @ Q.conj().T
        PM = P @ M
        u, s, vh = np.linalg.svd(PM)
        quotient = float(s[0]) if s.size else 0.0
        # independent route: per-point least-squares distance at the maximiser
        xstar = vh[0].conj()
        direct = dist_to_subspace(M @ xstar, list(basis.T), 2.0)
        value = max(direct, quotient)
        return value, direct, quotient

    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, n, int(n_samples)])
    X = np.vstack([_unit_directions(n, T.field), sample_sphere(rng, n, p, T.field, n_samples)])
    basis_cols = list(basis.T)
    if bound is None:
        direct = max(dist_to_subspace(M @ x, basis_cols, q, seed=seed) for x in X)
        return direct, direct, None
    Y = [M @ x for x in X]
    caps = np.array([_distance_start(y, basis_cols, q)[-1] for y in Y])
    direct = -math.inf
    for j in np.argsort(-caps, kind="stable"):
        if caps[j] <= direct or direct >= bound:
            break
        direct = max(direct, dist_to_subspace(Y[j], basis_cols, q, seed=seed))
    return direct, direct, None


def kolmogorov_upper_search(T, k, budget=10000, seed=0, return_details=False):
    """Search estimate of d_k(T): min over candidate subspaces of the sup-distance.

    Candidate (k-1)-dimensional subspaces: the span of the top left singular
    vectors plus jitters of it (about a fifth of the candidates), and random
    orthonormal frames for the rest.  In the Hilbert case each candidate's
    supremum is evaluated both directly and through the quotient-map
    formulation, and the two must agree to about 1e-6.  Elsewhere it is the
    largest distance over sampled points of the unit ball, one distance per
    point, which only estimates the supremum from below; for p <= 1 <= q
    the points include the columns (the images of the +e_j), whose maximum
    is the exact supremum.  Each distance is a quotient norm from
    dist_to_subspace: exact for q = 2 and for real q = inf, certified for
    1 <= q < inf (up to its Nelder-Mead fallback) except real q = 1, which
    is exact, and a descent elsewhere.  For k - 1 >= min(m, n) a
    (k-1)-dimensional subspace contains the range, so the result is exactly
    0, and no candidate is evaluated (``(0.0, [])`` with details).

    Without details, the non-Hilbert search is a branch and bound over this
    min-max: each candidate gets the best value so far as its bound and
    skips every distance solve that cannot change the result (see
    ``_kolmogorov_candidate_value``).  A point is skipped only when its cap,
    the value its distance never exceeds, is <= the candidate's running
    max, or when that running max has reached the bound and the candidate
    can no longer lower the minimum.  The distances that are solved are
    the same floats as in a full evaluation, so the result is the same
    float; at q = 2 the cap is the distance, and one solve per candidate
    is made.  ``return_details=True`` evaluates every point of every
    candidate, since its diagnostics report each candidate's full value.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = T.codomain.p
    M = T.matrix
    m_ = T.codomain.n
    dim = k - 1

    if dim >= min(M.shape):
        return (0.0, []) if return_details else 0.0
    if dim == 0:
        v = op_norm(T, seed=seed).lower
        cands = [SubspaceCandidate("svd", v, v, v)]
        return (v, cands) if return_details else v

    U, s, Vh = np.linalg.svd(M)
    hilbert = T.domain.p == 2.0 and q == 2.0
    n_cand = max(5, min(20, budget // 500))
    n_svd = max(1, n_cand // 5)
    n_samples = max(8, min(64, budget // (n_cand * 2)))

    rng = np.random.default_rng(
        [int(seed) & 0xFFFFFFFF, zlib.crc32(np.ascontiguousarray(M).tobytes()), k, 77]
    )
    bases = [("svd", U[:, :dim])]
    for _ in range(n_svd - 1):
        J = U[:, :dim] + 0.05 * _random_like(rng, U[:, :dim])
        bases.append(("svd-jitter", _orthonormal_columns(J)))
    for _ in range(n_cand - len(bases)):
        G = _random_like(rng, np.empty((m_, dim)))
        bases.append(("random", _orthonormal_columns(G)))

    cands = []
    best = math.inf
    for i, (kind, basis) in enumerate(bases):
        value, direct, quotient = _kolmogorov_candidate_value(
            T, basis, q, n_samples, seed + i, bound=None if return_details else best
        )
        cands.append(SubspaceCandidate(kind, value, direct, quotient))
        best = min(best, value)
    if return_details:
        return float(best), cands
    return float(best)


# ---------------------------------------------------------------------------
# real/complex comparison
# ---------------------------------------------------------------------------


def real_complex_bracket(seq_real, seq_complex, k, tol=1e-9):
    """Check a^R_(2k-1) <= a_k <= 2 a^R_(2k) between a complex operator's
    s-numbers and those of its realification (zero past the rank)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a = seq_complex.value(k)
    lo = seq_real.value(2 * k - 1)
    hi = 2.0 * seq_real.value(2 * k)
    atol = tol * max(1.0, a, lo, hi)
    return (lo <= a + atol) and (a <= hi + atol)


# ---------------------------------------------------------------------------
# axiom harness
# ---------------------------------------------------------------------------


def _random_square(rng, n, complex_case):
    G = rng.standard_normal((n, n))
    if complex_case:
        G = G + 1j * rng.standard_normal((n, n))
    return G


def s_axiom_suite(snumbers_of, trials=100, seed=0, max_dim=6):
    """Exercise the s-scale axioms on random Hilbert triples.

    ``snumbers_of`` maps a LinOp to an SNumberSeq (the exact Hilbert source
    is ``hilbert_s_numbers``).  Checks norming (s_1 = ||T||, monotone),
    additivity, two-sided ideal behaviour, rank annihilation, normalisation
    on the identity, and multiplicativity.  Returns a CheckReport with one
    entry per check, named after its axiom and carrying a witness
    description; NaN s-numbers fail their checks.
    """
    rng = np.random.default_rng(seed)
    report = CheckReport()
    for t in range(trials):
        n = int(rng.integers(1, max_dim + 1))
        complex_case = bool(t % 3 == 2)
        field = COMPLEX if complex_case else REAL
        R = operator(_random_square(rng, n, complex_case), 2, 2, field=field)
        Tm = _random_square(rng, n, complex_case)
        T = operator(Tm, 2, 2, field=field)
        S = operator(_random_square(rng, n, complex_case), 2, 2, field=field)
        Uo = operator(_random_square(rng, n, complex_case), 2, 2, field=field)
        sT = snumbers_of(T)
        tag = f"trial {t} (n={n}, {field})"

        # (M): ||T|| = s_1 >= s_2 >= ... >= 0
        report.check("norming", sT.value(1), op_norm(T).lower, f"{tag}: s_1 vs norm")
        report.check("norming", op_norm(T).lower, sT.value(1), f"{tag}: norm vs s_1")
        for j in range(1, n):
            report.check("monotone", sT.value(j + 1), sT.value(j), f"{tag}: k={j}")

        # (A): s_{m+l-1}(S+T) <= C (s_m(S) + s_l(T)); C = 1 on l_2
        sS = snumbers_of(S)
        sSum = snumbers_of(add(S, T))
        C = quasi_constant(2.0)
        for m in range(1, n + 1):
            for l in range(1, n - m + 2):
                report.check(
                    "additivity",
                    sSum.value(m + l - 1),
                    C * (sS.value(m) + sT.value(l)),
                    f"{tag}: m={m}, l={l}",
                )

        # (S): s_j(R T U) <= ||R|| s_j(T) ||U||
        sRTU = snumbers_of(compose(R, compose(T, Uo)))
        nR = op_norm(R).lower
        nU = op_norm(Uo).lower
        for j in range(1, n + 1):
            report.check(
                "ideal", sRTU.value(j), nR * sT.value(j) * nU, f"{tag}: j={j}"
            )

        # (R): rank T < j  =>  s_j(T) = 0
        if n > 1:
            u_, s_, vh_ = np.linalg.svd(Tm)
            rank = n - 1
            Tlow = operator((u_[:, :rank] * s_[:rank]) @ vh_[:rank], 2, 2, field=field)
            sLow = snumbers_of(Tlow)
            for j in range(rank + 1, n + 1):
                report.check("rank", sLow.value(j), 0.0, f"{tag}: j={j}", tol=1e-9)

        # (I): s_j(id: l_2^n -> l_2^n) = 1
        sId = snumbers_of(identity_operator(n, 2, 2, field=field))
        for j in range(1, n + 1):
            report.check("normalised", abs(sId.value(j) - 1.0), 0.0, f"{tag}: j={j}")

        # (P): s_{m+l-1}(R T) <= s_m(R) s_l(T)
        sR = snumbers_of(R)
        sRT = snumbers_of(compose(R, T))
        for m in range(1, n + 1):
            for l in range(1, n - m + 2):
                report.check(
                    "multiplicativity",
                    sRT.value(m + l - 1),
                    sR.value(m) * sT.value(l),
                    f"{tag}: m={m}, l={l}",
                )
    return report


def bound_respecting_axioms(trials=6, seed=0, cloud=400, k_max=3):
    """Axiom checks in bound form for the entropy and Kolmogorov estimators.

    Certified lower bounds sit on the left of each inequality and padded
    upper estimates on the right: additivity and multiplicativity for the
    entropy estimators over mixed l_p -> l_q instances, the norm bracket
    C_q e_1-uppers >= ||T|| >= e_1-lower, monotone sequences, and the
    Kolmogorov additivity/multiplicativity on Hilbert instances where exact
    sigma lower data exists.  Returns a CheckReport, as s_axiom_suite does.
    """
    rng = np.random.default_rng(seed)
    report = CheckReport()
    grid = [(1.0, 2.0), (1.0, math.inf), (0.5, 1.0), (2.0, 2.0)]
    for t in range(trials):
        p, q = grid[t % len(grid)]
        n = int(rng.integers(2, 4))
        S = operator(rng.standard_normal((n, n)), p, q)
        T = operator(rng.standard_normal((n, n)), p, q)
        tag = f"trial {t} (p={p}, q={q}, n={n})"
        C = quasi_constant(q)

        upS = entropy_mod.entropy_upper_cover_sequence(S, k_max, cloud=cloud, seed=seed + t)
        upT = entropy_mod.entropy_upper_cover_sequence(T, k_max, cloud=cloud, seed=seed + t + 1)
        loSum = entropy_mod.entropy_lower_pack_sequence(
            add(S, T), 2 * k_max - 1, budget=cloud, seed=seed + t + 2
        )
        padS = [entropy_mod.padded_upper(b, q) for b in upS]
        padT = [entropy_mod.padded_upper(b, q) for b in upT]

        # (M_e) in bound form: nonincreasing estimator sequences, norm bracket
        for j in range(1, k_max):
            report.check("e-monotone-upper", upS[j].upper, upS[j - 1].upper, f"{tag}: k={j+1}")
        loS = entropy_mod.entropy_lower_pack_sequence(S, k_max, budget=cloud, seed=seed + t)
        for j in range(1, k_max):
            report.check("e-monotone-lower", loS[j].lower, loS[j - 1].lower, f"{tag}: k={j+1}")
        if p <= 1.0 and q >= 1.0:
            norm = op_norm(S).lower
            report.check("e-norm-bracket", loS[0].lower, norm, f"{tag}: lower_1 vs norm")
            report.check("e-norm-bracket", norm, C * padS[0], f"{tag}: norm vs C upper_1")

        # (A_e): lower_{m+l-1}(S+T) <= C (upper_m(S) + upper_l(T))
        for m in range(1, k_max + 1):
            for l in range(1, k_max + 1):
                report.check(
                    "e-additivity",
                    loSum[m + l - 2].lower,
                    C * (padS[m - 1] + padT[l - 1]),
                    f"{tag}: m={m}, l={l}",
                )

        # (P_e): lower_{m+l-1}(S2 T) <= upper_m(S2) upper_l(T)
        S2 = operator(rng.standard_normal((n, n)), q, q)
        upS2 = entropy_mod.entropy_upper_cover_sequence(S2, k_max, cloud=cloud, seed=seed + t + 3)
        padS2 = [entropy_mod.padded_upper(b, q) for b in upS2]
        loProd = entropy_mod.entropy_lower_pack_sequence(
            compose(S2, T), 2 * k_max - 1, budget=cloud, seed=seed + t + 4
        )
        for m in range(1, k_max + 1):
            for l in range(1, k_max + 1):
                report.check(
                    "e-multiplicativity",
                    loProd[m + l - 2].lower,
                    padS2[m - 1] * padT[l - 1],
                    f"{tag}: m={m}, l={l}",
                )

        # (A_d), (P_d) on Hilbert instances: exact sigma lowers vs search uppers
        H1 = operator(rng.standard_normal((n, n)), 2, 2)
        H2 = operator(rng.standard_normal((n, n)), 2, 2)
        sSum = singular_values(add(H1, H2))
        sProd = singular_values(compose(H1, H2))
        ku1 = [kolmogorov_upper_search(H1, j, budget=2000, seed=seed + t) for j in range(1, k_max + 1)]
        ku2 = [kolmogorov_upper_search(H2, j, budget=2000, seed=seed + t) for j in range(1, k_max + 1)]
        for m in range(1, k_max + 1):
            for l in range(1, k_max + 1):
                if m + l - 2 < sSum.size:
                    report.check(
                        "d-additivity",
                        float(sSum[m + l - 2]),
                        ku1[m - 1] + ku2[l - 1],
                        f"{tag}: m={m}, l={l}",
                    )
                if m + l - 2 < sProd.size:
                    report.check(
                        "d-multiplicativity",
                        float(sProd[m + l - 2]),
                        ku1[m - 1] * ku2[l - 1],
                        f"{tag}: m={m}, l={l}",
                    )
    return report
