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
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import entropy as entropy_mod
from .operators import (
    CERTIFIED,
    EXACT,
    SHAPE,
    Bracket,
    _norm_upper,
    _norm_uppers,
    _row_signs,
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
    _check_exponent,
    _distance_caps,
    _span_of_svd,
    _stable_seed,
    _subspace_distance,
    conjugate_exponent,
    dist_to_subspace,
    inv_exponent,
    lp_norm,
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
    p, q = _check_exponent(p), _check_exponent(q, "q")
    if not n >= 1:
        raise ValueError("n must be >= 1")
    if not k >= 1:
        raise ValueError("k must be >= 1")
    return p, q


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
    p, q = _validate_id_args(p, q, n, k)
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


def kolmogorov_id_envelope(p, q, n, k):
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
    p, q = _validate_id_args(p, q, n, k)
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


def _residual_norms(T, products):
    """``operators._norm_uppers`` of the float residuals T - S for a stack of
    candidate products S, as a list of floats.  A residual with a non-finite
    entry (an overflowed candidate) is inf without a norm: its norm would be
    inf or NaN, which fails ``v < best`` just the same."""
    R = T.matrix - products
    finite = np.isfinite(R).all(axis=(1, 2))
    out = np.full(len(R), math.inf)
    if finite.any():
        out[finite] = _norm_uppers(R[finite], T.domain.p, T.codomain.p, T.field == REAL)[0]
    return out.tolist()


def _low_rank(A, B):
    """A @ B for the rank-restricted candidates.  Perturbed factors of a huge
    matrix can overflow; the residual is then infinite (or NaN), so
    ``_residual_norms`` gives inf and the overflow changes no value and warns
    of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return A @ B


def _product_rounding(T, A, B, value):
    """An upper of ||T - A B|| for the exact product of the factors, from
    ``value``, an upper of ||R^|| for the float residual
    R^ = fl(T - fl(A @ B)).

    Proof.  With r the inner dimension, fl(A @ B) = A B + E_1 with
    |E_1| <= (r + 2) eps |A| |B| entrywise (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, sec. 3.5 and 3.6, complex products
    included), and R^ = (T - fl(A @ B))(1 + delta) with |delta| <= eps.
    So T - A B = R^ + E with |E| <= W = 2 (r + 2) eps (|A| |B| + |R^|).
    For ||x||_p <= 1 every |x_j| <= 1, whatever p > 0, so |(E x)_i| <=
    (W 1)_i and ||E||_{p -> q} <= ||W 1||_q; e below is twice the float
    value of that, which covers the rounding of W 1 and of its norm.  With
    t = min(1, q), ||.||_q^t is subadditive, so ||T - A B||^t <= value^t +
    e^t.  At t = 1 the sum is rounded up by one ulp; below 1 the powers,
    the sum and the root err by at most (3 / t + 1) eps / 2 relative, and
    the factor 1 + 4 eps / t covers that and its own product.
    """
    q = T.codomain.p
    t = min(1.0, q)
    eps = sys.float_info.epsilon
    with np.errstate(over="ignore"):
        W = np.abs(A) @ np.abs(B) + np.abs(T.matrix - _low_rank(A, B))
        e = 4.0 * (A.shape[1] + 2) * eps * lp_norm(W.sum(axis=1), q)
        if e == 0.0:  # a zero residual, or an exact sum
            return value
        if t == 1.0:
            return math.nextafter(value + e, math.inf)
        return float((np.float64(value) ** t + e**t) ** (1.0 / t)) * (1.0 + 4.0 * eps / t)


def approx_upper_search(T, k, budget=2000, seed=0):
    """Certified upper of a_k(T): min ||T - A B|| over rank-(k-1) factors.

    a_k(T) is the infimum of ||T - L|| over operators L of rank < k, so any
    such L gives an upper.  Candidates: the SVD truncation, random
    perturbations of it, and a coordinate-descent polish of the low-rank
    factors.  At p = q = 2 the truncation alone is evaluated: it attains
    a_k = sigma_k (Eckart-Young-Mirsky), so no restart or descent can lower
    it.  Each residual norm is ``operators._norm_upper`` of the float
    residual: op_norm's exact value on its exact paths, so in the Hilbert
    case the result matches sigma_k to within 1e-9 relative (checked
    internally), and elsewhere a certified upper from exact norms (see its
    docstring), with no power method and no sampling.  The search minimises
    these uppers, and the best one, on every path, is then raised to an
    upper of ||T - A B|| for the exact product of its factors by
    ``_product_rounding``, whose docstring proves the margin, so the value
    is a certified upper of a_k.  For k - 1 >= min(m, n) a rank-(k-1)
    operator can equal T, so the result is exactly 0 and no candidate is
    evaluated.  At k = 1 the only candidate is S = 0, and the result is
    ``_norm_upper(T)``'s value, op_norm's upper, which
    ``kolmogorov_upper_search`` also gives at k = 1 (a_1 = d_1 = ||T||).

    The candidates are scored in stacks, one ``operators._norm_uppers`` call
    each, whose values have the bits of one call per candidate.  The
    truncation and its restarts are one stack.  In the descent, a stack
    holds the +step and -step candidates of the pass's next coordinates,
    all built from the current factors, as many as the remaining budget and
    2^14 residual entries allow.  The search then decides on them in order,
    by the sequential rule: it takes the first improvement and discards the
    rest of the stack, and the next stack starts from the new factors.
    ``budget`` counts the candidates the search decides on, exactly as one
    norm per candidate would; the discarded norms are not counted.
    """
    return _approx_search(T, k, budget, seed)[0]


def _approx_search(T, k, budget, seed):
    """approx_upper_search's value and the factors (A, B) of its best
    candidate, or None where no candidate is evaluated (k = 1 and past full
    rank)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    M = T.matrix
    m_, n_ = M.shape
    r = k - 1
    if r >= min(m_, n_):
        return 0.0, None
    if r == 0:
        return _norm_upper(T)[0], None
    hilbert = T.domain.p == 2.0 and T.codomain.p == 2.0

    U, s, Vh = np.linalg.svd(M)
    r_eff = min(r, s.size)
    A0 = U[:, :r_eff] * s[:r_eff]
    B0 = Vh[:r_eff]
    rng = np.random.default_rng(_stable_seed(seed, M, k))
    scale = float(s[0]) if s.size else 1.0

    # the truncation and, off the Hilbert case, up to 3 random restarts
    # around it, in one stack; a row of X holds the entries of A, then those
    # of B.  At p = q = 2 the truncation attains a_k = sigma_k
    # (Eckart-Young-Mirsky), so neither restarts nor the descent can lower it
    starts = [(A0, B0)] + [(A0 + 0.05 * scale * _random_like(rng, A0),
                            B0 + 0.05 * _random_like(rng, B0))
                           for _ in range(0 if hilbert else min(3, budget - 1))]
    X = np.array([np.concatenate([a.ravel(), b.ravel()]) for a, b in starts])
    norms = _residual_norms(T, _low_rank(*_factors(X, A0.shape, B0.shape)))
    best, x = min(zip(norms, X), key=lambda candidate: candidate[0])
    spent = len(X)

    # coordinate descent on the entries of x, the best factors so far: each
    # coordinate tries +step, then -step, and takes the first that improves
    # on the best by 1e-15
    step = 0.1 * max(scale, 1e-12)
    while not hilbert and spent + 2 <= budget and step > 1e-10 * max(scale, 1.0):
        improved = False
        coords = np.arange(x.size)
        rng.shuffle(coords)
        j = 0
        while j < x.size and spent + 2 <= budget:
            batch = coords[j:j + min(budget - spent, max(2, 2 ** 14 // M.size)) // 2]
            j += len(batch)
            X, moved = _coordinate_tries(x, batch, step)
            norms = _residual_norms(T, _low_rank(*_factors(X, A0.shape, B0.shape)))
            for c, v in enumerate(norms):
                spent += 1
                if v < best - 1e-15:
                    best = v
                    x[batch[c // 2]] = moved[c]
                    improved = True
                    j -= len(batch) - c // 2 - 1  # the next stack starts after it
                    break
        if not improved:
            step *= 0.5

    best_AB = _factors(x, A0.shape, B0.shape)
    if hilbert:
        sk = float(s[k - 1]) if k - 1 < s.size else 0.0
        if abs(best - sk) > 1e-9 * max(1.0, sk):
            raise AssertionError(
                f"Eckart-Young consistency failed: search {best} vs sigma_k {sk}"
            )
    return float(_product_rounding(T, *best_AB, best)), best_AB


def _factors(X, shape_A, shape_B):
    """The factors A and B held by X (or by each row of X), as views."""
    size = shape_A[0] * shape_A[1]
    return (X[..., :size].reshape(X.shape[:-1] + shape_A),
            X[..., size:].reshape(X.shape[:-1] + shape_B))


def _coordinate_tries(x, coords, step):
    """The candidates of a stretch of the coordinate descent from the entries
    x: for each coordinate of ``coords``, in order, x with that entry moved
    by +step and then by -step.  Returns them as the rows of a stack, and
    the moved entries."""
    at = np.repeat(coords, 2)
    moved = x[at]
    moved[0::2] += step
    moved[1::2] += -step
    X = np.repeat(x[None], len(at), axis=0)
    X[np.arange(len(at)), at] = moved
    return X, moved


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


def _sample_images(T, n_samples, seed):
    """The images the non-Hilbert Kolmogorov search measures every candidate
    on: M @ x for the n unit vectors +e_j, then n_samples sphere points from
    ``default_rng([seed, n, n_samples])``, as the rows of one array of a
    single field, complex if any image is.  They are formed by one stacked
    ``np.matmul(M, X[..., None])``, which takes the matrix-vector product of
    each column vector, so each image has the bits of its own M @ x."""
    n = T.domain.n
    rng = np.random.default_rng([int(seed), n, int(n_samples)])
    X = np.vstack([np.eye(n), sample_sphere(rng, n, T.domain.p, T.field, n_samples)])
    Y = np.matmul(T.matrix, X[..., None])[..., 0]
    return Y.astype(complex if np.iscomplexobj(Y) else float)


def _factored_candidates(bases, images, q):
    """(Q, tilt, caps) for each candidate basis: ``spaces._orthonormal_span``
    of the basis cast to the images' field, and the images'
    ``spaces._distance_caps`` on that span, as a list.  The bases are
    factored by one stacked ``np.linalg.svd`` and capped by one stacked
    ``_distance_caps`` when their ranks agree (one call per candidate when
    they do not).  numpy's linalg gufuncs run the same LAPACK routine on
    each matrix of a stack, and the stacked caps add only an outer loop, so
    every value has the bits of the calls for one candidate alone."""
    Bs = np.array(bases).astype(images.dtype)
    U, s, _ = np.linalg.svd(Bs, full_matrices=False)
    spans = [_span_of_svd(u, sv, max(Bs.shape[1:])) for u, sv in zip(U, s)]
    if len({Q.shape[1] for Q, _ in spans}) == 1:
        caps = _distance_caps(images, np.array([Q for Q, _ in spans]), q)
    else:
        caps = [_distance_caps(images, Q, q) for Q, _ in spans]
    return [(Q, tilt, c.tolist()) for (Q, tilt), c in zip(spans, caps)]


def _kolmogorov_candidate_value(T, basis, q, images, bound=math.inf, factored=None):
    """sup over the unit ball of the distance to span(basis), a matrix with
    orthonormal columns.

    Returns (value, direct, quotient).  Hilbert case: quotient is the exact
    operator norm of the projected matrix, direct the least-squares distance
    at its maximiser, and value the larger of the two; they are the same
    number mathematically, so their gap measures evaluation error only;
    ``images`` is not used.  Without details the search evaluates only its
    SVD candidate here, which attains sigma_k (Eckart-Young-Mirsky).
    Otherwise direct is the largest distance over ``images``, the rows of
    ``_sample_images``, which the search draws once and shares between its
    candidates; quotient is None, and value is direct.  -e_j and i e_j are
    unimodular multiples of e_j, so their images have the same distance, and
    they are not taken.  For p <= min(1, q) the supremum is the column
    maximum, as on op_norm's column-max path, and direct already contains
    it: the first n images are M @ e_j, which equals M[:, j] bit for bit, so
    no separate column pass is made.  The searched bases are orthonormal, so
    no second, re-orthonormalised route is evaluated.

    The basis is factored once, as ``spaces._orthonormal_span`` factors it,
    and every image's distance is ``spaces._subspace_distance`` on that
    factorization with the image's cap, from one ``spaces._distance_caps``
    call for all the images: ``factored``, the candidate's entry of the
    search's ``_factored_candidates``, or that of the basis alone.  The two
    are the same floats, since numpy's linalg gufuncs run the same LAPACK
    routine on each matrix of a stack.  The distance is the one
    dist_to_subspace(y, list(basis.T), q) gives, which is at most the cap,
    bit for bit.  The images are taken in descending order of their caps (a
    stable sort, so ties go to the lower index), so the first one solved has
    the largest cap, which at q = 2 is the candidate's value, and two stops
    skip the solves that cannot change the search's result:

    - at the first image whose cap is <= the running max, since every
      later cap, and so every later distance, is no larger: the running
      max is then the full max, the same float;
    - once the running max reaches ``bound``, since the candidate can then
      no longer lower a minimum that is already <= bound; the value
      returned is the running max, which is below the full max or equal.

    With the default bound, inf, only the first stop applies, so the value
    is the full max over every image.  An image's distance depends only on
    (y, basis, q), so taking fewer images, in another order, changes no
    evaluated distance.  Each distance is the quotient norm of y modulo
    span(basis), of the kind its dist_to_subspace branch gives: exact
    (q = 2), exact up to rounding (real q < 1 within the vertex cap),
    certified to spaces.CERTIFIED_GAP (every other q >= 1), or a numpy
    upper bound, which can only overshoot (complex q < 1, and real q < 1
    above the vertex cap).
    """
    M = T.matrix
    if T.domain.p == 2.0 and q == 2.0:
        Q = np.linalg.qr(basis)[0]
        P = np.eye(M.shape[0]) - Q @ Q.conj().T
        PM = P @ M
        u, s, vh = np.linalg.svd(PM)
        quotient = float(s[0]) if s.size else 0.0
        # independent route: per-point least-squares distance at the maximiser
        xstar = vh[0].conj()
        direct = dist_to_subspace(M @ xstar, list(basis.T), 2.0)
        value = max(direct, quotient)
        return value, direct, quotient

    if factored is None:
        factored = _factored_candidates([basis], images, q)[0]
    Q, tilt, caps = factored

    direct = -math.inf
    for j in np.argsort(-np.array(caps), kind="stable"):
        if caps[j] <= direct or direct >= bound:
            break
        direct = max(direct, _subspace_distance(images[j], Q, tilt, caps[j], q))
    return direct, direct, None


def kolmogorov_upper_search(T, k, budget=10000, seed=0, return_details=False):
    """Search estimate of d_k(T): min over candidate subspaces of the sup-distance.

    Candidate (k-1)-dimensional subspaces: the span of the top left singular
    vectors plus jitters of it (about a fifth of the candidates), and random
    orthonormal frames for the rest.  Every candidate's Gaussian matrix is
    drawn first, in the generator's order, and the drawn matrices are
    orthonormalised by one stacked ``np.linalg.qr``.  In the Hilbert case a
    candidate's supremum is evaluated both directly and through the
    quotient-map formulation, and the two must agree to about 1e-6; nothing
    is sampled.  There the SVD span attains d_k = sigma_k
    (Eckart-Young-Mirsky), so without details it is the only candidate
    evaluated, and no other candidate is drawn.
    Elsewhere it is the largest distance over one set of points of the unit
    ball, drawn once per search and shared by every candidate: the +e_j and
    sphere points from the generator ``default_rng([seed, n, n_samples])``,
    whose images M @ x are formed once (``_sample_images``).  That only
    estimates the supremum from below; for p <= min(1, q) the points
    include the columns (the images of the +e_j), whose maximum is the
    exact supremum.  At k = 1 the result is ``_norm_upper(T)``'s value,
    op_norm's upper, as in ``approx_upper_search``.  Each distance is the
    quotient norm dist_to_subspace gives: exact for q = 2, exact up to
    rounding for real q < 1 within the vertex cap, certified to
    spaces.CERTIFIED_GAP for every other q >= 1, and a numpy upper bound
    elsewhere.  Off the Hilbert case the candidates' bases are factored by
    one stacked ``np.linalg.svd`` and the images capped by one stacked
    ``spaces._distance_caps`` (``_factored_candidates``), and every image's
    distance and cap are read from its candidate's share.  numpy's linalg
    gufuncs run the same LAPACK routine on each matrix of a stack, so each
    basis, span and cap has the bits of its own call.  For
    k - 1 >= min(m, n) a (k-1)-dimensional subspace contains the range, so
    the result is exactly 0, and no candidate is evaluated (``(0.0, [])``
    with details).

    Without details, the non-Hilbert search is a branch and bound over this
    min-max: each candidate gets the best value so far as its bound and
    skips every distance solve that cannot change the result (see
    ``_kolmogorov_candidate_value``).  An image is skipped only when its
    cap, the very float its distance is the minimum of, is <= the
    candidate's running max, or when that running max has reached the bound
    and the candidate can no longer lower the minimum.  The distances that
    are solved are the same floats as in a full evaluation, so the result is
    the same float; at q = 2 the cap is the distance, and one solve per
    candidate is made.  ``return_details=True`` evaluates every candidate to
    its full value, on the same images (bound inf, so only the first stop
    applies), and every candidate at p = q = 2, since its diagnostics report
    each candidate's full value.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = T.codomain.p
    M = T.matrix
    dim = k - 1
    hilbert = T.domain.p == 2.0 and q == 2.0

    if dim >= min(M.shape):
        return (0.0, []) if return_details else 0.0
    if dim == 0:
        v = _norm_upper(T)[0]
        cands = [SubspaceCandidate("svd", v, v, v)]
        return (v, cands) if return_details else v

    U = np.linalg.svd(M)[0]
    if hilbert and not return_details:
        # Eckart-Young-Mirsky: the span of the top dim left singular vectors
        # attains d_k = sigma_k, so no other candidate can be smaller
        return float(_kolmogorov_candidate_value(T, U[:, :dim], q, None)[0])
    n_cand = max(5, min(20, budget // 500))
    n_svd = max(1, n_cand // 5)
    n_samples = max(8, min(64, budget // (n_cand * 2)))

    # every candidate's Gaussian matrix is drawn first, in the generator's
    # order, and the drawn matrices are orthonormalised by one stacked QR
    rng = np.random.default_rng(_stable_seed(seed, M, k, 77))
    top = U[:, :dim]
    drawn = [top + 0.05 * _random_like(rng, top) for _ in range(n_svd - 1)]
    drawn += [_random_like(rng, top) for _ in range(n_cand - n_svd)]
    kinds = ["svd"] + ["svd-jitter"] * (n_svd - 1) + ["random"] * (n_cand - n_svd)
    bases = [top, *np.linalg.qr(np.array(drawn))[0]]

    if hilbert:
        images, factored = None, [None] * n_cand
    else:
        images = _sample_images(T, n_samples, seed)
        factored = _factored_candidates(bases, images, q)
    cands = []
    best = math.inf
    for kind, basis, share in zip(kinds, bases, factored):
        value, direct, quotient = _kolmogorov_candidate_value(
            T, basis, q, images, bound=math.inf if return_details else best, factored=share,
        )
        cands.append(SubspaceCandidate(kind, value, direct, quotient))
        best = min(best, value)
    if return_details:
        return float(best), cands
    return float(best)


def width_brackets(T, k_lo, k_hi, budget, seed):
    """One (a_k, d_k) pair of Brackets for each k = k_lo .. k_hi: the one place
    that decides the kinds of the width sides, as ``entropy_brackets`` does for e_k.

    - p = q = 2: sigma_k on both sides, ``exact``, method ``svd``.
    - Elsewhere a_1 = d_1 = ||T||, op_norm's bracket (exact on its exact
      paths), method ``norm-bound``, with op_norm's budget min(budget, 4000).
      For k >= 2 a_k is ``Bracket.meet`` of ``approx_upper_search``'s
      certified upper at budget min(budget, 400), method ``rank-search``,
      and its certified upper (a_k <= a_1), while the search is cheap
      (n <= 8, at most 2^7 ``_row_signs`` per residual norm); elsewhere
      a_k is that bound.  d_k is a_k's bracket: d_k <= a_k, since the range
      of an operator of rank below k is a subspace of dimension below k,
      so a_k's certified upper is d_k's too, and a_k has no lower side.

    The pairs are yielded one k at a time, so a caller can time each.
    """
    if T.domain.p == 2.0 and T.codomain.p == 2.0:
        seq = hilbert_s_numbers(T)
        for k in range(k_lo, k_hi + 1):
            yield (Bracket.point(seq.value(k), EXACT, "svd"),) * 2
        return
    norm = replace(op_norm(T, budget=min(budget, 4000), seed=seed), method="norm-bound")
    bound = Bracket(None, norm.upper, None, CERTIFIED, norm.method)
    m, n = T.matrix.shape
    cheap = n <= 8 and _row_signs(T.domain.p, T.codomain.p, m, T.field == REAL) <= 2 ** 7
    for k in range(k_lo, k_hi + 1):
        a = d = norm if k == 1 else bound
        if k > 1 and cheap:  # at k = 1 the search gives op_norm's upper
            search = approx_upper_search(T, k, budget=min(budget, 400), seed=seed)
            a = d = Bracket.meet(Bracket(None, search, None, CERTIFIED, "rank-search"), bound)
        yield a, d


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
