"""Eigenvalue sequences and the inequalities linking them to singular values
and entropy estimates.

All of finite-dimensional spectral theory used here flows through one
ordering: the eigenvalue moduli |lambda_1| >= |lambda_2| >= ... repeated by
algebraic multiplicity, zero-padded past the spectrum.  Against that
sequence we check

  * Weyl:  prod_{i<=k} |lambda_i| <= prod_{i<=k} sigma_i for every k, with
    equality of the full products (both equal |det T|), and the companion
    p-sum domination for every p > 0;
  * Carl:  the geometric mean of the top k moduli is at most
    min_n 2^(n/2k) e_n(T), hence |lambda_k| <= sqrt(2) e_k(T) --- checked
    against *upper estimates* of e_n, which can only make the test harder;
  * the Hilbert-space bracket pinning e_n(T) within a factor 14 of
    G_n = max_k 2^(-n/k) (prod_{i<=k} sigma_i)^(1/k);
  * the radius limit ||T^m||^(1/m) -> r(T) = |lambda_1| and its
    per-eigenvalue refinement sigma_n(T^k)^(1/k) -> |lambda_n|.

Everything is report-generating: functions return a CheckReport whose
entries carry the two sides of each inequality and a margin, rather than
raising on violation, so sweeps can aggregate witnesses.  CheckReport is
the report of every check, the axiom suites of ``widths`` included.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .operators import CERTIFIED, EXACT, singular_values

SQRT2 = math.sqrt(2.0)
BRACKET_FACTOR = 14.0


@dataclass(frozen=True)
class EigenSeq:
    """Eigenvalue moduli in nonincreasing order, length = dimension."""

    moduli: np.ndarray
    padded: bool

    def __post_init__(self):
        m = np.asarray(self.moduli, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("moduli must be a nonempty 1-d array")
        if np.any(np.isnan(m)):
            raise ValueError("moduli must not be NaN")
        if np.any(np.diff(m) > 1e-12 * max(1.0, float(m[0]))):
            raise ValueError("moduli must be nonincreasing")
        if m[-1] < 0:
            raise ValueError("moduli must be nonnegative")
        m.setflags(write=False)
        object.__setattr__(self, "moduli", m)

    def value(self, k):
        if k < 1:
            raise ValueError("eigenvalue index is 1-based")
        if k > self.moduli.size:
            return 0.0
        return float(self.moduli[k - 1])


def eigen_sequence(T):
    """Moduli of the eigenvalues of a square operator, sorted descending.

    Only the moduli are meaningful output (phases/ordering of equal-modulus
    eigenvalues is arbitrary).  ``padded`` flags that the matrix has fewer
    nonzero eigenvalues than its dimension, i.e. trailing zeros stand in
    for an exhausted spectrum (nilpotent directions).
    """
    if T.domain.n != T.codomain.n:
        raise ValueError("eigenvalues need a square operator")
    lam = np.linalg.eigvals(T.matrix)
    moduli = np.sort(np.abs(lam))[::-1].copy()
    cutoff = 1e-12 * max(1.0, float(moduli[0]))
    padded = bool(np.count_nonzero(moduli > cutoff) < moduli.size)
    return EigenSeq(moduli=moduli, padded=padded)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    lhs: float
    rhs: float
    detail: str
    ok: bool

    @property
    def margin(self):
        return self.rhs - self.lhs


@dataclass
class CheckReport:
    """Accumulated inequality checks with witnesses; never raises."""

    entries: list = dataclass_field(default_factory=list)
    extras: dict = dataclass_field(default_factory=dict)

    def check(self, name, lhs, rhs, detail, tol=1e-9):
        """Record lhs <= rhs up to relative and absolute slack tol; NaN fails."""
        ok = lhs <= rhs * (1.0 + tol) + tol
        self.entries.append(CheckEntry(name, float(lhs), float(rhs), detail, bool(ok)))
        return ok

    def merge(self, other, name="{}", prefix=""):
        """Append other's entries, each renamed by the template ``name`` ("{}"
        is its own name) and with ``prefix`` before its detail; returns self."""
        self.entries.extend(
            replace(e, name=name.format(e.name), detail=prefix + e.detail)
            for e in other.entries
        )
        return self

    def assert_finite(self, name, value, detail):
        ok = math.isfinite(value)
        self.entries.append(
            CheckEntry(name, float(value) if ok else math.inf, math.inf, detail, ok)
        )
        return ok

    @property
    def violations(self):
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self):
        return not self.violations


def _require_hilbert(T, who):
    if T.domain.p != 2.0 or T.codomain.p != 2.0:
        raise ValueError(f"{who} needs an l_2 -> l_2 operator")


def weyl_check(T, p_grid=(0.5, 1.0, 2.0, 4.0), tol=1e-9):
    """Eigenvalue/singular-value domination on a square Hilbert instance.

    Checks, for every k up to the dimension: the modulus product against
    the singular-value product, and the partial p-sums for each p in
    ``p_grid`` (weak majorization).  At k = n the two products must agree
    with each other and with |det T| (two one-sided entries each, so the
    report shows equality rather than just <=).
    """
    _require_hilbert(T, "weyl_check")
    if T.domain.n != T.codomain.n:
        raise ValueError("weyl_check needs a square operator")
    lam = eigen_sequence(T).moduli
    sig = singular_values(T)
    n = T.domain.n
    rep = CheckReport()
    for k in range(1, n + 1):
        pl = float(np.prod(lam[:k]))
        ps = float(np.prod(sig[:k]))
        rep.check("weyl-product", pl, ps, f"k={k}", tol)
    for p in p_grid:
        if p <= 0:
            raise ValueError("p-sum exponents must be positive")
        for k in range(1, n + 1):
            rep.check(
                "weyl-psum",
                float(np.sum(lam[:k] ** p)),
                float(np.sum(sig[:k] ** p)),
                f"p={p}, k={k}",
                tol,
            )
    det = float(abs(np.linalg.det(np.asarray(T.matrix, dtype=complex))))
    pl = float(np.prod(lam))
    ps = float(np.prod(sig))
    rep.check("det-equality", pl, det, "prod |lambda| vs |det|", tol)
    rep.check("det-equality", det, pl, "|det| vs prod |lambda|", tol)
    rep.check("det-equality", ps, det, "prod sigma vs |det|", tol)
    rep.check("det-equality", det, ps, "|det| vs prod sigma", tol)
    rep.extras["det"] = det
    return rep


def carl_check(T, entropy_uppers, k_max, tol=1e-9):
    """Geometric-mean and sqrt(2) eigenvalue bounds from entropy uppers.

    ``entropy_uppers[j]`` must upper-bound the (j+1)-th entropy number of
    T; substituting true uppers keeps both inequalities valid, so a
    violation then witnesses an estimator bug, not a counterexample.  Padded
    cover estimates are usually good enough, but their margin is heuristic:
    the sharper geometric-mean form can report sub-percent false positives
    when a padded cover slightly undershoots the true entropy number.
    """
    if T.domain.n != T.codomain.n:
        raise ValueError("carl_check needs a square operator")
    uppers = [float(u) for u in entropy_uppers]
    if not uppers:
        raise ValueError("need at least one entropy upper bound")
    if any(u < 0 for u in uppers):
        raise ValueError("entropy upper bounds must be nonnegative")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lam = eigen_sequence(T).moduli
    n = lam.size
    rep = CheckReport()
    for k in range(1, k_max + 1):
        if k > n:
            gm = 0.0  # lambda_k = 0 past the dimension drags the mean to zero
        else:
            gm = float(np.prod(lam[:k])) ** (1.0 / k)
        bound = min(
            2.0 ** ((j + 1) / (2.0 * k)) * uppers[j] for j in range(len(uppers))
        )
        rep.check("carl-geometric-mean", gm, bound, f"k={k}", tol)
        if k <= len(uppers):
            lam_k = float(lam[k - 1]) if k <= n else 0.0
            rep.check("carl-corollary", lam_k, SQRT2 * uppers[k - 1], f"k={k}", tol)
    return rep


def hilbert_entropy_bracket(T, n_index, bracket, tol=1e-9):
    """Two-sided factor-14 test of a Bracket of e_n on a Hilbert instance.

    G_n = max over 1 <= k <= rank of 2^(-n/k) (prod_{i<=k} sigma_i)^(1/k)
    sits below the n-th entropy number, and within a factor 14 above it, so
    a bracket with a certified (or exact) lower must satisfy
    G_n <= upper and lower <= 14 G_n.  For ``entropy_brackets`` the upper is
    the cover padded by its cloud's gap.
    """
    _require_hilbert(T, "hilbert_entropy_bracket")
    if n_index < 1:
        raise ValueError("entropy index must be >= 1")
    if bracket.lower_kind not in (CERTIFIED, EXACT):
        raise ValueError("bracket test needs a certified lower side")
    if bracket.upper is None:
        raise ValueError("bracket test needs an upper side")
    sig = singular_values(T)
    cutoff = 1e-12 * max(1.0, float(sig[0]) if sig.size else 0.0)
    rank = int(np.count_nonzero(sig > cutoff))
    if rank == 0:
        G = 0.0
    else:
        G = max(
            2.0 ** (-n_index / k) * float(np.prod(sig[:k])) ** (1.0 / k)
            for k in range(1, rank + 1)
        )
    rep = CheckReport()
    rep.extras["G"] = G
    rep.check("bracket-upper", G, bracket.upper, f"n={n_index}: G vs upper+delta", tol)
    rep.check(
        "bracket-lower", bracket.lower, BRACKET_FACTOR * G, f"n={n_index}: lower vs 14G", tol
    )
    return rep


def spectral_radius(T, max_power=64, return_schedule=False):
    """Radius estimate ||T^m||_(2->2)^(1/m) at m = max_power.

    The norm of the power is its top singular value, computed exactly, so
    the estimate always sits at or above the true radius |lambda_1| and
    converges to it; the doubling schedule (repeated squaring, plus a final
    direct power when max_power is not a power of two) is returned on
    request as (m, estimate) pairs.
    """
    if T.domain.n != T.codomain.n:
        raise ValueError("spectral radius needs a square operator")
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    M = np.asarray(T.matrix)
    schedule = []
    P = M.copy()
    m = 1
    while True:
        sig1 = float(np.linalg.norm(P, 2))
        schedule.append((m, sig1 ** (1.0 / m)))
        if m >= max_power:
            break
        if 2 * m <= max_power:
            P = P @ P
            m *= 2
        else:
            P = np.linalg.matrix_power(M, max_power)
            m = max_power
    value = schedule[-1][1]
    if return_schedule:
        return value, schedule
    return value


def koenig_limit_check(T, index, k_schedule=(1, 2, 4, 8, 16, 32, 64), p_grid=(0.5, 1.0, 2.0)):
    """Power-root convergence of one singular value to one eigenvalue modulus.

    Reports sigma_index(T^k)^(1/k) along ``k_schedule`` together with the
    target |lambda_index| and the final relative error; the p-sum companion
    constant K_p = sum |lambda|^p / sum sigma^p is fitted and asserted
    finite (its value is not contractual).  Convergence speed depends on the
    eigenvalue-modulus gaps, so only finiteness is asserted here; tolerance
    belongs to the caller.
    """
    _require_hilbert(T, "koenig_limit_check")
    if T.domain.n != T.codomain.n:
        raise ValueError("koenig_limit_check needs a square operator")
    n = T.domain.n
    if not 1 <= index <= n:
        raise ValueError(f"index must be in 1..{n}")
    ks = sorted(set(int(k) for k in k_schedule))
    if not ks or ks[0] < 1:
        raise ValueError("k_schedule must contain positive integers")
    lam = eigen_sequence(T).moduli
    target = float(lam[index - 1])
    M = np.asarray(T.matrix)
    estimates = []
    for k in ks:
        sig = np.linalg.svd(np.linalg.matrix_power(M, k), compute_uv=False)
        estimates.append((k, float(sig[index - 1]) ** (1.0 / k)))
    rep = CheckReport()
    final = estimates[-1][1]
    rep.extras["target"] = target
    rep.extras["estimates"] = estimates
    rep.extras["rel_error"] = abs(final - target) / max(target, 1e-300)
    sig1 = singular_values(T)
    fitted = {}
    for p in p_grid:
        lhs = float(np.sum(lam**p))
        rhs = float(np.sum(sig1**p))
        K = 1.0 if lhs == 0.0 else (lhs / rhs if rhs > 0 else math.inf)
        fitted[p] = K
        rep.assert_finite("koenig-psum-constant", K, f"p={p}")
    rep.extras["fitted_K"] = fitted
    return rep
