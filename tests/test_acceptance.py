"""Release gate: one check per contract line, one printed verdict per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every check here states its tolerance inline; none of them may be weakened
without a matching change in the package's documented guarantees.
"""

import json
import math
import time

import numpy as np
import pytest

from snumbers.cli import _build_parser, config_from_args, render_json, run_verify
from snumbers.entropy import (
    REGIME_LARGE,
    REGIME_MID,
    REGIME_SMALL,
    best_certified_lower,
    entropy_upper_cover_sequence,
    padded_upper,
    regime_envelope,
    regime_piece,
)
from snumbers.operators import (
    CERTIFIED,
    ESTIMATE,
    Bracket,
    diagonal_operator,
    identity_operator,
    op_norm,
    operator,
)
from snumbers.spaces import COMPLEX, REAL, QuasiNormInfo, aoki_norm, lp_norm
from snumbers.spectral import carl_check, hilbert_entropy_bracket, koenig_limit_check, weyl_check
from snumbers.widths import (
    approx_id_envelope,
    approx_upper_search,
    bound_respecting_axioms,
    hilbert_s_numbers,
    kolmogorov_id_envelope,
    kolmogorov_upper_search,
    s_axiom_suite,
)

INF = math.inf


def verdict(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


# ---------------------------------------------------------------------------


def test_criterion_01_eigenvalue_singular_value_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    bad = 0
    for trial in range(500):
        n = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n))
        if trial % 2:
            M = M + 1j * rng.standard_normal((n, n))
            T = operator(M, 2.0, 2.0, field=COMPLEX)
        else:
            T = operator(M, 2.0, 2.0)
        rep = weyl_check(T, tol=1e-9)
        bad += len(rep.violations)
    elapsed = time.perf_counter() - t0
    verdict(1, "products/p-sums/determinant on 500 matrices, n <= 8",
            bad == 0 and elapsed < 10.0,
            f"{bad} violations, {elapsed:.1f}s")


def test_criterion_02_sqrt2_eigenvalue_bound_from_covers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    bad = 0
    for n in (2, 3, 4):
        for _ in range(2):
            diag = np.sort(rng.uniform(0.3, 3.0, size=n))[::-1]
            T = diagonal_operator(diag)
            seq = entropy_upper_cover_sequence(T, 6, cloud=5000, seed=11)
            uppers = [padded_upper(b, 2.0) for b in seq]
            rep = carl_check(T, uppers, k_max=6)
            # the contract line is the sqrt(2) corollary; the geometric-mean
            # entries also computed here can trip on the heuristic part of
            # the cloud padding and are asserted with exact uppers elsewhere
            bad += sum(1 for v in rep.violations if v.name == "carl-corollary")
    elapsed = time.perf_counter() - t0
    verdict(2, "|lambda_k| <= sqrt(2) e-hat_k, diagonal, cloud 5000",
            bad == 0 and elapsed < 30.0,
            f"{bad} violations, {elapsed:.1f}s")


def test_criterion_03_factor_14_bracket():
    rng = np.random.default_rng(303)
    bad = 0
    for n in (2, 3, 4, 5):
        diag = np.sort(rng.uniform(0.4, 2.5, size=n))[::-1]
        T = diagonal_operator(diag)
        covers = entropy_upper_cover_sequence(T, 6, cloud=2000, seed=7)
        for idx in range(1, 7):
            lo = best_certified_lower(T, idx, budget=400, seed=7)
            up = covers[idx - 1]
            bracket = Bracket(lo.lower, padded_upper(up, 2.0), CERTIFIED, ESTIMATE,
                              lo.method_lower + "/cover")
            rep = hilbert_entropy_bracket(T, idx, bracket)
            bad += len(rep.violations)
            # and the certified lower must not exceed the padded upper
            bad += bracket.lower > bracket.upper + 1e-9
    verdict(3, "G_n <= upper+delta and lower <= 14 G_n, n <= 5, 6 indices",
            bad == 0, f"{bad} violations")


def test_criterion_04_quasi_norm_sandwich_and_subadditivity():
    rng = np.random.default_rng(404)
    tol = 1e-9
    bad = 0
    for p in (0.4, 0.5, 0.8):
        info = QuasiNormInfo.for_exponent(p)
        A = info.equivalence_factor  # C0^2
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(1, 7)))
            v, nx = aoki_norm(x, p), lp_norm(x, p)
            if not (nx / A - tol <= v <= nx * (1 + tol) + tol):
                bad += 1
        rho = info.rho
        for _ in range(200):
            m = int(rng.integers(1, 7))
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            vs = aoki_norm(x + y, p)
            if vs**rho > aoki_norm(x, p) ** rho + aoki_norm(y, p) ** rho + tol:
                bad += 1
    verdict(4, "rho-norm sandwich + subadditivity, p in {0.4,0.5,0.8}, 200+200",
            bad == 0, f"{bad} violations")


def test_criterion_05_lower_bounds_below_covering_uppers():
    grid = [0.5, 1.0, 2.0, INF]
    bad = 0
    for n in (2, 3):
        for i, p in enumerate(grid):
            for q in grid[i:]:
                T = identity_operator(n, p, q)
                covers = entropy_upper_cover_sequence(T, 8, cloud=1000, seed=5)
                for k in range(1, 9):
                    lo = best_certified_lower(T, k, budget=400, seed=5)
                    if lo.lower > padded_upper(covers[k - 1], q) + 1e-9:
                        bad += 1

    # independent oracle for one covering value: exhaustive grid over the
    # l_1 square (pitch 1/200), plain greedy sup-metric k-center seeded at
    # the grid's approximate Chebyshev center
    pitch = 1.0 / 200
    g = np.arange(-200, 201) * pitch
    X, Y = np.meshgrid(g, g)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    pts = pts[np.abs(pts).sum(axis=1) <= 1.0 + 1e-12]

    def cheb_dist(c):
        return np.max(np.abs(pts - c), axis=1)

    cand = np.linspace(0, len(pts) - 1, 512).astype(int)
    worst = np.array([cheb_dist(pts[ci]).max() for ci in cand])
    d = cheb_dist(pts[int(cand[int(np.argmin(worst))])])
    for _ in range(3):  # 4 centers = 2^(3-1)
        d = np.minimum(d, cheb_dist(pts[int(np.argmax(d))]))
    oracle = float(d.max())

    T = identity_operator(2, 1.0, INF)
    lib = entropy_upper_cover_sequence(T, 3, cloud=5000, seed=42)[2].upper
    ratio = lib / oracle
    verdict(5, "certified lowers <= padded uppers; cover vs grid oracle",
            bad == 0 and 0.9 <= ratio <= 1.1,
            f"{bad} violations, lib/oracle = {ratio:.3f}")


def test_criterion_06_regime_formula_boundary_continuity():
    pairs = [(1.0, 2.0), (2.0, INF), (1.0, INF), (0.5, 1.0), (2.0, 2.0)]
    bad = 0
    for n in (4, 8, 16, 32, 64, 128, 256, 512):
        for field in (REAL, COMPLEX):
            N = 2 * n if field == COMPLEX else n
            k_small = max(1, math.ceil(math.log2(N)))
            for (p, q) in pairs:
                s = regime_piece(REGIME_SMALL, p, q, n, k_small, field=field)
                m = regime_piece(REGIME_MID, p, q, n, k_small, field=field)
                if not (0.5 - 1e-12 <= s / m <= 2.0 + 1e-12):
                    bad += 1
                m2 = regime_piece(REGIME_MID, p, q, n, N, field=field)
                l2 = regime_piece(REGIME_LARGE, p, q, n, N, field=field)
                if not (0.5 - 1e-12 <= m2 / l2 <= 2.0 + 1e-12):
                    bad += 1
    # at k = 2n over the complex field the mid piece is (log2 2 / 2n)^alpha
    # = (2n)^-alpha and the large piece is (2n)^-alpha / 2: the ratio is the
    # number 2, not approximately 2
    n = 16
    mid = regime_piece(REGIME_MID, 1.0, INF, n, 2 * n, field=COMPLEX)
    large = regime_piece(REGIME_LARGE, 1.0, INF, n, 2 * n, field=COMPLEX)
    exact_two = (mid / large) == 2.0
    assert regime_envelope(1.0, INF, n, 2 * n, field=COMPLEX).method == REGIME_MID
    verdict(6, "adjacent regime pieces within factor 2; ratio exactly 2 at k=2n",
            bad == 0 and exact_two,
            f"{bad} boundary violations, mid/large = {mid / large}")


def test_criterion_07_rank_search_matches_singular_values():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        M = rng.standard_normal((n, n))
        T = operator(M, 2.0, 2.0)
        sig = np.linalg.svd(M, compute_uv=False)
        for k in range(1, n + 1):
            v = approx_upper_search(T, k, budget=300, seed=trial)
            worst = max(worst, abs(v - sig[k - 1]) / max(sig[k - 1], 1e-300))
    verdict(7, "low-rank search equals sigma_k on 100 instances, all k",
            worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_08_subspace_search_convergence():
    rng = np.random.default_rng(808)
    worst_rel = 0.0
    worst_gap = 0.0
    for trial in range(8):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        T = operator(M, 2.0, 2.0)
        sig = np.linalg.svd(M, compute_uv=False)
        for k in range(1, n + 1):
            v, cands = kolmogorov_upper_search(T, k, budget=10000, seed=trial,
                                               return_details=True)
            worst_rel = max(worst_rel, (v - sig[k - 1]) / max(sig[k - 1], 1e-300))
            worst_gap = max(worst_gap, max(c.agreement_gap for c in cands))
    verdict(8, "subspace search within 5% of sigma_k; quotient agreement 1e-6",
            worst_rel <= 0.05 and worst_gap <= 1e-6,
            f"worst rel {worst_rel:.4f}, worst gap {worst_gap:.2e}")


def test_criterion_09_closed_form_cross_consistency():
    grid = [0.5, 1.0, 2.0, 4.0, INF]
    bad = 0
    for p in grid:
        for q in [v for v in grid if v <= p]:
            for n in (2, 3, 5, 8):
                a1 = approx_id_envelope(p, q, n, 1)
                if a1.lower != op_norm(identity_operator(n, p, q)).lower:
                    bad += 1
                for k in range(1, n + 1):
                    a = approx_id_envelope(p, q, n, k)
                    d = kolmogorov_id_envelope(p, q, n, k)
                    if q < 1.0:
                        continue  # the quasi-norm target has no exact d-formula
                    if not (a.lower == d.lower and a.upper == d.upper):
                        bad += 1
                    if p == q and a.lower != 1.0:
                        bad += 1
    verdict(9, "exact formulas agree across kinds on the q <= p grid",
            bad == 0, f"{bad} mismatches")


def test_criterion_10_axiom_suite():
    exact = s_axiom_suite(hilbert_s_numbers, trials=100, seed=1010)
    bounded = bound_respecting_axioms(trials=6, seed=1010, cloud=400, k_max=3)
    verdict(10, "normed/additivity/ideal/rank axioms, 100 triples + estimators",
            exact.ok and bounded.ok,
            f"{len(exact.violations)}+{len(bounded.violations)} violations "
            f"in {len(exact.entries)}+{len(bounded.entries)} checks")


def test_criterion_11_power_root_convergence():
    bad = 0
    # exactness on normal instances, every k in the schedule
    rng = np.random.default_rng(1111)
    for n in (2, 3, 4):
        diag = np.sort(rng.uniform(0.5, 3.0, size=n))[::-1]
        T = diagonal_operator(diag)
        for idx in range(1, n + 1):
            rep = koenig_limit_check(T, idx, k_schedule=(1, 2, 4, 8))
            for (_, est) in rep.extras["estimates"]:
                if abs(est - rep.extras["target"]) > 1e-9 * rep.extras["target"]:
                    bad += 1
            if not rep.ok:
                bad += 1
    # 2% at k = 64 whenever the modulus gaps are at least 1.5x
    triangles = [
        np.array([[2.0, 1.0], [0.0, 1.0]]),
        np.array([[3.0, 1.0], [0.0, 2.0]]),
        np.array([[1.5, 0.7], [0.0, 1.0]]),
    ]
    worst = 0.0
    for M in triangles:
        T = operator(M, 2.0, 2.0)
        for idx in (1, 2):
            rep = koenig_limit_check(T, idx, k_schedule=(1, 4, 16, 64))
            worst = max(worst, rep.extras["rel_error"])
            if not rep.ok:
                bad += 1
    verdict(11, "power roots: exact on diagonal, within 2% at k=64 for gaps >= 1.5",
            bad == 0 and worst <= 0.02,
            f"{bad} violations, worst rel {worst:.4f}")


def test_criterion_12_verify_reports_are_byte_identical():
    parser = _build_parser()
    cfg = config_from_args(parser.parse_args(["verify", "--budget", "500", "--seed", "3"]))
    report1, code1 = run_verify(cfg)
    report2, _ = run_verify(cfg)
    first, second = render_json(report1), render_json(report2)
    identical = first.encode() == second.encode() and code1 == 0
    doc = json.loads(first)
    verdict(12, "verify twice with one config: byte-identical report",
            identical and doc["violations"] == [],
            f"identical={identical}, violations={len(doc['violations'])}")
