"""Command-line front end.

Five subcommands over the library:

    snum idnumbers --p 1 --q inf --n 8 --k 1..6
        closed-form envelopes (and, for small n, estimator bounds) for the
        entropy / approximation / Kolmogorov numbers of the identity
        l_p^n -> l_q^n, one row per (quantity, k, method);

    snum estimate --input matrix.csv --p 2 --q 2 --k 1..3
        file-based bounds for a user matrix (exact Hilbert path when
        p = q = 2, certified packing lowers + padded cover uppers for e);

    snum verify [--budget 2000] [--inject-bug weyl]
        the property suite: Weyl sweep, Carl, the factor-14 bracket, the
        quasi-norm sandwich, entropy bound consistency, quotient-form
        agreement, regime continuity, and the s-number axioms; process
        exit code 1 iff any check is violated;

    snum volume --p 0.5 --n 6 [--field complex]
        unit-ball volume (and log-volume) of l_p^n;

    snum sweep --p 1 --q 2 --n 64 --k 1..8
        the idnumbers envelopes swept over doubling dimensions 4..n.

Reports are JSON (default) or CSV with a fixed column order, embed the
fully-resolved run configuration, and are byte-identical for identical
configurations: elapsed_ms fields are 0.0 unless --timings is given, and
all randomness flows from --seed (SNUM_SEED serves as a fallback).
Exponents accept decimal literals or the token "inf" and are serialized
back the same way.

Exit codes: 0 clean, 1 property violation, 2 usage or parse error,
3 internal error (an unexpected exception, named on the last line of stderr).
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import entropy as entropy_mod
from .operators import (
    CERTIFIED,
    ESTIMATE,
    EXACT,
    Bracket,
    BracketError,
    identity_operator,
    load_operator,
    op_norm,
    operator,
)
from .spaces import (
    COMPLEX,
    REAL,
    SpaceSpec,
    aoki_norm,
    ball_volume,
    inv_exponent,
    log_ball_volume,
    lp_norm,
    quasi_constant,
)
from .spectral import CheckReport, carl_check, hilbert_entropy_bracket, weyl_check
from .widths import (
    approx_id_envelope,
    approx_upper_search,
    hilbert_s_numbers,
    kolmogorov_id_envelope,
    kolmogorov_upper_search,
    s_axiom_suite,
)

DEFAULT_SEED = 42
DEFAULT_BUDGET = 10_000
DEFAULT_TOL = 1e-9

REPORT_SCHEMA = {
    "type": "object",
    "required": ["config", "rows", "violations"],
    "additionalProperties": False,
    "properties": {
        "config": {
            "type": "object",
            "required": [
                "command", "p", "q", "n", "k_lo", "k_hi", "field",
                "seed", "budget", "tol", "output", "input", "timings",
            ],
            "properties": {
                "command": {"enum": ["idnumbers", "estimate", "verify", "volume", "sweep"]},
                "p": {"type": ["number", "string"]},
                "q": {"type": ["number", "string"]},
                "n": {"type": "integer"},
                "k_lo": {"type": "integer"},
                "k_hi": {"type": "integer"},
                "field": {"enum": ["real", "complex"]},
                "seed": {"type": "integer"},
                "budget": {"type": "integer"},
                "tol": {"type": "number"},
                "output": {"enum": ["json", "csv"]},
                "input": {"type": ["string", "null"]},
                "timings": {"type": "boolean"},
                "inject_bug": {"type": ["string", "null"]},
            },
        },
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "quantity", "k", "lower", "upper", "exact",
                    "method", "label", "elapsed_ms",
                ],
                "additionalProperties": False,
                "properties": {
                    "quantity": {"type": "string"},
                    "k": {"type": "integer"},
                    "lower": {"type": ["number", "string", "null"]},
                    "upper": {"type": ["number", "string", "null"]},
                    "exact": {"type": "boolean"},
                    "method": {"type": "string"},
                    "label": {"type": "string"},
                    "elapsed_ms": {"type": "number"},
                },
            },
        },
        "violations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "detail", "lhs", "rhs"],
                "properties": {
                    "check": {"type": "string"},
                    "detail": {"type": "string"},
                    "lhs": {"type": ["number", "string"]},
                    "rhs": {"type": ["number", "string"]},
                },
            },
        },
    },
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    p: float
    q: float
    n: int
    k_lo: int
    k_hi: int
    field: str
    seed: int
    budget: int
    tol: float
    output: str
    input_path: str | None = None
    timings: bool = False
    inject_bug: str | None = None

    def to_json_dict(self):
        d = dataclasses.asdict(self)
        d["input"] = d.pop("input_path")
        d.update(p=_fmt_exponent(self.p), q=_fmt_exponent(self.q))
        return d


def _parse_exponent(token):
    t = token.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    try:
        v = float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exponent: {token!r}") from None
    if not v > 0:
        raise argparse.ArgumentTypeError(f"exponent must be positive, got {token!r}")
    return v


def _fmt_exponent(p):
    return "inf" if math.isinf(p) else float(p)


def _parse_krange(token):
    t = token.strip()
    if ".." in t:
        lo_s, hi_s = t.split("..", 1)
    else:
        lo_s = hi_s = t
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an index range: {token!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad index range: {token!r}")
    return lo, hi


def _num(x):
    """JSON-safe numeric cell: None passes through, infinities become 'inf'."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _row(quantity, k, bracket, method, label, elapsed_ms=0.0):
    """One report row; it is exact iff both sides of the bracket are."""
    return {
        "quantity": quantity,
        "k": int(k),
        "lower": _num(bracket.lower),
        "upper": _num(bracket.upper),
        "exact": bracket.exact,
        "method": method,
        "label": label,
        "elapsed_ms": float(elapsed_ms),
    }


def _sort_rows(rows):
    def key(r):
        return (r["quantity"], r["k"], r["method"], r["label"])

    rows.sort(key=key)
    return rows


class _Clock:
    """Wall-clock per row when timings are requested, 0.0 otherwise."""

    def __init__(self, enabled):
        self.enabled = enabled
        self._t0 = time.perf_counter() if enabled else 0.0

    def lap(self):
        if not self.enabled:
            return 0.0
        t1 = time.perf_counter()
        ms = (t1 - self._t0) * 1000.0
        self._t0 = t1
        return ms


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _envelope_rows(p, q, n, k_lo, k_hi, field, clock, n_tag=""):
    rows = []
    for k in range(k_lo, k_hi + 1):
        env = (entropy_mod.regime_envelope(p, q, n, k, field=field) if p <= q
               else Bracket(None, None, None, None, "no closed form"))
        rows.append(_row("e", k, env, "regime-envelope", env.method + n_tag, clock.lap()))
        a_env = approx_id_envelope(p, q, n, k)
        rows.append(_row("a", k, a_env, "closed-form", a_env.method + n_tag, clock.lap()))
        d_env = kolmogorov_id_envelope(p, q, n, k, field=field)
        rows.append(_row("d", k, d_env, "closed-form", d_env.method + n_tag, clock.lap()))
    return rows


def _entropy_rows(T, cfg, cloud, clock):
    """e rows for k_lo..k_hi, capped at log2(cloud) + 1: certified packing
    lowers and cover uppers padded by the cloud's nearest-neighbour gap."""
    k_cap = min(cfg.k_hi, int(math.log2(cloud)) + 1)
    if k_cap < cfg.k_lo:
        return []
    brackets = entropy_mod.entropy_brackets(T, k_cap, cloud, max(64, min(cloud, 512)), cfg.seed)
    return [_row("e", k, brackets[k - 1], "pack/cover", "estimator", clock.lap())
            for k in range(cfg.k_lo, k_cap + 1)]


def run_idnumbers(cfg):
    clock = _Clock(cfg.timings)
    rows = _envelope_rows(cfg.p, cfg.q, cfg.n, cfg.k_lo, cfg.k_hi, cfg.field, clock)

    if cfg.n <= 16:
        T = identity_operator(cfg.n, cfg.p, cfg.q, field=cfg.field)
        rows += _entropy_rows(T, cfg, min(2048, max(256, cfg.budget // 8)), clock)
        hilbert = cfg.p == 2.0 and cfg.q == 2.0
        cheap_norm = cfg.p <= 1.0 and cfg.q >= 1.0
        if hilbert:
            seq = hilbert_s_numbers(T)
            for k in range(cfg.k_lo, cfg.k_hi + 1):
                v = Bracket.point(seq.value(k), EXACT, "svd")
                rows.append(_row("a", k, v, "svd", "estimator", clock.lap()))
                rows.append(_row("d", k, v, "svd", "estimator", clock.lap()))
        elif cheap_norm and cfg.n <= 8:
            # p <= 1 <= q: exact residual norms, so the search gives certified uppers
            for k in range(cfg.k_lo, cfg.k_hi + 1):
                a = approx_upper_search(T, k, budget=min(cfg.budget, 400), seed=cfg.seed)
                rows.append(_row("a", k, Bracket(None, a, None, CERTIFIED, "rank-search"),
                                 "rank-search", "estimator", clock.lap()))

    return {"config": cfg.to_json_dict(), "rows": _sort_rows(rows), "violations": []}, 0


def run_estimate(cfg):
    clock = _Clock(cfg.timings)
    T = load_operator(cfg.input_path, cfg.p, cfg.q, field=None)
    if cfg.n >= 1 and cfg.n != T.domain.n:
        raise ValueError(
            f"domain error: --n {cfg.n} does not match matrix columns {T.domain.n}"
        )
    rows = _entropy_rows(T, cfg, min(4096, max(256, cfg.budget // 4)), clock)
    k_hi = cfg.k_hi

    hilbert = T.domain.p == 2.0 and T.codomain.p == 2.0
    if hilbert:
        seq = hilbert_s_numbers(T)
        for k in range(cfg.k_lo, k_hi + 1):
            v = Bracket.point(seq.value(k), EXACT, "svd")
            rows.append(_row("a", k, v, "svd", "exact", clock.lap()))
            rows.append(_row("d", k, v, "svd", "exact", clock.lap()))
    else:
        norm = op_norm(T, budget=min(cfg.budget, 4000), seed=cfg.seed)
        cheap_norm = T.domain.p <= 1.0 and T.codomain.p >= 1.0
        # a_1 = d_1 = ||T||; for k >= 2 the norm is only an upper bound.  A
        # sampled norm is a lower of ||T||, printed as an estimated upper.
        upper = Bracket(None, norm.lower, None, CERTIFIED if norm.exact else ESTIMATE, norm.method)
        for k in range(cfg.k_lo, k_hi + 1):
            bound = norm if norm.exact and k == 1 else upper
            if cheap_norm and T.domain.n <= 8:  # certified, as in run_idnumbers
                a = approx_upper_search(T, k, budget=min(cfg.budget, 400), seed=cfg.seed)
                rows.append(_row("a", k, Bracket(None, a, None, CERTIFIED, "rank-search"),
                                 "rank-search", "estimator", clock.lap()))
            else:
                rows.append(_row("a", k, bound, "norm-bound", "estimator", clock.lap()))
            rows.append(_row("d", k, bound, "norm-bound", "estimator", clock.lap()))

    return {"config": cfg.to_json_dict(), "rows": _sort_rows(rows), "violations": []}, 0


def _verify_weyl(cfg):
    rng = np.random.default_rng([cfg.seed, 1])
    n_instances = max(3, min(40, cfg.budget // 250))
    rep = CheckReport()
    for t in range(n_instances):
        n = int(rng.integers(1, 7))
        complex_case = t % 2 == 1
        M = rng.standard_normal((n, n))
        if complex_case:
            M = M + 1j * rng.standard_normal((n, n))
        T = operator(M, 2, 2, field=COMPLEX if complex_case else REAL)
        rep.merge(weyl_check(T, tol=cfg.tol), "weyl", f"instance {t}: ")
    if cfg.inject_bug == "weyl":
        # test hook: flip the k=1 product inequality on a Jordan block, where
        # the margin is strictly positive, so the flipped form must fail
        e = weyl_check(operator(np.array([[1.0, 1.0], [0.0, 1.0]]), 2, 2), tol=cfg.tol).entries[0]
        rep.check("weyl", e.rhs, e.lhs, f"injected flip of {e.detail}", cfg.tol)
    return rep


def _verify_carl_bracket(cfg):
    rep = CheckReport()
    cloud = max(64, min(1024, cfg.budget // 4))
    for idx, diag in enumerate([(1.0, 0.5), (2.0, 1.0, 0.25)]):
        T = operator(np.diag(diag), 2, 2)
        k_max = 4
        brackets = entropy_mod.entropy_brackets(T, k_max, cloud, min(cloud, 256), cfg.seed + idx)
        rep.merge(carl_check(T, [b.upper for b in brackets], k_max, tol=cfg.tol),
                  "carl", f"diag{diag}: ")
        for n_index in range(1, 4):
            rep.merge(hilbert_entropy_bracket(T, n_index, brackets[n_index - 1], tol=cfg.tol),
                      "bracket", f"diag{diag}: ")
        for k, b in enumerate(brackets, 1):
            rep.check("entropy-bracket", b.lower, b.upper,
                      f"diag{diag}: lower_{k} above padded upper", cfg.tol)
    return rep


def _verify_aoki(cfg):
    rng = np.random.default_rng([cfg.seed, 3])
    rep = CheckReport()
    n_vectors = max(10, min(50, cfg.budget // 200))
    for p in (0.5, 0.8):
        C0 = 2.0 * quasi_constant(p)
        for t in range(n_vectors):
            n = int(rng.integers(1, 6))
            x = rng.standard_normal(n) * rng.integers(1, 4)
            val = aoki_norm(x, p, depth=2, trials=8, seed=cfg.seed + t)
            ref = lp_norm(x, p)
            rep.check("aoki-sandwich", val, ref, f"p={p}, t={t}: above", cfg.tol)
            rep.check("aoki-sandwich", ref / C0**2, val, f"p={p}, t={t}: below", cfg.tol)
    return rep


def _verify_entropy_consistency(cfg):
    rep = CheckReport()
    cloud = max(64, min(512, cfg.budget // 8))
    for (p, q) in ((1.0, 2.0), (1.0, math.inf), (0.5, 1.0)):
        for n in (2, 3):
            T = identity_operator(n, p, q)
            k_max = min(5, int(math.log2(cloud)) + 1)
            bounds = entropy_mod.entropy_upper_cover_sequence(T, k_max, cloud=cloud, seed=cfg.seed)
            for k in range(1, k_max + 1):
                low = entropy_mod.best_certified_lower(T, k, budget=min(cloud, 256), seed=cfg.seed)
                up = entropy_mod.padded_upper(bounds[k - 1], q)
                rep.check("entropy-bracket", low.lower, up,
                          f"id l_{p}^{n}->l_{q}: k={k} ({low.method_lower})", cfg.tol)
    return rep


def _verify_quotient(cfg):
    rng = np.random.default_rng([cfg.seed, 5])
    rep = CheckReport()
    for t in range(4):
        n = int(rng.integers(2, 5))
        T = operator(rng.standard_normal((n, n)), 2, 2)
        for k in range(1, min(n, 3) + 1):
            _, cands = kolmogorov_upper_search(T, k, budget=min(cfg.budget, 4000),
                                               seed=cfg.seed + t, return_details=True)
            for c in cands:
                rep.check("quotient-agreement", c.agreement_gap, 1e-6,
                          f"instance {t}, k={k}, {c.kind}", tol=0.0)
    return rep


def _verify_regimes(cfg):
    rep = CheckReport()
    for n_exp in range(2, 7):
        n = 2**n_exp
        for (p, q) in ((1.0, 2.0), (2.0, math.inf), (1.0, math.inf)):
            for field in (REAL, COMPLEX):
                N = entropy_mod._regime_dim(n, field)
                kb1 = max(1, math.ceil(math.log2(N)))
                kb2 = N
                for kb, lo_piece, hi_piece in ((kb1, entropy_mod.REGIME_SMALL, entropy_mod.REGIME_MID),
                                               (kb2, entropy_mod.REGIME_MID, entropy_mod.REGIME_LARGE)):
                    a = entropy_mod.regime_piece(lo_piece, p, q, n, kb, field=field)
                    b = entropy_mod.regime_piece(hi_piece, p, q, n, kb, field=field)
                    # the pieces meet within a factor 2, relative slack only
                    rep.check("regime-continuity", max(a, b) / min(a, b), 2.0 * (1 + cfg.tol),
                              f"n={n}, p={p}, q={q}, {field}, k={kb}", tol=0.0)
    return rep


def _verify_axioms(cfg):
    trials = max(5, min(60, cfg.budget // 500))
    rep = s_axiom_suite(hilbert_s_numbers, trials=trials, seed=cfg.seed, max_dim=5)
    return CheckReport().merge(rep, "axiom-{}")


def run_verify(cfg):
    clock = _Clock(cfg.timings)
    violations = []
    rows = []
    families = [
        ("weyl", _verify_weyl),
        ("carl+bracket", _verify_carl_bracket),
        ("aoki-sandwich", _verify_aoki),
        ("entropy-bracket", _verify_entropy_consistency),
        ("quotient-agreement", _verify_quotient),
        ("regime-continuity", _verify_regimes),
        ("axioms", _verify_axioms),
    ]
    for name, fn in families:
        rep = fn(cfg)
        bad = rep.violations
        count = Bracket.point(float(len(bad)), EXACT, "suite")
        rows.append(_row(f"check:{name}", len(rep.entries), count,
                         "suite", "violated" if bad else "ok", clock.lap()))
        violations += [{"check": e.name, "detail": e.detail,
                        "lhs": _num(e.lhs), "rhs": _num(e.rhs)} for e in bad]
    report = {"config": cfg.to_json_dict(), "rows": _sort_rows(rows), "violations": violations}
    return report, (1 if violations else 0)


def run_volume(cfg):
    clock = _Clock(cfg.timings)
    space = SpaceSpec(p=cfg.p, n=cfg.n, field=cfg.field)
    rows = [
        _row(quantity, cfg.n, Bracket.point(v, EXACT, "gamma-formula"),
             "gamma-formula", cfg.field, clock.lap())
        for quantity, v in (("vol", ball_volume(space)), ("logvol", log_ball_volume(space)))
    ]
    return {"config": cfg.to_json_dict(), "rows": _sort_rows(rows), "violations": []}, 0


def run_sweep(cfg):
    clock = _Clock(cfg.timings)
    rows = []
    n = 4
    dims = []
    while n < cfg.n:
        dims.append(n)
        n *= 2
    dims.append(cfg.n)
    for n in dims:
        k_hi = min(cfg.k_hi, n)
        if k_hi < cfg.k_lo:
            continue
        rows.extend(_envelope_rows(cfg.p, cfg.q, n, cfg.k_lo, k_hi, cfg.field,
                                   clock, n_tag=f" @n={n}"))
    return {"config": cfg.to_json_dict(), "rows": _sort_rows(rows), "violations": []}, 0


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["quantity", "k", "lower", "upper", "exact", "method", "label", "elapsed_ms"]


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_csv(report):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in report["rows"]:
        w.writerow([r[c] if r[c] is not None else "" for c in CSV_COLUMNS])
    for v in report["violations"]:
        w.writerow([f"violation:{v['check']}", 0, v["lhs"], v["rhs"], False,
                    "witness", v["detail"], 0.0])
    return buf.getvalue()


def render(report, output):
    return render_json(report) if output == "json" else render_csv(report)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="snum",
        description="bounds and estimates for entropy, approximation and "
                    "Kolmogorov numbers on finite-dimensional l_p spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_input in (("idnumbers", False), ("estimate", True),
                              ("verify", False), ("volume", False), ("sweep", False)):
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=_parse_exponent, default=2.0,
                        help="domain exponent (decimal or 'inf')")
        sp.add_argument("--q", type=_parse_exponent, default=2.0,
                        help="codomain exponent (decimal or 'inf')")
        # estimate takes its dimension from the matrix file; 0 = unset there
        sp.add_argument("--n", type=int, default=0 if needs_input else 4,
                        help="dimension" + (" (default: from file)" if needs_input else ""))
        sp.add_argument("--k", type=_parse_krange, default=(1, 4), metavar="K[..K2]",
                        help="index or index range, e.g. 3 or 1..6")
        sp.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: SNUM_SEED or {DEFAULT_SEED})")
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="evaluation budget for estimators")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--output", choices=["json", "csv"], default="json")
        sp.add_argument("--timings", action="store_true",
                        help="fill elapsed_ms (breaks byte-identical reports)")
        if needs_input:
            sp.add_argument("--input", required=True, help="matrix CSV path")
        if name == "verify":
            sp.add_argument("--inject-bug", choices=["weyl"], default=None,
                            help=argparse.SUPPRESS)
    return parser


_RUNNERS = {
    "idnumbers": run_idnumbers,
    "estimate": run_estimate,
    "verify": run_verify,
    "volume": run_volume,
    "sweep": run_sweep,
}


def config_from_args(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SNUM_SEED", DEFAULT_SEED))
    if args.n < 1 and args.command != "estimate":
        raise ValueError("dimension must be >= 1")
    if args.budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol {args.tol!r} must be finite and >= 0")
    return RunConfig(
        command=args.command,
        p=args.p,
        q=args.q,
        n=args.n,
        k_lo=args.k[0],
        k_hi=args.k[1],
        field=args.field,
        seed=seed,
        budget=args.budget,
        tol=args.tol,
        output=args.output,
        input_path=getattr(args, "input", None),
        timings=args.timings,
        inject_bug=getattr(args, "inject_bug", None),
    )


def _power_of_n_overflows(cfg, e):
    """Whether max(2, n)^(1/e) leaves the float range, for the command's
    dimension n (the larger size of an --input matrix); 2^(1/e) and
    lgamma(1 + 1/e) overflow at such an e even when n = 1."""
    n = cfg.n
    if cfg.input_path is not None:
        n = max(load_operator(cfg.input_path, cfg.p, cfg.q, field=None).matrix.shape)
    try:
        max(2.0, float(n)) ** inv_exponent(e)
    except OverflowError:
        return True
    return False


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = config_from_args(args)
        try:
            report, code = _RUNNERS[cfg.command](cfg)
        except OverflowError:
            # the closed forms raise n to powers in 1/p and 1/q, which leave
            # the float range only when an exponent is tiny; any other
            # overflow is a fault of the program
            name, value = min((("p", cfg.p), ("q", cfg.q)), key=lambda t: t[1])
            if not _power_of_n_overflows(cfg, value):
                raise
            raise ValueError(f"exponent --{name} {value!r} is too small: "
                             f"a power of n in 1/{name} overflows a float") from None
        text = render(report, cfg.output)
    except Exception as exc:
        if isinstance(exc, (ValueError, OSError)) and not isinstance(exc, BracketError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        import traceback  # a fault of the program, a BracketError included

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
