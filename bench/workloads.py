"""The three benchmark workloads.

Each workload is a closed loop of tasks, one at a time, that repeats a fixed
cycle of task kinds; task ``i`` runs kind ``i % len(cycle)``.  In-process
tasks draw their inputs from ``default_rng([seed, i])``, so a seed fixes every
input of a run and later cycles average over fresh matrices of the same shapes.
cli-cold repeats one set of commands, whose CSV files and seed come from the
workload seed, so that repeats can be compared byte for byte.  The library only
sees the generated matrices and CSV files.

Library functions are looked up on their module at call time (``E.max_nn_gap``
rather than a name bound at import), so the span wrappers in ``spans.py`` see
every call.
"""

import contextlib
import io
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Callable

import numpy as np

import snumbers
import snumbers.cli
from snumbers import entropy as E
from snumbers import widths as W

from checks import check_cli, check_entropy_bracket, check_width, digest, CheckFailure

INF = math.inf
REAL, COMPLEX = "real", "complex"


@dataclass
class Task:
    label: str
    call: Callable  # the measured work; returns the output to check
    check: Callable  # output -> JSON-ready summary, or raises CheckFailure
    quality: dict  # filled by check: lists of accuracy figures, by name
    repeat_key: tuple | None = None  # outputs under one key must be byte-identical
    inproc: Callable | None = None  # in-process equivalent of call, if call is not


def _matrix(rng, n, field, kind):
    if kind == "identity":
        return np.eye(n, dtype=complex if field == COMPLEX else float)
    M = rng.standard_normal((n, n))
    if field == COMPLEX:
        M = M + 1j * rng.standard_normal((n, n))
    return M


def _lib_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# entropy-brackets
# ---------------------------------------------------------------------------

# (p, q, field, matrix, cloud): each (p, q) meets both fields and both matrix
# kinds once per cycle.  Real operators are 4x4, complex ones 3x3.  Half the
# rows use the middle cloud size, so task_p50_ms is the latency of a 3072-point
# bracket rather than a jump between the 2048 and 4096 groups.
ENTROPY_CYCLE = [
    (1.0, 0.5, REAL, "gauss", 2048),
    (2.0, 1.0, COMPLEX, "identity", 3072),
    (1.0, 2.0, REAL, "identity", 4096),
    (1.0, INF, COMPLEX, "gauss", 3072),
    (1.0, 0.5, COMPLEX, "identity", 3072),
    (2.0, 1.0, REAL, "gauss", 2048),
    (1.0, 2.0, COMPLEX, "gauss", 3072),
    (1.0, INF, REAL, "identity", 4096),
]
PACK_BUDGET = 512  # the packing budget snum estimate/idnumbers use


def entropy_task(seed, i):
    p, q, field, kind, cloud = ENTROPY_CYCLE[i % len(ENTROPY_CYCLE)]
    rng = np.random.default_rng([seed, i])
    n = 4 if field == REAL else 3
    T = snumbers.operator(_matrix(rng, n, field, kind), p, q, field=field)
    s = _lib_seed(rng)
    K = int(math.log2(cloud)) + 1  # 2^(K-1) centres: the cover runs the whole cloud

    def call():
        ups = E.entropy_upper_cover_sequence(T, K, cloud=cloud, seed=s)
        packs = E.entropy_lower_pack_sequence(T, K, budget=PACK_BUDGET, seed=s)
        bests = [E.best_certified_lower(T, k, budget=PACK_BUDGET, seed=s) for k in range(1, K + 1)]
        padded = [E.padded_upper(u, q) for u in ups]
        return ups, packs, bests, padded

    quality = {}

    def check(out):
        rows = check_entropy_bracket(*out)
        quality["bracket_log2_width"] = [math.log2(r[2] / r[4]) for r in rows if r[4] > 0.0]
        return rows

    label = f"entropy {field} {kind} n={n} p={p} q={q} cloud={cloud} K={K}"
    return Task(label, call, check, quality)


# ---------------------------------------------------------------------------
# width-search
# ---------------------------------------------------------------------------

# (search, n, field, p, q, k, budget, matrix), with the dist_to_subspace branch
# (k >= 2 Kolmogorov searches) or op_norm path (approximation searches and k = 1)
# each row exercises.  Budgets keep the quasi and complex rows, whose distances
# run multi-start Nelder-Mead, under half of the cycle between them, and give
# the lp, smooth and sampled-ascent rows similar costs: they sit in the middle
# of the latency distribution, so task_p50_ms is their typical latency.
WIDTH_CYCLE = [
    ("kolmogorov", 4, REAL, 1.0, 0.5, 2, 100, "gauss"),  # quasi
    ("kolmogorov", 3, COMPLEX, 2.0, 1.0, 2, 100, "gauss"),  # complex
    ("kolmogorov", 4, REAL, 1.0, 1.0, 2, 100, "gauss"),  # lp (linprog), plus column sup
    ("kolmogorov", 5, REAL, 2.0, INF, 3, 100, "gauss"),  # lp (linprog)
    ("kolmogorov", 4, REAL, 2.0, 3.0, 2, 300, "gauss"),  # smooth
    ("kolmogorov", 5, REAL, 1.0, 1.5, 3, 160, "gauss"),  # smooth, plus column sup
    ("approx", 5, REAL, 2.0, 1.0, 3, 60, "gauss"),  # op_norm sampled-ascent
    ("approx", 3, COMPLEX, 2.0, 3.0, 2, 60, "gauss"),  # op_norm sampled-ascent
    ("kolmogorov", 5, REAL, 2.0, 2.0, 3, 2000, "gauss"),  # q2, checked against sigma_k
    ("approx", 4, REAL, 2.0, 2.0, 2, 200, "gauss"),  # op_norm svd, checked against sigma_k
    ("approx", 5, REAL, 1.0, 2.0, 3, 200, "gauss"),  # op_norm column-max
    ("kolmogorov", 4, REAL, 1.0, 2.0, 1, 100, "identity"),  # op_norm identity-formula
]


def width_task(seed, i):
    search, n, field, p, q, k, budget, kind = WIDTH_CYCLE[i % len(WIDTH_CYCLE)]
    rng = np.random.default_rng([seed, i])
    M = _matrix(rng, n, field, kind)
    T = snumbers.operator(M, p, q, field=field)
    s = _lib_seed(rng)
    hilbert = p == 2.0 and q == 2.0
    sigma_k = float(np.linalg.svd(M, compute_uv=False)[k - 1]) if hilbert else None
    exact = float(n) ** max(0.0, 1.0 / q - 1.0 / p) if kind == "identity" and k == 1 else None
    fn_name = "approx_upper_search" if search == "approx" else "kolmogorov_upper_search"

    def call():
        return getattr(W, fn_name)(T, k, budget=budget, seed=s)

    quality = {}

    def check(value):
        v = check_width(search, value, sigma_k=sigma_k, exact=exact)
        if sigma_k is not None:
            quality["hilbert_agreement"] = [abs(v - sigma_k) / max(1.0, sigma_k)]
        return v

    label = f"{search} {field} {kind} n={n} p={p} q={q} k={k} budget={budget}"
    return Task(label, call, check, quality)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _write_csv(path, M):
    def tok(z):
        if isinstance(z, complex):
            sign = "+" if z.imag >= 0 else "-"
            return f"{z.real!r}{sign}{abs(z.imag)!r}i"
        return repr(float(z))

    with open(path, "w", encoding="utf-8") as fh:
        for row in M.tolist():
            fh.write(",".join(tok(z) for z in row) + "\n")


class CliInputs:
    """The CSV files and seed the cli-cold commands run on, made from the workload seed."""

    def __init__(self, seed, workdir, root):
        rng = np.random.default_rng([seed, 0xC11])
        os.makedirs(workdir, exist_ok=True)
        rel = os.path.relpath(workdir, root)
        self.cli_seed = str(int(rng.integers(0, 10_000)))
        self.matrices = {}
        for name, n, field in (("hilbert4", 4, REAL), ("gauss5", 5, REAL), ("complex3", 3, COMPLEX)):
            M = _matrix(rng, n, field, "gauss")
            path = os.path.join(rel, f"{name}.csv")
            _write_csv(os.path.join(root, path), M)
            self.matrices[name] = (path, M)

    def path(self, name):
        return self.matrices[name][0]

    def sigma(self, name):
        return np.linalg.svd(self.matrices[name][1], compute_uv=False)


def cli_cycle(inp):
    """(argv, singular values for the Hilbert rows or None, output format)."""
    S = inp.cli_seed
    readme_id = ["idnumbers", "--p", "1", "--q", "inf", "--n", "8", "--k", "1..6",
                 "--field", "complex", "--seed", S]
    return [
        (readme_id, None, "json"),
        (["volume", "--p", "0.5", "--n", "3"], None, "json"),
        (["estimate", "--input", inp.path("hilbert4"), "--k", "1..4", "--seed", S],
         inp.sigma("hilbert4"), "json"),
        (["idnumbers", "--p", "2", "--q", "2", "--n", "4", "--k", "1..4", "--seed", S],
         np.ones(4), "json"),
        (["estimate", "--input", inp.path("gauss5"), "--p", "2", "--q", "1", "--k", "1..3",
          "--seed", S], None, "json"),
        (["sweep", "--p", "1", "--q", "2", "--n", "64", "--k", "3", "--output", "csv"], None, "csv"),
        (["verify", "--budget", "2000", "--seed", S], None, "json"),
        (["estimate", "--input", inp.path("gauss5"), "--p", "1", "--q", "0.5", "--k", "1..3",
          "--seed", S], None, "json"),
        (["idnumbers", "--p", "1", "--q", "2", "--n", "6", "--k", "1..4", "--seed", S], None, "json"),
        (["estimate", "--input", inp.path("complex3"), "--p", "0.5", "--q", "2", "--k", "1..3",
          "--seed", S], None, "json"),
        (["idnumbers", "--p", "0.5", "--q", "1", "--n", "4", "--k", "1..3", "--field", "complex",
          "--seed", S], None, "json"),
        (readme_id, None, "json"),  # a repeat inside every cycle: must be byte-identical
    ]


def main_in_process(argv, cwd):
    """snumbers.cli.main(argv) run in ``cwd``, as the fresh processes are, with its
    output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = snumbers.cli.main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def _check_hilbert_rows(doc, sigma, quality):
    agreement = []
    for r in doc["rows"]:
        if r["quantity"] not in ("a", "d") or r["k"] > sigma.size:
            continue
        tol = {"svd": 1e-9, "subspace-search": 1e-6}.get(r["method"])
        if tol is None:
            continue
        s = float(sigma[r["k"] - 1])
        gap = abs(r["upper"] - s) / max(1.0, s)
        if gap > tol:
            raise CheckFailure(f"{r['quantity']}_{r['k']} ({r['method']}) = {r['upper']!r} "
                               f"disagrees with sigma_k {s!r}")
        agreement.append(gap)
    quality["hilbert_agreement"] = agreement


def cli_task(entry, cmd_prefix, env, root):
    """One snum command in a fresh interpreter; ``entry`` is a row of cli_cycle."""
    argv, sigma, output = entry

    def call():
        r = subprocess.run(cmd_prefix + argv, env=env, cwd=root, capture_output=True, check=False)
        return r.returncode, r.stdout, r.stderr

    quality = {}

    def check(out):
        code, stdout = out[0], out[1]
        doc = check_cli(code, stdout, output, snumbers.cli.REPORT_SCHEMA, snumbers.cli.CSV_COLUMNS)
        if output == "json":
            quality["bracket_log2_width"] = [
                math.log2(r["upper"] / r["lower"]) for r in doc["rows"]
                if r["method"] == "pack/cover" and isinstance(r["lower"], float)
                and isinstance(r["upper"], float) and r["lower"] > 0.0
            ]
            if sigma is not None:
                _check_hilbert_rows(doc, sigma, quality)
        return {"exit": code, "stdout": digest(stdout)}

    return Task(" ".join(argv), call, check, quality, repeat_key=tuple(argv),
                inproc=lambda: main_in_process(argv, root))

