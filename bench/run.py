"""Benchmark for snumbers: entropy brackets, width searches and cold CLI runs.

    python3 bench/run.py                                   # every workload, in turn
    python3 bench/run.py --workload width-search --seed 3 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src`` next to this directory.
One run runs whole cycles of its workload's tasks in a closed loop until
about ``--seconds`` have passed, checking every result.  Before the loop,
every eighth of it and after it, it times a fresh interpreter running
``import snumbers, snumbers.cli``; ``setup_s`` is the median of these samples,
whose time is not part of the loop's.  It prints each metric
as ``name = value unit`` and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate run
that reports the per-layer metrics: it runs each task once without and once
with spans around the library's public functions (see ``spans.py``), so the
tracing overhead is the ratio of the two.  Details of every run, per-task
digests of the outputs and, for traced runs, the spans, go to ``bench/out/``.

BLAS and OpenMP pools are pinned to one thread in this process and its
children, so the figures are a plain single-threaded baseline.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("entropy-brackets", "width-search", "cli-cold")
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_STEPS = 8  # the set-up probe samples every 1/8 of the timed loop, and around it
SETUP_CODE = "import snumbers, snumbers.cli"
# No task starts after this many seconds of a run, so that a run whose tasks
# became much slower still ends within three minutes.
HARD_STOP_S = 140.0

END_TO_END = [("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"),
              ("peak_rss_mb", "MB")]

LAYERS = ("spaces", "operators", "entropy", "widths", "spectral", "cli")
DIST_BRANCHES = ("q2", "lp", "smooth", "quasi", "complex")
NORM_PATHS = ("identity-formula", "column-max", "svd", "sampled-ascent")
COMMANDS = ("idnumbers", "estimate", "verify", "volume", "sweep")

PER_LAYER = (
    [("entropy.max_nn_gap.calls", "count"), ("entropy.max_nn_gap.self_s", "s"),
     ("entropy.max_nn_gap.pair_evals", "count")]
    + [(f"entropy.{f}.self_s", "s") for f in (
        "entropy_upper_cover_sequence", "entropy_lower_pack_sequence", "image_cloud",
        "best_certified_lower")]
    + [(f"spaces.dist_to_subspace.{b}.{m}", u) for b in DIST_BRANCHES
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"operators.op_norm.{p}.{m}", u) for p in NORM_PATHS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"widths.{f}.{m}", u) for f in ("approx_upper_search", "kolmogorov_upper_search")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("widths.kolmogorov_upper_search.dist_calls_per_search", "count")]
    + [(f"spectral.{f}.self_s", "s") for f in ("weyl_check", "carl_check",
                                               "hilbert_entropy_bracket")]
    + [("widths.s_axiom_suite.self_s", "s")]
    + [("cli.import.snumbers_s", "s"), ("cli.import.scipy_s", "s")]
    + [(f"cli.run_{c}.self_s", "s") for c in COMMANDS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [("cli.import.share", "ratio")]
    + [("entropy.bracket_log2_width", "log2"), ("widths.hilbert_agreement_max", "ratio")]
    + [("trace.overhead_ratio", "ratio")]
)


def child_env():
    env = dict(os.environ)
    env.pop("SNUM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def parse_importtime(text):
    """(snumbers_s, scipy_s) from ``-X importtime`` output.

    snumbers_s is the cumulative time of the top-level snumbers imports, which
    includes numpy and scipy; scipy_s is the cumulative time of the outermost
    scipy modules, however they were reached.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip().split(".")[0], int(cum)))
    snumbers_us = sum(cum for depth, top, cum in rows if depth == 0 and top == "snumbers")
    scipy_us = 0
    ancestors = []
    # children are printed before their parent, so walk backwards to see parents first
    for depth, top, cum in reversed(rows):
        del ancestors[depth:]
        if top == "scipy" and "scipy" not in ancestors:
            scipy_us += cum
        ancestors.append(top)
    return snumbers_us / 1e6, scipy_us / 1e6


class SetupProbe:
    """Wall times (and import tables) of fresh interpreters importing the package,
    one per sample, taken at points spread over a run."""

    def __init__(self, env, importtime):
        self.env = env
        self.importtime = importtime
        self.cmd = ([sys.executable] + (["-X", "importtime"] if importtime else [])
                    + ["-c", SETUP_CODE])
        self.walls, self.imports = [], []

    def sample(self):
        t0 = time.perf_counter()
        r = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                           check=True)
        self.walls.append(time.perf_counter() - t0)
        if self.importtime:
            self.imports.append(parse_importtime(r.stderr))


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


class Workload:
    """A workload's task factory: ``task(i)`` builds task i of the closed loop."""

    def __init__(self, name, seed, env):
        import workloads as wl

        self.name = name
        if name == "entropy-brackets":
            self.cycle_len = len(wl.ENTROPY_CYCLE)
            self.task = lambda i: wl.entropy_task(seed, i)
        elif name == "width-search":
            self.cycle_len = len(wl.WIDTH_CYCLE)
            self.task = lambda i: wl.width_task(seed, i)
        else:
            cycle = wl.cli_cycle(wl.CliInputs(seed, OUT / f"inputs-seed{seed}", ROOT))
            prefix = [sys.executable, "-m", "snumbers.cli"]
            self.cycle_len = len(cycle)
            self.task = lambda i: wl.cli_task(cycle[i % len(cycle)], prefix, env, ROOT)
            # traced runs time the fresh process with its import table
            traced_prefix = [sys.executable, "-X", "importtime", "-m", "snumbers.cli"]
            self.make_traced = lambda i: wl.cli_task(cycle[i % len(cycle)], traced_prefix,
                                                     env, ROOT)
        self.out_of_process = name == "cli-cold"


def run_loop(workload, seconds, deadline, run_task, probe):
    """Whole cycles until about ``seconds`` of tasks have run; returns their wall time.

    Another cycle starts only while the run would end closer to ``seconds``
    with it than without it, so every run holds the same mix of task kinds.
    The set-up probe samples every ``seconds / SETUP_STEPS``, outside the timed wall.
    """
    t_start = time.perf_counter()
    paused = 0.0
    next_sample = seconds / SETUP_STEPS
    i = 0
    while True:
        run_task(i)
        i += 1
        now = time.perf_counter()
        if now > deadline:
            break
        elapsed = now - t_start - paused
        if (i % workload.cycle_len == 0
                and elapsed + 0.5 * elapsed / (i // workload.cycle_len) >= seconds):
            break
        if elapsed >= next_sample:
            probe.sample()
            paused += time.perf_counter() - now
            next_sample += seconds / SETUP_STEPS
    return time.perf_counter() - t_start - paused


def run_measured(workload, tally, seconds, deadline, probe):
    def run_task(i):
        task = workload.task(i)
        tally.run(i, task.label, task.call, task.check, task.repeat_key)

    wall = run_loop(workload, seconds, deadline, run_task, probe)
    lat = [r["latency_s"] for r in tally.records]
    who = resource.RUSAGE_CHILDREN if workload.out_of_process else resource.RUSAGE_SELF
    metrics = {
        "tasks_per_s": (tally.attempted - tally.failed) / wall,
        "task_p50_ms": 1000.0 * statistics.median(lat),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {"wall_s": wall, "tasks": tally.attempted, "failed_ratio": tally.failed_ratio}
    if len(lat) >= 100:  # at least ten samples above the 90th percentile
        extra["task_p90_ms"] = 1000.0 * statistics.quantiles(lat, n=10)[-1]
    return metrics, extra


def run_traced(workload, tally, seconds, deadline, probe, tracer):
    from checks import CheckFailure

    times = {"traced": 0.0, "untraced": 0.0, "process": 0.0, "import": 0.0}
    quality = {}

    def run_task(i):
        task = workload.task(i)
        run = task.inproc or task.call

        def call():
            outs = []
            if workload.out_of_process:
                t0 = time.perf_counter()
                outs.append(workload.make_traced(i).call())
                times["process"] += time.perf_counter() - t0
                times["import"] += parse_importtime(outs[0][2].decode())[0]
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.task = i
                    with tracer.installed():
                        t0 = time.perf_counter()
                        outs.append(run())
                        times["traced"] += time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    outs.append(run())
                    times["untraced"] += time.perf_counter() - t0
            return outs

        def check(outs):
            summaries = [task.check(o) for o in outs]
            if any(s != summaries[0] for s in summaries[1:]):
                raise CheckFailure("traced, untraced and fresh-process outputs differ")
            return summaries[0]

        tally.run(i, task.label, call, check, task.repeat_key)
        for key, vals in task.quality.items():
            quality.setdefault(key, []).extend(vals)

    run_loop(workload, seconds, deadline, run_task, probe)
    return times, quality


def layer_metrics(tracer, times, quality, imports, out_of_process):
    agg = tracer.aggregate()

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    m = {
        "entropy.max_nn_gap.pair_evals": get("entropy.max_nn_gap", "count"),
        "cli.import.snumbers_s": statistics.median(s for s, _ in imports),
        "cli.import.scipy_s": statistics.median(s for _, s in imports),
        "widths.kolmogorov_upper_search.dist_calls_per_search":
            tracer.children_per_parent("widths.kolmogorov_upper_search", "spaces.dist_to_subspace."),
        "entropy.bracket_log2_width": statistics.fmean(quality.get("bracket_log2_width") or [0.0]),
        "widths.hilbert_agreement_max": max(quality.get("hilbert_agreement") or [0.0]),
        "trace.overhead_ratio": times["traced"] / times["untraced"],
    }
    # the share denominator is the time a user waits: the fresh process for
    # cli-cold, the traced in-process call otherwise
    denom = times["process"] if out_of_process else times["traced"]
    for layer in LAYERS:
        mine = [a for name, a in agg.items() if name.startswith(layer + ".")]
        m[f"{layer}.errors"] = sum(a["errors"] for a in mine)
        m[f"{layer}.self_share"] = sum(a["self_s"] for a in mine) / denom
    m["cli.import.share"] = times["import"] / denom if out_of_process else 0.0
    for name, _unit in PER_LAYER:
        if name not in m:  # <span name>.<calls|self_s>
            span, field = name.rsplit(".", 1)
            m[name] = get(span, field)
    return m


def _fmt(metrics, units):
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units}


def run_workload(name, seed, seconds, trace):
    """One run of one workload; returns the result object printed as the last line."""
    import checks
    import spans

    t_begin = time.perf_counter()
    deadline = t_begin + HARD_STOP_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    env_record = environment()
    print("env " + json.dumps(env_record, sort_keys=True), flush=True)

    probe = SetupProbe(env, importtime=bool(trace))
    probe.sample()
    workload = Workload(name, seed, env)
    tally = checks.Tally()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env_record}
    if trace:
        tracer = spans.Tracer()
        times, quality = run_traced(workload, tally, seconds, deadline, probe, tracer)
    else:
        metrics, extra = run_measured(workload, tally, seconds, deadline, probe)
    probe.sample()
    if trace:
        metrics = layer_metrics(tracer, times, quality, probe.imports, workload.out_of_process)
        units = PER_LAYER
        detail.update(times=times, spans=tracer.dump())
    else:
        metrics["setup_s"] = statistics.median(probe.walls)
        units = END_TO_END
        detail["extra"] = extra
        for key, value in extra.items():
            print(f"{key} = {value}", flush=True)
    detail.update(setup_samples_s=probe.walls, imports=probe.imports, tasks=tally.records,
                  metrics=metrics)
    first_cycle = [r.get("digest", "failed") for r in tally.records[: workload.cycle_len]]
    detail["first_cycle_digest"] = checks.digest(first_cycle)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for r in tally.records:
        if not r["ok"]:
            print(f"FAILED task {r['id']} ({r['label']}): {r['error']}", flush=True)
    print(f"first-cycle digest = {detail['first_cycle_digest']} "
          f"({min(len(tally.records), workload.cycle_len)} tasks)", flush=True)
    for metric, unit in units:
        print(f"{metric} = {metrics[metric]!r} {unit}", flush=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _fmt(metrics, units),
    }


def run_all(args):
    """Every workload in its own process (so peak memory is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = r.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if r.returncode != 0 or not lines:
            print(r.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
        failed_ratio = result["failed"] / result["attempted"]
        combined["metrics"][f"{name}.failed_ratio"] = {"value": failed_ratio, "unit": "ratio"}
    print("== summary", flush=True)
    for metric, v in combined["metrics"].items():
        print(f"{metric:70s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(combined))
    return status


def main(argv=None):
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snumbers" / "__init__.py").is_file():
        print(f"error: no snumbers sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
