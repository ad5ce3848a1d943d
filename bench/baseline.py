"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 10                      # every workload
    python3 bench/baseline.py --workload cli-cold --seeds 5
    python3 bench/baseline.py --seeds 10 --write               # also refresh BASELINE.json

Each run is ``bench/run.py --workload W --seed S --trace 0``, as long as
BENCHMARK.json's ``run_seconds``, with seeds 1..K; afterwards one traced run
per workload gives the per-layer figures and layer shares.  For every end-to-end metric it prints the median, the
quartiles and the spread: the distance between the quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json; it exits 1 if a spread exceeds its bound.  ``--write``
stores the summary in ``bench/BASELINE.json`` together with each workload's
reason from BENCHMARK.json and the layer metrics expected to move its
end-to-end metrics (``FEEDS``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which per-layer metric should move which end-to-end metric, on which workload.
FEEDS = {
    "entropy-brackets": [
        ("entropy.max_nn_gap.{calls,self_s,pair_evals}", "tasks_per_s, task_p50_ms"),
        ("entropy.entropy_upper_cover_sequence.self_s", "tasks_per_s (greedy cover at large K)"),
        ("entropy.entropy_lower_pack_sequence.self_s", "tasks_per_s"),
        ("entropy.image_cloud.self_s", "tasks_per_s"),
        ("entropy.best_certified_lower.self_s", "tasks_per_s"),
        ("spaces.*, operators.*, widths.*, cli.import.*", "none: predicted unchanged"),
    ],
    "width-search": [
        ("spaces.dist_to_subspace.{quasi,complex}.*", "tasks_per_s"),
        ("spaces.dist_to_subspace.{lp,smooth}.*", "task_p50_ms"),
        ("operators.op_norm.sampled-ascent.*", "tasks_per_s, task_p50_ms"),
        ("widths.{approx,kolmogorov}_upper_search.*", "tasks_per_s"),
        ("widths.kolmogorov_upper_search.dist_calls_per_search", "tasks_per_s"),
        ("entropy.*", "none: predicted unchanged"),
    ],
    "cli-cold": [
        ("cli.import.{snumbers_s,scipy_s}", "setup_s, task_p50_ms, tasks_per_s"),
        ("cli.run_<command>.self_s", "task_p50_ms"),
        ("entropy.max_nn_gap.*", "little: small clouds (64-2048 points)"),
        ("operators.op_norm.sampled-ascent.*", "the non-Hilbert estimate tasks"),
        ("spectral.*.self_s, widths.s_axiom_suite.self_s", "the verify tasks"),
    ],
}


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write", action="store_true", help="write bench/BASELINE.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for name in args.workload or names:
        runs = []
        for seed in range(1, args.seeds + 1):
            res = one_run(name, seed, 0)
            runs.append(res)
            print(f"{name} seed={seed} attempted={res['attempted']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
                 "feeds": FEEDS[name],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- wide"
            ok &= s["spread"] <= bounds[metric]
            print(f"  {metric:14s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={s['spread']:.4f} bound={bounds[metric]}{flag}", flush=True)
        traced = one_run(name, 1, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer"] = layer
        entry["layer_shares"] = {k: v for k, v in layer.items() if k.endswith("share")}
        print("  shares " + " ".join(f"{k}={v:.3f}" for k, v in entry["layer_shares"].items()))
        summary[name] = entry

    if args.write:
        name = (args.workload or names)[0]
        detail = HERE / "out" / f"{name}-seed1-trace0.json"
        doc = {"seeds": list(range(1, args.seeds + 1)),
               "run_seconds": bench["run_seconds"],
               "env": json.loads(detail.read_text())["env"],
               "workloads": summary}
        (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
