"""The benchmark's result checker: forged bad outputs must count as failed tasks.

    python3 -m pytest bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import snumbers  # noqa: E402
import snumbers.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 5


def _forge(task, output):
    """Run ``task``'s real check on a forged output, after one honest task."""
    tally = checks.Tally()
    tally.run(0, "honest", lambda: 1.0, lambda v: checks.check_width("approx", v))
    assert tally.failed_ratio == 0.0
    tally.run(1, task.label, lambda: output, task.check, task.repeat_key)
    return tally


def _cli_entry(argv, output="json"):
    return (argv, None, output)


def _cli_task(argv, output="json"):
    return wl.cli_task(_cli_entry(argv, output), [], {}, str(ROOT))


def _report(**overrides):
    code, out, _err = wl.main_in_process(["volume", "--p", "0.5", "--n", "3"], ROOT)
    assert code == 0
    doc = json.loads(out)
    doc.update(overrides)
    return doc


def test_lower_above_upper_fails_the_task():
    task = wl.entropy_task(SEED, 0)
    ups, packs, bests, padded = task.call()
    forged_padded = list(padded)
    forged_padded[0] = 0.5 * packs[0].lower  # certified lower now above its upper
    tally = _forge(task, (ups, packs, bests, forged_padded))
    assert tally.failed == 1 and tally.failed_ratio == 0.5
    assert "exceeds padded upper" in tally.records[-1]["error"]


def test_honest_entropy_task_passes():
    task = wl.entropy_task(SEED, 0)
    tally = checks.Tally()
    tally.run(0, task.label, task.call, task.check)
    assert tally.failed == 0
    assert task.quality["bracket_log2_width"]


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_search_value_fails_the_task(value):
    task = wl.width_task(SEED, 10)  # approximation search on a 5x5 l_1 -> l_2 matrix
    tally = _forge(task, value)
    assert tally.failed == 1 and tally.failed_ratio == 0.5
    assert "not finite" in tally.records[-1]["error"]


def test_hilbert_search_off_sigma_k_fails_the_task():
    i = next(i for i, row in enumerate(wl.WIDTH_CYCLE) if row[0] == "approx" and row[3:5] == (2.0, 2.0))
    task = wl.width_task(SEED, i)
    honest = task.call()
    assert checks.Tally().run(0, "", lambda: honest, task.check)["ok"]
    tally = _forge(task, honest * (1 + 1e-6))
    assert "disagrees with sigma_k" in tally.records[-1]["error"]


def test_nan_in_json_report_fails_the_task():
    doc = _report()
    text = json.dumps(doc).replace(json.dumps(doc["rows"][0]["upper"]), "NaN", 1)
    tally = _forge(_cli_task(["volume"]), (0, text.encode(), b""))
    assert tally.failed == 1
    assert "non-finite" in tally.records[-1]["error"]


def test_bad_json_fails_the_task():
    tally = _forge(_cli_task(["volume"]), (0, b'{"config": ', b""))
    assert tally.failed == 1 and "not JSON" in tally.records[-1]["error"]


def test_schema_violation_fails_the_task():
    doc = _report(extra_key=1)
    tally = _forge(_cli_task(["volume"]), (0, json.dumps(doc).encode(), b""))
    assert tally.failed == 1 and "REPORT_SCHEMA" in tally.records[-1]["error"]


def test_wrong_exit_code_fails_the_task():
    doc = _report()
    tally = _forge(_cli_task(["volume"]), (1, json.dumps(doc).encode(), b""))
    assert tally.failed == 1 and "exit code 1" in tally.records[-1]["error"]


def test_non_identical_repeat_fails_the_task():
    task = _cli_task(["volume"])
    out = json.dumps(_report()).encode()
    tally = checks.Tally()
    tally.run(0, task.label, lambda: (0, out, b""), task.check, task.repeat_key)
    tally.run(1, task.label, lambda: (0, out + b" ", b""), task.check, task.repeat_key)
    assert [r["ok"] for r in tally.records] == [True, False]
    assert "not byte-identical" in tally.records[-1]["error"]


def test_raising_task_fails():
    def boom():
        raise ValueError("library error")

    tally = _forge(wl.width_task(SEED, 0), None)
    tally.run(2, "raises", boom, lambda v: v)
    assert tally.failed == 2 and "library error" in tally.records[-1]["error"]


def test_csv_report_with_nan_cell_fails():
    argv = ["sweep", "--p", "1", "--q", "2", "--n", "8", "--k", "2", "--output", "csv"]
    code, out, _err = wl.main_in_process(argv, ROOT)
    lines = out.decode().splitlines()
    cells = lines[1].split(",")
    cells[2] = "nan"
    forged = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    tally = _forge(_cli_task(argv, "csv"), (code, forged.encode(), b""))
    assert tally.failed == 1 and "not finite" in tally.records[-1]["error"]


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.linalg",
        "import time:        10 |         60 |     scipy.optimize",
        "import time:       500 |       1000 |   snumbers.spaces",
        "import time:        40 |       1040 | snumbers",
        "import time:        20 |         20 | snumbers.cli",
    ])
    assert run.parse_importtime(text) == (1060 / 1e6, 360 / 1e6)


def test_tracer_names_branches_and_restores_functions():
    original = snumbers.spaces.dist_to_subspace
    tracer = spans.Tracer()
    with tracer.installed():
        assert snumbers.widths.dist_to_subspace is not original
        snumbers.dist_to_subspace([1.0, 2.0], [[1.0, 0.0]], 3.0)
        snumbers.op_norm(snumbers.identity_operator(3, 1.0, 2.0))
    assert snumbers.widths.dist_to_subspace is original
    assert snumbers.spaces.dist_to_subspace is original
    agg = tracer.aggregate()
    assert agg["spaces.dist_to_subspace.smooth"]["calls"] == 1
    assert agg["operators.op_norm.identity-formula"]["calls"] == 1
    assert all(a["self_s"] >= 0.0 for a in agg.values())
