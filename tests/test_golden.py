"""Committed `snum` reports: every golden command prints what it printed when
the golden files were written (``tests/golden/update.py`` rewrites them)."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_update", Path(__file__).parent / "golden" / "update.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_reports_match_the_golden_files():
    problems = golden.check()
    assert not problems, "reports differ from tests/golden:\n" + "\n".join(problems)


def test_diff_reads_floats_by_hex_or_relative_tolerance():
    old = '{"rows": [{"k": 1, "upper": 1.0, "exact": true, "lower": null}]}'
    ulp = '{"rows": [{"k": 1, "upper": 1.0000000000000002, "exact": true, "lower": null}]}'
    assert golden.diff("c", old, ulp, False, exact=True) == [
        "c.rows[0].upper: 1.0 -> 1.0000000000000002"]
    assert golden.diff("c", old, ulp, False, exact=False) == []
    far = old.replace("1.0", "1.00000000001")
    assert golden.diff("c", old, far, False, exact=False)
    assert golden.diff("c", old, old.replace("true", "false"), False, exact=False)
    assert golden.diff("c", old, old.replace("null", "0.0"), False, exact=False)
    assert golden.diff("c", old, old.replace("1.0", "1"), False, exact=False)
    assert golden.diff("c", old, old.replace(", ", ",  "), False, exact=True) == [
        "c: same values, different bytes"]
    csv_old = "quantity,k,lower\na,1,0.5\n"
    assert golden.diff("c", csv_old, csv_old.replace("0.5", "0.5000000000000001"),
                       True, exact=True)
    assert golden.diff("c", csv_old, csv_old.replace(",1,", ",2,"), True, exact=False)


def test_check_reports_a_crashed_command_and_checks_the_rest(monkeypatch):
    # forged outputs: the first command crashes with exit code 3 and no
    # stdout, the last exits 1 with its golden report, every other command
    # prints its golden report
    exits = {c["name"]: c["exit"] for c in json.loads(golden.MANIFEST.read_text())["commands"]}
    names = {tuple(argv): name for name, argv in golden.COMMANDS}
    crashed, last = golden.COMMANDS[0][0], golden.COMMANDS[-1][0]

    def forged(argv):
        name = names[tuple(argv)]
        if name == crashed:
            return "", "Traceback (most recent call last):\nerror: forged crash\n", 3
        return golden.output_path(name, argv).read_text(), "", 1 if name == last else exits[name]

    monkeypatch.setattr(golden, "run", forged)
    assert golden.check() == [f"{crashed}: exit code 0 -> 3: error: forged crash",
                              f"{crashed}: output is not a report, values not compared",
                              f"{last}: exit code 0 -> 1: no stderr"]
