"""Committed `snum` reports: every golden command prints what it printed when
the golden files were written (``tests/golden/update.py`` rewrites them)."""

import importlib.util
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
