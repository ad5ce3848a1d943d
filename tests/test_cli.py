"""Command-line surface: schemas, exit codes, determinism, parsing."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import jsonschema
import numpy as np
import pytest

from snumbers.cli import (
    CSV_COLUMNS,
    REPORT_SCHEMA,
    config_from_args,
    main,
    render_json,
    run_verify,
    _build_parser,
)

CLI = [sys.executable, "-m", "snumbers.cli"]


def run_cli(*args, env=None):
    e = dict(os.environ)
    e.pop("SNUM_SEED", None)
    if env:
        e.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=e)


def cli_json(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def diag_csv(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("3,0,0\n0,2,0\n0,0,1\n")
    return str(path)


# ---------------------------------------------------------------------------
# schema and shape
# ---------------------------------------------------------------------------


def test_all_subcommands_emit_schema_valid_json(capsys, diag_csv):
    invocations = [
        ["idnumbers", "--p", "1", "--q", "2", "--n", "4", "--k", "1..3"],
        ["estimate", "--input", diag_csv, "--k", "1..2"],
        ["verify", "--budget", "300"],
        ["volume", "--p", "0.5", "--n", "3"],
        ["sweep", "--p", "1", "--q", "inf", "--n", "16", "--k", "2"],
    ]
    for argv in invocations:
        code, doc = cli_json(capsys, *argv)
        assert code == 0, argv
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["config"]["command"] == argv[0]


def test_csv_output_columns(capsys):
    assert main(["idnumbers", "--p", "2", "--q", "2", "--n", "3", "--k", "1",
                 "--output", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1


# ---------------------------------------------------------------------------
# known values through the pipe
# ---------------------------------------------------------------------------


def rows_of(doc, quantity, k=None):
    rows = [r for r in doc["rows"] if r["quantity"] == quantity]
    if k is not None:
        rows = [r for r in rows if r["k"] == k]
    return rows


def test_idnumbers_hilbert_identity(capsys):
    _, doc = cli_json(capsys, "idnumbers", "--p", "2", "--q", "2", "--n", "4",
                      "--k", "1..4")
    for quantity in ("a", "d"):
        for r in rows_of(doc, quantity):
            assert r["upper"] == 1.0
            assert r["exact"]
            if r["method"] == "closed-form":
                assert r["lower"] == 1.0


def test_idnumbers_exact_formula_value(capsys):
    _, doc = cli_json(capsys, "idnumbers", "--p", "2", "--q", "1", "--n", "4",
                      "--k", "2")
    (a,) = rows_of(doc, "a", 2)
    assert a["lower"] == pytest.approx(math.sqrt(3.0))
    assert a["label"] == "exact-formula"


def test_idnumbers_regime_value_complex(capsys):
    _, doc = cli_json(capsys, "idnumbers", "--p", "1", "--q", "inf", "--n", "8",
                      "--k", "4", "--field", "complex")
    rows = [r for r in rows_of(doc, "e", 4) if r["method"] == "regime-envelope"]
    assert rows, doc["rows"]
    assert rows[0]["label"] == "mid-k"
    assert rows[0]["upper"] == pytest.approx(0.5804820237218405, rel=1e-12)


def test_estimate_diagonal_exact(capsys, diag_csv):
    _, doc = cli_json(capsys, "estimate", "--input", diag_csv, "--k", "1..3")
    assert [r["lower"] for r in rows_of(doc, "a")] == [3.0, 2.0, 1.0]
    assert [r["lower"] for r in rows_of(doc, "d")] == [3.0, 2.0, 1.0]
    assert all(r["exact"] for r in rows_of(doc, "a"))


@pytest.mark.parametrize("matrix, n_a_norm", [
    # real, n = 9 > 8: the a rows are norm bounds too
    ([[(i * 9 + j) % 7 - 3.0 for j in range(9)] for i in range(3)], 3),
    # complex, n = 3: the a rows come from the rank search
    ([[1 + 2j, 0, 0.5], [0, 1 - 1j, 2], [3j, 1, 0]], 0),
])
def test_estimate_norm_bound_is_exact_only_at_k1(capsys, tmp_path, matrix, n_a_norm):
    path = tmp_path / "m.csv"
    fmt = lambda z: f"{z.real}{z.imag:+}i" if isinstance(z, complex) else str(z)  # noqa: E731
    path.write_text("".join(",".join(map(fmt, row)) + "\n" for row in matrix))
    # p = 1, q = 2: the column maximum is the exact norm
    _, doc = cli_json(capsys, "estimate", "--input", str(path), "--p", "1", "--q", "2",
                      "--k", "1..3", "--budget", "400")
    norm_rows = [r for r in doc["rows"] if r["method"] == "norm-bound"]
    assert len(norm_rows) == 3 + n_a_norm
    column_max = float(np.linalg.norm(np.array(matrix), axis=0).max())
    for r in norm_rows:
        assert r["upper"] == pytest.approx(column_max, rel=1e-12)
        if r["k"] == 1:  # a_1 = d_1 = ||T||
            assert r["exact"] and r["lower"] == r["upper"]
        else:
            assert not r["exact"] and r["lower"] is None


def test_row_refuses_exact_with_unequal_bounds(monkeypatch, capsys):
    import snumbers.cli
    from snumbers.cli import _row
    from snumbers.operators import CERTIFIED, EXACT, Bracket, BracketError

    # a row is exact iff both sides of its bracket are
    assert _row("a", 1, Bracket.point(2.0, EXACT, "m"), "m", "l")["exact"]
    assert not _row("a", 1, Bracket.point(2.0, CERTIFIED, "m"), "m", "l")["exact"]
    for lower, upper in ((None, 2.0), (1.0, 2.0), (math.nan, math.nan)):
        with pytest.raises(BracketError):
            Bracket(lower, upper, EXACT, EXACT, "m")

        # such a row is the program's fault, not the input's: exit 3, not 2
        def broken(cfg, lower=lower, upper=upper):
            return {"rows": [_row("a", 2, Bracket(lower, upper, EXACT, EXACT, "m"),
                                  "m", "l")]}, 0

        monkeypatch.setitem(snumbers.cli._RUNNERS, "volume", broken)
        assert main(["volume", "--p", "2", "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "internal error: BracketError: inconsistent Bracket(")


def test_internal_error_exits_three(monkeypatch, capsys):
    import snumbers.cli

    def broken(cfg):
        raise AssertionError("Eckart-Young residual mismatch")

    monkeypatch.setitem(snumbers.cli._RUNNERS, "volume", broken)
    assert main(["volume", "--p", "2", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "internal error: AssertionError: Eckart-Young residual mismatch")


def test_overflow_without_a_tiny_exponent_exits_three(monkeypatch, capsys):
    # only a power of n in 1/p or 1/q that leaves the float range is an
    # input error; at p = q = 2 an OverflowError is a fault of the program
    import snumbers.cli

    def overflowing(cfg):
        raise OverflowError("math range error")

    monkeypatch.setitem(snumbers.cli._RUNNERS, "idnumbers", overflowing)
    assert main(["idnumbers", "--p", "2", "--q", "2", "--n", "4"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: OverflowError: math range error"


def test_volume_unit_disc(capsys):
    _, doc = cli_json(capsys, "volume", "--p", "2", "--n", "2")
    (vol,) = rows_of(doc, "vol")
    (logvol,) = rows_of(doc, "logvol")
    assert vol["lower"] == pytest.approx(math.pi)
    assert logvol["lower"] == pytest.approx(math.log(math.pi))


def test_infinity_round_trips_in_config(capsys):
    _, doc = cli_json(capsys, "idnumbers", "--p", "1", "--q", "inf", "--n", "4",
                      "--k", "1")
    assert doc["config"]["q"] == "inf"  # JSON has no bare Infinity


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_verify_clean_exits_zero():
    r = run_cli("verify", "--budget", "300")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["violations"] == []


def test_verify_injected_bug_exits_one():
    r = run_cli("verify", "--budget", "300", "--inject-bug", "weyl")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["violations"], "expected a witness"
    w = doc["violations"][0]
    assert w["lhs"] > w["rhs"]
    assert (w["check"], w["detail"]) == ("weyl", "injected flip of k=1")
    r = run_cli("verify", "--budget", "300", "--inject-bug", "weyl", "--output", "csv")
    assert r.returncode == 1
    witness = [line for line in r.stdout.splitlines() if line.startswith("violation:")]
    assert len(witness) == 1
    assert witness[0].startswith("violation:weyl,")
    assert witness[0].endswith(",witness,injected flip of k=1,0.0")


def test_verify_lower_above_padded_upper_exits_one(monkeypatch, capsys):
    # a packing lower above its padded cover upper is a violated property:
    # verify reports it with its witnesses and exits 1, not 2
    from snumbers import entropy

    real = entropy.entropy_lower_pack_sequence

    def inflated(*args, **kwargs):
        return [dataclasses.replace(b, lower=b.lower * 10 + 5) for b in real(*args, **kwargs)]

    monkeypatch.setattr(entropy, "entropy_lower_pack_sequence", inflated)
    code = main(["verify", "--budget", "300"])
    out, err = capsys.readouterr()
    assert code == 1, err
    checks = {v["check"] for v in json.loads(out)["violations"]}
    assert {"entropy-bracket", "bracket"} <= checks


def test_verify_check_counts(capsys):
    code, doc = cli_json(capsys, "verify", "--budget", "2000", "--seed", "7")
    assert code == 0
    assert doc["violations"] == []
    counts = {r["quantity"]: r["k"] for r in doc["rows"]}
    assert counts == {
        "check:weyl": 202,
        "check:carl+bracket": 36,
        "check:aoki-sandwich": 40,
        "check:entropy-bracket": 30,
        "check:quotient-agreement": 34,
        "check:regime-continuity": 60,
        "check:axioms": 132,
    }


def test_malformed_csv_exits_two_and_names_position(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    r = run_cli("estimate", "--input", str(bad))
    assert r.returncode == 2
    assert "line 2" in r.stderr
    assert "column 2" in r.stderr


def test_ragged_csv_exits_two(tmp_path):
    bad = tmp_path / "ragged.csv"
    bad.write_text("1,2\n3\n")
    r = run_cli("estimate", "--input", str(bad))
    assert r.returncode == 2
    assert "line 2" in r.stderr


def test_infinite_csv_entry_exits_two_and_names_position(tmp_path, capsys):
    bad = tmp_path / "inf.csv"
    bad.write_text("1,0\ninf,1\n")
    assert main(["estimate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 1: non-finite entry 'inf'" in err


def test_nan_csv_entry_exits_two_and_names_position(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("1,nan+1i\n0,1\n")
    assert main(["estimate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 2: non-finite entry 'nan+1i'" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exits_two_and_names_it(capsys, tol):
    # exit 1 means a violated property; a tolerance that is not a finite
    # number >= 0 is an input error
    assert main(["verify", "--budget", "300", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol")


def test_overflowing_image_distances_exit_two_without_warnings(tmp_path):
    big = tmp_path / "big.csv"
    # antipodal images 2e308 apart: the packing's separation overflows
    big.write_text("1e308,0\n0,1e308\n")
    r = run_cli("estimate", "--input", str(big), "--p", "2", "--q", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: image-cloud distances overflow")
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


def test_overflowing_rank_search_candidates_do_not_warn(tmp_path):
    # perturbed low-rank factors of a 1e200 matrix overflow in their product;
    # those candidates lose the search, so the report is unchanged and quiet
    big = tmp_path / "big.csv"
    big.write_text("1e200,1e200\n1e200,1e200\n")
    args = ["estimate", "--input", str(big), "--p", "1", "--q", "1", "--k", "1..2"]
    env = dict(os.environ)
    env.pop("SNUM_SEED", None)
    strict = subprocess.run([sys.executable, "-W", "error::RuntimeWarning"] + CLI[1:] + args,
                            capture_output=True, text=True, env=env)
    assert strict.returncode == 0
    assert strict.stderr == ""
    loose = subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning"] + CLI[1:] + args,
                           capture_output=True, text=True, env=env)
    assert strict.stdout == loose.stdout
    a = [r["upper"] for r in json.loads(strict.stdout)["rows"] if r["quantity"] == "a"]
    assert a == [2e200, 6.798566308054619e184]


def test_bad_exponent_exits_two():
    r = run_cli("idnumbers", "--p", "banana", "--q", "2", "--n", "4", "--k", "1")
    assert r.returncode == 2
    r = run_cli("idnumbers", "--p", "-1", "--q", "2", "--n", "4", "--k", "1")
    assert r.returncode == 2


def test_tiny_exponent_exits_two_and_names_it():
    r = run_cli("idnumbers", "--p", "0.001", "--q", "1e-300")
    assert r.returncode == 2
    assert "--q 1e-300" in r.stderr
    assert "Traceback" not in r.stderr


def test_tiny_exponent_at_n_one_exits_two_and_names_it():
    # n^(1/p) = 1 never overflows, but lgamma(1 + 1/p) in the volume does
    r = run_cli("volume", "--p", "1e-306", "--n", "1")
    assert r.returncode == 2
    assert "--p 1e-306" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("p", ["0.001", "1e-4", "2e-3"])
def test_sphere_overflow_at_tiny_p_exits_two_and_names_p(p):
    r = run_cli("idnumbers", "--p", p, "--q", "2")
    assert r.returncode == 2
    assert f"exponent p={float(p)!r} is too small" in r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_commands_load_no_scipy():
    # scipy is imported only by the real LP and the Nelder-Mead distance
    # paths, neither of which these commands reach
    code = textwrap.dedent("""
        import contextlib, io, sys
        import snumbers, snumbers.cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not loaded(), ("import", loaded())
        for argv in (
            ["volume", "--p", "0.5", "--n", "3"],
            ["idnumbers", "--p", "1", "--q", "inf", "--n", "8", "--k", "1..6",
             "--field", "complex"],
            ["sweep", "--p", "1", "--q", "2", "--n", "64", "--k", "3", "--output", "csv"],
            ["verify", "--budget", "2000"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert snumbers.cli.main(argv) == 0, argv
            assert not loaded(), (argv, loaded())
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_exact_rows_have_equal_bounds(capsys, tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2,1,0,0\n1,3,1,0\n0,1,-1,2\n0.5,0,2,1\n")
    readme = [
        ["idnumbers", "--p", "1", "--q", "inf", "--n", "8", "--k", "1..6", "--field", "complex"],
        ["idnumbers", "--p", "2", "--q", "2", "--n", "4", "--k", "1..4"],
        ["estimate", "--input", str(matrix), "--k", "1..4"],
        ["verify", "--budget", "2000", "--seed", "7"],
        ["volume", "--p", "0.5", "--n", "3"],
        ["sweep", "--p", "1", "--q", "2", "--n", "64", "--k", "3", "--output", "csv"],
    ]
    for argv in readme:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "csv" in argv:
            rows = list(csv.DictReader(io.StringIO(out)))
            exact = [r for r in rows if r["exact"] == "True"]
        else:
            rows = json.loads(out)["rows"]
            exact = [r for r in rows if r["exact"]]
        for r in exact:
            assert r["lower"] == r["upper"], (argv, r)


def test_dimension_mismatch_exits_two(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,0\n0,1\n")
    r = run_cli("estimate", "--input", str(f), "--n", "5")
    assert r.returncode == 2
    assert "does not match matrix columns" in r.stderr


# ---------------------------------------------------------------------------
# determinism and seeds
# ---------------------------------------------------------------------------


def test_verify_twice_byte_identical_in_process():
    parser = _build_parser()
    cfg = config_from_args(parser.parse_args(["verify", "--budget", "400"]))
    rep1, code1 = run_verify(cfg)
    rep2, code2 = run_verify(cfg)
    assert (code1, code2) == (0, 0)
    assert render_json(rep1) == render_json(rep2)


def test_cli_byte_identical_across_processes():
    a = run_cli("verify", "--budget", "300", "--seed", "7")
    b = run_cli("verify", "--budget", "300", "--seed", "7")
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_seed_env_fallback_and_override():
    base = run_cli("idnumbers", "--p", "1", "--q", "2", "--n", "6", "--k", "2",
                   env={"SNUM_SEED": "9"})
    assert json.loads(base.stdout)["config"]["seed"] == 9
    over = run_cli("idnumbers", "--p", "1", "--q", "2", "--n", "6", "--k", "2",
                   "--seed", "11", env={"SNUM_SEED": "9"})
    assert json.loads(over.stdout)["config"]["seed"] == 11


def test_timings_opt_in(capsys):
    _, quiet = cli_json(capsys, "verify", "--budget", "300")
    assert all(r["elapsed_ms"] == 0.0 for r in quiet["rows"])
    _, timed = cli_json(capsys, "verify", "--budget", "300", "--timings")
    assert any(r["elapsed_ms"] > 0.0 for r in timed["rows"])
