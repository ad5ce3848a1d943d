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
from snumbers.widths import NO_CLOSED_FORM

CLI = [sys.executable, "-m", "snumbers.cli"]
MATRIX = os.path.join(os.path.dirname(__file__), "golden", "matrix.csv")


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
    (a,) = [r for r in rows_of(doc, "a", 2) if r["method"] == "closed-form"]
    assert a["lower"] == pytest.approx(math.sqrt(3.0))
    assert a["label"] == "exact-formula"


def test_e_envelope_rows_past_the_closed_form_spell_it_as_the_widths_do(capsys):
    # at p > q the three-regime envelope does not apply; the e rows say so
    # with the label the a and d envelopes use
    _, doc = cli_json(capsys, "idnumbers", "--p", "2", "--q", "1", "--n", "4", "--k", "1..3")
    env = [r for r in rows_of(doc, "e") if r["method"] == "regime-envelope"]
    assert [r["k"] for r in env] == [1, 2, 3]
    assert all((r["label"], r["lower"], r["upper"]) == (NO_CLOSED_FORM, None, None) for r in env)


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
    # complex, n = 3: a_2 and a_3 come from the rank search
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
    # a_1 = d_1 = ||T|| is op_norm's bracket, with no search, at every n, and
    # each d_k row is its a_k row (d_k <= a_k)
    assert len(norm_rows) == 2 * max(1, n_a_norm)
    column_max = float(np.linalg.norm(np.array(matrix), axis=0).max())
    for r in norm_rows:
        assert r["upper"] == pytest.approx(column_max, rel=1e-12)
        if r["k"] == 1:  # a_1 = d_1 = ||T||
            assert r["exact"] and r["lower"] == r["upper"]
        else:
            assert not r["exact"] and r["lower"] is None


@pytest.mark.parametrize("p, q, reached", [
    # values of ||T x||_q at unit vectors x found by multi-start Nelder-Mead
    ("2", "0.5", 27.5712057999613),
    ("3", "0.7", 15.5681198302528),
])
def test_estimate_norm_bound_upper_is_at_least_a_reached_norm(capsys, p, q, reached):
    # q < min(1, p): the sampled ascent gives the lower, and the printed
    # upper is the certified one, so no norm reached at a point exceeds it
    matrix = os.path.join(os.path.dirname(__file__), "golden", "matrix.csv")
    _, doc = cli_json(capsys, "estimate", "--input", matrix, "--k", "1..1", "--p", p, "--q", q)
    rows = [r for r in doc["rows"] if r["method"] == "norm-bound"]
    assert sorted(r["quantity"] for r in rows) == ["a", "d"]
    for r in rows:
        assert not r["exact"]
        assert r["lower"] <= reached <= r["upper"]


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
        "check:entropy-bracket": 30,
        "check:quotient-agreement": 34,
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


@pytest.mark.parametrize("text, p, q, code", [
    ("5e-324,0\n0,5e-324\n", "3", "1.5", 2), ("5e-324,0\n0,5e-324\n", "2", "2", 2),
    ("3e-320,0\n0,3e-320\n", "3", "1.5", 2),
    # one normal entry: the matrix runs
    ("1,5e-324\n0,1\n", "3", "1.5", 0)])
def test_a_subnormal_matrix_exits_two_and_names_the_file(tmp_path, capsys, text, p, q, code):
    # every product of a matrix below the smallest normal float rounds by a
    # whole subnormal step: on the 5e-324 diagonal at (3, 1.5), op_norm's
    # certified lower 1e-323 is above its certified upper 5e-324
    path = tmp_path / "tiny.csv"
    path.write_text(text)
    assert main(["estimate", "--input", str(path), "--p", p, "--q", q, "--k", "1..2"]) == code
    err = capsys.readouterr().err
    assert (str(path) in err and "smallest normal float" in err) == (code == 2)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exits_two_and_names_it(capsys, tol):
    # exit 1 means a violated property; a tolerance that is not a finite
    # number >= 0 is an input error
    assert main(["verify", "--budget", "300", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol")


@pytest.mark.parametrize("argv", [
    ["verify", "--budget", "300", "--seed", "-5"],
    ["estimate", "--input", MATRIX, "--seed", "-1"],
    ["idnumbers", "--n", "4", "--k", "1", "--seed", "-5"],
])
def test_negative_seed_exits_two_and_names_it(capsys, argv):
    # it would otherwise fail in numpy with a message that names no option
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed")


def test_seeds_2_to_the_32_apart_print_different_rows(capsys):
    # the seed is used whole, not wrapped to 32 bits
    rows = [cli_json(capsys, "idnumbers", "--n", "4", "--k", "1..3", "--seed", seed)[1]["rows"]
            for seed in ("0", str(2**32))]
    assert rows[0] != rows[1]


@pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
@pytest.mark.parametrize("argv", [
    ["verify", "--budget", "300"],
    ["estimate", "--input", MATRIX],
    ["idnumbers", "--n", "4", "--k", "1"],
])
def test_bad_seed_from_the_environment_exits_two_and_names_it(capsys, monkeypatch, argv,
                                                              value):
    monkeypatch.setenv("SNUM_SEED", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SNUM_SEED")


@pytest.mark.parametrize("argv", [
    ["volume", "--p", "0.5", "--n", "3"],
    ["sweep", "--p", "1", "--q", "2", "--n", "8", "--k", "1..2"],
])
@pytest.mark.parametrize("value", ["abc", "9"])
def test_subcommands_without_a_seed_do_not_read_the_environment(capsys, monkeypatch, argv,
                                                                value):
    # they echo the default seed, whatever SNUM_SEED says
    monkeypatch.delenv("SNUM_SEED", raising=False)
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("SNUM_SEED", value)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain


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


def test_tiny_q_image_distances_exit_two_and_name_q_and_the_e_rows():
    # the closed forms 2^999 and 1 are finite, but l_0.001 distances between
    # the identity's image points reach about 4^1000
    r = run_cli("idnumbers", "--p", "1", "--q", "0.001", "--n", "4", "--k", "3..4")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: image-cloud distances overflow")
    assert "e rows" in r.stderr and "--q 0.001" in r.stderr
    assert "Traceback" not in r.stderr


def test_tiny_p_sphere_draws_exit_two_and_name_p_in_the_e_rows(capsys):
    # the sampler's Gamma(1/p) draws overflow at p = 0.001 while q = 1 is
    # harmless, so the error names --p as well as --q
    assert main(["estimate", "--input", MATRIX, "--p", "0.001", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too small to sample the l_p sphere" in captured.err
    assert "in the e rows at --p 0.001 --q 1.0" in captured.err


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
    # a_2 is the rank search's margin for the rounding of a residual of
    # 1e200 entries: the residual's own float norm is rounding noise
    assert a == [2e200, 1.1337997667206968e186]


def test_estimate_prints_an_e_row_for_every_k_past_the_cloud(capsys):
    # the 2,500-point cloud holds 2^(k-1) centres up to k = 12; e_13 keeps
    # e_12's padded upper and its own packing lower
    matrix = os.path.join(os.path.dirname(__file__), "golden", "matrix.csv")
    code, doc = cli_json(capsys, "estimate", "--input", matrix, "--p", "3", "--q", "1.5",
                         "--k", "8..13")
    assert code == 0
    e = rows_of(doc, "e")
    assert [r["k"] for r in e] == list(range(8, 14))
    assert e[-1]["upper"] == e[-2]["upper"] and e[-1]["lower"] == 0.0


@pytest.mark.parametrize("argv", [
    ["estimate", "--p", "2", "--q", "1", "--k", "1..5"],
    ["estimate", "--p", "1", "--q", "0.5", "--k", "1..6"],
    ["estimate", "--p", "1", "--q", "inf", "--k", "1..5"],
    ["estimate", "--p", "3", "--q", "1.5", "--k", "1..6"],
    ["idnumbers", "--p", "0.5", "--q", "1", "--n", "4", "--k", "1..5"],
    ["idnumbers", "--p", "1", "--q", "2", "--n", "6", "--k", "1..7"],
])
def test_no_a_row_prints_an_upper_above_the_d_row_at_its_k(capsys, argv):
    # d_k <= a_k, and a_k meets the rank search with the norm bound that d_k
    # prints, so an a upper above d's at the same k would contradict its label
    if argv[0] == "estimate":
        argv = argv + ["--input", os.path.join(os.path.dirname(__file__), "golden", "matrix.csv")]
    code, doc = cli_json(capsys, *argv, "--budget", "2000")
    assert code == 0
    width = {(r["quantity"], r["k"]): r["upper"] for r in doc["rows"]
             if r["method"] in ("svd", "norm-bound", "rank-search")}
    ks = sorted({k for quantity, k in width if quantity == "d"})
    assert ks == list(range(1, int(argv[argv.index("--k") + 1][3:]) + 1))
    for k in ks:
        assert width[("a", k)] <= width[("d", k)], k
    # a width row is labelled exact iff its bracket is: the norm-bound a_1 =
    # d_1 rows on op_norm's exact paths too
    labels = {(r["label"], r["exact"]) for r in doc["rows"]
              if r["method"] in ("svd", "norm-bound", "rank-search")}
    assert labels <= {("exact", True), ("estimator", False)}


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


def test_idnumbers_rows_in_range_where_the_identity_norm_overflows(capsys):
    # ||id: l_1^16 -> l_0.003^16|| = 16^332.3 is past the float range, but the
    # closed forms at k = 14..16 are not; the norm bound rows print "inf", the
    # cloud's distances overflow too, but 2^13 centres exceed the cloud, so
    # no e row is printed, and the command still succeeds
    code, doc = cli_json(capsys, "idnumbers", "--p", "1", "--q", "0.003", "--n", "16",
                         "--k", "14..16")
    assert code == 0
    assert [r["upper"] for r in rows_of(doc, "a") if r["method"] == "closed-form"] == [
        pytest.approx(3.0 ** (1 / 0.003 - 1)), pytest.approx(2.0 ** (1 / 0.003 - 1)), 1.0]
    assert [r["upper"] for r in doc["rows"] if r["method"] == "norm-bound"] == ["inf"] * 6


def test_a_bracket_fault_in_e_rows_past_the_cloud_exits_three(monkeypatch, capsys):
    # only an overflowing cloud leaves out the e rows that the cloud cannot
    # reach; a BracketError there is a fault of the program, as anywhere
    import snumbers.cli
    from snumbers.operators import BracketError

    def broken(*args):
        raise BracketError("inconsistent Bracket(...)")

    monkeypatch.setattr(snumbers.cli.entropy_mod, "entropy_brackets", broken)
    assert main(["idnumbers", "--p", "1", "--q", "0.003", "--n", "16", "--k", "14..16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "internal error: BracketError: inconsistent Bracket(...)")


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
    # the package imports no scipy; these commands, the certified norm
    # uppers in estimate at (3, 1.5) and (2, 0.5) and in the approximation
    # search among them, load none
    matrix = os.path.join(os.path.dirname(__file__), "golden", "matrix.csv")
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import numpy as np
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
            ["estimate", "--input", {matrix!r}, "--p", "3", "--q", "1.5", "--k", "1..2"],
            ["estimate", "--input", {matrix!r}, "--p", "2", "--q", "0.5", "--k", "1..2"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert snumbers.cli.main(argv) == 0, argv
            assert not loaded(), (argv, loaded())
        M = np.random.default_rng(2).standard_normal((3, 3, 2)) @ [1.0, 1.0j]
        snumbers.approx_upper_search(snumbers.operator(M, 2.0, 3.0), 2, budget=30)
        assert not loaded(), ("approx_upper_search", loaded())
    """)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_entropy_width_and_readme_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma is imported lazily (np.unique loads it, for one), and it adds
    # to a process's peak memory; no kernel or command needs it
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2,1,0,0\n1,3,1,0\n0,1,-1,2\n0.5,0,2,1\n")
    code = textwrap.dedent(f"""
        import contextlib, io, math, sys
        import numpy as np
        import snumbers, snumbers.cli
        from snumbers import entropy, widths

        def loaded():
            return "numpy.ma" in sys.modules

        assert not loaded(), "import"
        M = np.random.default_rng(1).standard_normal((4, 4))
        for q in (0.5, 1.0, 2.0, math.inf):
            T = snumbers.operator(M, 1.0, q)
            entropy.entropy_brackets(T, 9, cloud=256, seed=1)
            assert not loaded(), ("entropy_brackets", q)
        for p, q in ((2.0, 1.0), (1.0, 1.5), (2.0, 2.0)):
            T = snumbers.operator(M, p, q)
            widths.approx_upper_search(T, 2, budget=40, seed=1)
            widths.kolmogorov_upper_search(T, 2, budget=40, seed=1)
            assert not loaded(), ("width searches", p, q)
        for argv in (
            ["idnumbers", "--p", "1", "--q", "inf", "--n", "8", "--k", "1..6",
             "--field", "complex"],
            ["estimate", "--input", {str(matrix)!r}, "--k", "1..4"],
            ["verify", "--budget", "2000", "--seed", "7"],
            ["volume", "--p", "0.5", "--n", "3"],
            ["sweep", "--p", "1", "--q", "2", "--n", "64", "--k", "3", "--output", "csv"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                snumbers.cli.main(argv)
            assert not loaded(), argv
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


def test_estimate_echoes_the_field_and_dimension_of_its_matrix(capsys, tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "golden")
    wide = tmp_path / "wide.csv"
    wide.write_text("1,2,3\n4,5,6\n")
    promoted = tmp_path / "promoted.csv"
    promoted.write_text("1+0i,2\n3,4\n")
    cases = [(os.path.join(golden, name), field, n)
             for name, field, n in (("matrix.csv", "real", 4), ("complex.csv", "complex", 3),
                                    ("big.csv", "real", 2), ("zero.csv", "real", 3))]
    cases += [(str(wide), "real", 3), (str(promoted), "complex", 2)]
    for path, field, n in cases:
        code, doc = cli_json(capsys, "estimate", "--input", path, "--p", "0.5", "--q", "2",
                             "--k", "1", "--budget", "300")
        assert code == 0, path
        assert (doc["config"]["field"], doc["config"]["n"]) == (field, n), path


@pytest.mark.parametrize("command, flag, value", [
    # verify's checks fix their own exponents, sizes and fields
    ("verify", "--p", "3"), ("verify", "--q", "3"), ("verify", "--n", "5"), ("verify", "--k", "2"),
    ("verify", "--field", "complex"),
    # a volume reads only p, n and the field; a sweep has closed forms only
    ("volume", "--q", "3"), ("volume", "--k", "2"), ("volume", "--seed", "5"),
    ("volume", "--budget", "300"), ("volume", "--tol", "0.5"),
    ("sweep", "--seed", "5"), ("sweep", "--budget", "300"), ("sweep", "--tol", "0.5"),
    # only verify's checks read a tolerance, and estimate's field and dimension
    # come from its file: even an --n that matches the 4x4 file is refused
    ("idnumbers", "--tol", "0.5"), ("estimate", "--tol", "0.5"), ("estimate", "--field", "complex"),
    ("estimate", "--n", "4"),
])
def test_an_option_a_subcommand_does_not_read_exits_two_and_is_named(capsys, command, flag,
                                                                     value):
    # such an option would only change the config echo, not a row
    extra = ["--input", MATRIX] if command == "estimate" else []
    assert main([command, *extra, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("argv, code, echoed", [
    (["idnumbers", "--p", "1", "--q", "3", "--n", "3", "--k", "2..3", "--field", "complex",
      "--seed", "5", "--budget", "300"], 0,
     dict(p=1.0, q=3.0, n=3, k_lo=2, k_hi=3, field="complex", seed=5, budget=300)),
    (["estimate", "--input", MATRIX, "--p", "1", "--q", "3", "--k", "2..3",
      "--seed", "5", "--budget", "300"], 0,
     dict(input=MATRIX, p=1.0, q=3.0, n=4, k_lo=2, k_hi=3, seed=5, budget=300)),
    (["verify", "--seed", "5", "--budget", "300", "--tol", "1e-8", "--inject-bug", "weyl"], 1,
     dict(seed=5, budget=300, tol=1e-8, inject_bug="weyl")),
    (["volume", "--p", "1", "--n", "3", "--field", "complex"], 0,
     dict(p=1.0, n=3, field="complex")),
    (["sweep", "--p", "1", "--q", "3", "--n", "8", "--k", "2..3", "--field", "complex"], 0,
     dict(p=1.0, q=3.0, n=8, k_lo=2, k_hi=3, field="complex")),
])
def test_every_option_a_subcommand_takes_is_echoed(capsys, argv, code, echoed):
    # the mirror of the test above: no option in use is lost
    got, doc = cli_json(capsys, *argv, "--timings")
    assert got == code
    assert {key: doc["config"][key] for key in echoed} == echoed
    assert doc["config"]["timings"] is True
    cfg = config_from_args(_build_parser().parse_args(argv + ["--output", "csv"]))
    assert cfg.to_json_dict()["output"] == "csv"


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
