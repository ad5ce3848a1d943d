"""Golden `snum` reports for a fixed command set.

    python tests/golden/update.py          rewrite the golden files from this checkout
    python tests/golden/update.py --check  print the rows that differ; exit 1 if any do

Each command runs in-process from this directory with relative CSV names,
so ``config.input`` does not depend on where the checkout lives.  The
golden files are ``<name>.json`` or ``<name>.csv`` (stdout) and
``manifest.json`` (argv and exit code per command, plus the Python and
numpy versions that wrote them).

Comparison (``diff``): strings, ints, booleans and nulls must be equal.
Floats must have the same ``float.hex`` and the text must be the same
bytes when the recorded versions are the running ones; under other
versions, floats must agree within 1e-12 relative.
"""

import contextlib
import csv
import io
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
REL_TOL = 1e-12

COMMANDS = [
    # the five README commands
    ("readme-idnumbers", ["idnumbers", "--p", "1", "--q", "inf", "--n", "8", "--k", "1..6",
                          "--field", "complex"]),
    ("readme-estimate", ["estimate", "--input", "matrix.csv", "--k", "1..4"]),
    ("readme-verify", ["verify", "--budget", "2000", "--seed", "7"]),
    ("readme-volume", ["volume", "--p", "0.5", "--n", "3"]),
    ("readme-sweep", ["sweep", "--p", "1", "--q", "2", "--n", "64", "--k", "3", "--output", "csv"]),
    # the property suite at its default budget, and with a violation injected
    ("verify-seed7", ["verify", "--seed", "7"]),
    ("verify-inject-weyl", ["verify", "--budget", "300", "--inject-bug", "weyl"]),
    ("verify-inject-weyl-csv", ["verify", "--budget", "300", "--inject-bug", "weyl",
                                "--output", "csv"]),
    # estimate: the README matrix off the Hilbert case, and edge-case matrices
    ("estimate-p2-q1", ["estimate", "--input", "matrix.csv", "--p", "2", "--q", "1"]),
    ("estimate-p1-q0.5", ["estimate", "--input", "matrix.csv", "--p", "1", "--q", "0.5"]),
    ("estimate-p1-qinf", ["estimate", "--input", "matrix.csv", "--p", "1", "--q", "inf"]),
    ("estimate-complex-p0.5-q2", ["estimate", "--input", "complex.csv", "--p", "0.5", "--q", "2"]),
    ("estimate-zero-p1-q2", ["estimate", "--input", "zero.csv", "--p", "1", "--q", "2"]),
    ("estimate-big-p1-q1", ["estimate", "--input", "big.csv", "--p", "1", "--q", "1"]),
    ("estimate-big-p2-q2", ["estimate", "--input", "big.csv", "--p", "2", "--q", "2"]),
    # exact norms whose powers underflow: 1e-200 entries at p <= 1 <= q
    ("estimate-tiny-p0.5-q2", ["estimate", "--input", "tiny.csv", "--p", "0.5", "--q", "2"]),
    # an image cloud whose q-th powers of gaps underflow unless it is scaled up
    ("estimate-tiny-p2-q40", ["estimate", "--input", "tiny.csv", "--p", "2", "--q", "40"]),
    # a long cover traversal: 2,048 insertions into a cloud of 2,500 points
    ("estimate-p3-q1.5-k8-13", ["estimate", "--input", "matrix.csv", "--p", "3", "--q", "1.5",
                                "--k", "8..13"]),
    # idnumbers: a quasi-Banach complex pair, p < q, and the Hilbert case
    ("idnumbers-p0.5-q1-complex", ["idnumbers", "--p", "0.5", "--q", "1", "--field", "complex"]),
    ("idnumbers-p1-q2", ["idnumbers", "--p", "1", "--q", "2"]),
    ("idnumbers-p2-q2", ["idnumbers", "--p", "2", "--q", "2"]),
    # identity e rows past the packing's reach: the volume bound gives their lowers
    ("idnumbers-p1-q2-n16-k9-12", ["idnumbers", "--p", "1", "--q", "2", "--n", "16",
                                   "--k", "9..12"]),
]


def versions():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def output_path(name, argv):
    ext = "csv" if "--output" in argv and argv[argv.index("--output") + 1] == "csv" else "json"
    return HERE / f"{name}.{ext}"


@contextlib.contextmanager
def _in_golden_dir():
    """cwd = this directory and no SNUM_SEED, restored on exit."""
    old_cwd, old_seed = os.getcwd(), os.environ.pop("SNUM_SEED", None)
    os.chdir(HERE)
    try:
        yield
    finally:
        os.chdir(old_cwd)
        if old_seed is not None:
            os.environ["SNUM_SEED"] = old_seed


def run(argv):
    """(stdout, stderr, exit code) of ``snum argv``, run in-process from this directory."""
    from snumbers.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _in_golden_dir(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


def _same_float(a, b, exact):
    if exact:
        return a.hex() == b.hex()
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _csv_cell(text):
    """A CSV cell as the value it prints: int, float, or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _diff_values(path, old, new, exact, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            _diff_values(f"{path}.{key}", old.get(key, "<missing>"),
                         new.get(key, "<missing>"), exact, out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: {len(old)} entries -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            _diff_values(f"{path}[{i}]", a, b, exact, out)
    elif isinstance(old, float) and isinstance(new, float):
        if not _same_float(old, new, exact):
            out.append(f"{path}: {old!r} -> {new!r}")
    elif type(old) is not type(new) or old != new:
        out.append(f"{path}: {old!r} -> {new!r}")


def _rows(text, is_csv):
    if is_csv:
        return {"rows": [[_csv_cell(c) for c in r] for r in csv.reader(io.StringIO(text))]}
    return json.loads(text)


def diff(name, old_text, new_text, is_csv, exact):
    """The differences between two reports of one command, one line each."""
    out = []
    _diff_values(name, _rows(old_text, is_csv), _rows(new_text, is_csv), exact, out)
    if exact and not out and old_text != new_text:
        out.append(f"{name}: same values, different bytes")
    return out


def check():
    """Every difference between the golden files and this checkout's reports."""
    manifest = json.loads(MANIFEST.read_text())
    exact = manifest["versions"] == versions()
    recorded = {c["name"]: c for c in manifest["commands"]}
    problems = []
    if sorted(recorded) != sorted(name for name, _ in COMMANDS):
        problems.append(f"command set: {sorted(recorded)} -> {sorted(n for n, _ in COMMANDS)}")
    for name, argv in COMMANDS:
        if name not in recorded:
            continue
        if recorded[name]["argv"] != argv:
            problems.append(f"{name}: argv {recorded[name]['argv']} -> {argv}")
            continue
        path = output_path(name, argv)
        text, err, code = run(argv)
        if code != recorded[name]["exit"]:
            last = err.strip().splitlines()[-1] if err.strip() else "no stderr"
            problems.append(f"{name}: exit code {recorded[name]['exit']} -> {code}: {last}")
        try:
            problems += diff(name, path.read_text(), text, path.suffix == ".csv", exact)
        except json.JSONDecodeError:
            # a crashed command prints no report; the next command is still checked
            problems.append(f"{name}: output is not a report, values not compared")
    return problems


def write():
    commands = []
    for name, argv in COMMANDS:
        text, _, code = run(argv)
        output_path(name, argv).write_text(text)
        commands.append({"name": name, "argv": argv, "exit": code})
    MANIFEST.write_text(json.dumps({"versions": versions(), "commands": commands}, indent=2) + "\n")


def main(args):
    if args not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    if args == ["--check"]:
        problems = check()
        print("\n".join(problems) if problems else "golden reports unchanged")
        return 1 if problems else 0
    write()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
