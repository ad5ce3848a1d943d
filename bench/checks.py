"""Result checks for benchmark tasks.

Every task's output passes through one of the ``check_*`` functions, which
raise ``CheckFailure`` with a reason when the output is wrong, and otherwise
return a JSON-ready summary of the numbers that gets digested per task.
``Tally`` counts attempts and failures; a task that raises, for any reason,
counts as failed.
"""

import csv
import hashlib
import io
import json
import math
import time

import jsonschema

TOL = 1e-9
HILBERT_TOL = {"approx": 1e-9, "kolmogorov": 1e-6}


class CheckFailure(Exception):
    """A task produced an output that fails its correctness check."""


def _finite(name, x):
    x = float(x)
    if not math.isfinite(x):
        raise CheckFailure(f"{name} is not finite: {x!r}")
    return x


def check_entropy_bracket(uppers, pack_lowers, best_lowers, padded):
    """One operator's e_1..e_K bracket: finite, nonnegative, lower <= padded upper."""
    if not (len(uppers) == len(pack_lowers) == len(best_lowers) == len(padded)):
        raise CheckFailure("bracket sequences have different lengths")
    rows = []
    for k, (up, pack, best, pad) in enumerate(zip(uppers, pack_lowers, best_lowers, padded), 1):
        cells = {
            "upper": _finite(f"upper_{k}", up.upper),
            "delta": _finite(f"delta_{k}", up.delta),
            "padded": _finite(f"padded_{k}", pad),
            "pack": _finite(f"pack_lower_{k}", pack.lower),
            "best": _finite(f"best_lower_{k}", best.lower),
        }
        if min(cells.values()) < 0.0:
            raise CheckFailure(f"negative bound at k={k}: {cells}")
        for side in ("pack", "best"):
            if cells[side] > cells["padded"] * (1.0 + TOL) + TOL:
                raise CheckFailure(
                    f"certified {side} lower {cells[side]!r} exceeds padded upper "
                    f"{cells['padded']!r} at k={k}"
                )
        rows.append([cells["upper"], cells["delta"], cells["padded"],
                     cells["pack"], cells["best"], best.method_lower])
    return rows


def check_width(kind, value, sigma_k=None, exact=None):
    """A search value: finite, nonnegative, and equal to sigma_k (Hilbert) or
    to a closed form (``exact``) where one is known."""
    v = _finite(f"{kind} search value", value)
    if v < 0.0:
        raise CheckFailure(f"{kind} search value is negative: {v!r}")
    if sigma_k is not None:
        tol = HILBERT_TOL[kind]
        if abs(v - sigma_k) > tol * max(1.0, sigma_k):
            raise CheckFailure(f"{kind} search {v!r} disagrees with sigma_k {sigma_k!r}")
    if exact is not None and abs(v - exact) > TOL * max(1.0, exact):
        raise CheckFailure(f"{kind} search {v!r} differs from the closed form {exact!r}")
    return v


def _reject_constant(token):
    raise CheckFailure(f"non-finite number {token} in JSON output")


def _cell(text):
    """A numeric report cell: a finite number, the labels 'inf'/'-inf', or empty."""
    if text in ("", "inf", "-inf"):
        return text
    try:
        x = float(text)
    except ValueError:
        raise CheckFailure(f"non-numeric cell {text!r}") from None
    return _finite("cell", x)


def _check_rows(rows):
    for r in rows:
        if r["method"] == "pack/cover":
            lo, up = r["lower"], r["upper"]
            if isinstance(lo, float) and isinstance(up, float) and lo > up * (1 + TOL) + TOL:
                raise CheckFailure(f"e_{r['k']} lower {lo!r} above padded upper {up!r}")


def check_cli(returncode, stdout, output, schema, csv_columns):
    """One CLI run: exit code 0, schema-valid JSON (or well-formed CSV), finite numbers."""
    if returncode != 0:
        raise CheckFailure(f"exit code {returncode}, expected 0")
    text = stdout.decode("utf-8") if isinstance(stdout, bytes) else stdout
    if output == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != list(csv_columns):
            raise CheckFailure("CSV header does not match the report columns")
        cols = {c: i for i, c in enumerate(csv_columns)}
        for row in rows[1:]:
            if len(row) != len(csv_columns):
                raise CheckFailure(f"ragged CSV row {row!r}")
            for c in ("k", "lower", "upper", "elapsed_ms"):
                _cell(row[cols[c]])
        return len(rows) - 1
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailure(f"report fails REPORT_SCHEMA: {exc.message}") from None
    for r in doc["rows"]:
        for c in ("lower", "upper"):
            if isinstance(r[c], str) and r[c] not in ("inf", "-inf"):
                raise CheckFailure(f"unlabelled string {r[c]!r} in a numeric column")
    _check_rows(doc["rows"])
    return doc


def digest(obj):
    """Short stable hash of a JSON-ready object or of raw bytes."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Tally:
    """Attempted and failed task counts plus per-task records."""

    def __init__(self):
        self.records = []
        self._seen = {}  # repeat key -> digest of its first output

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r["ok"])

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, task_id, label, call, check, repeat_key=None):
        """Time ``call()``, check its output, and record the task.

        ``check`` maps the output to a JSON-ready summary or raises.  With a
        ``repeat_key``, the output must also be identical to the first output
        recorded under that key.  Returns the task's record.
        """
        t0 = time.perf_counter()
        latency = None
        try:
            out = call()
            latency = time.perf_counter() - t0
            summary = check(out)
            d = digest(summary)
            if repeat_key is not None:
                first = self._seen.setdefault(repeat_key, d)
                if first != d:
                    raise CheckFailure(f"repeat of {repeat_key!r} is not byte-identical")
            rec = {"id": task_id, "label": label, "ok": True, "digest": d}
        except Exception as exc:  # a failing task is a result, not a crash
            rec = {"id": task_id, "label": label, "ok": False,
                   "error": f"{type(exc).__name__}: {exc}"}
        rec["latency_s"] = time.perf_counter() - t0 if latency is None else latency
        self.records.append(rec)
        return rec
