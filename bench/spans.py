"""Spans around the public functions of snumbers, recorded from outside.

The tracer replaces selected module attributes of the installed package with
timing wrappers for the duration of a ``with Tracer.installed():`` block.  It
rebinds every name that refers to the original function in any ``snumbers.*``
module (the package re-exports functions and modules import them by name), and
the subcommand table of ``snumbers.cli``, so calls made inside the library are
seen as well.  No library file is touched.

Each span records (name, start, end, parent, task).  Spans are kept in memory;
per-layer figures are aggregated from them when the run ends.  A span's self
time is its duration minus the durations of its direct children: calls are
properly nested in one thread, so the children never overlap.
"""

import contextlib
import math
import sys
import time

import numpy as np

LAYERS = ("spaces", "operators", "entropy", "widths", "spectral", "cli")

# (module, function) pairs that get a span; the span is named <layer>.<function>.
# Helpers called many thousands of times per task with microsecond bodies
# (lp_norm, the samplers) are left out: their wrapper would cost more than they do.
WRAPPED = {
    "spaces": ("dist_to_subspace", "aoki_norm", "ball_volume", "log_ball_volume"),
    "operators": ("op_norm", "singular_values", "read_matrix_csv"),
    "entropy": (
        "image_cloud",
        "max_nn_gap",
        "entropy_upper_cover_sequence",
        "entropy_lower_pack_sequence",
        "best_certified_lower",
        "padded_upper",
        "entropy_lower_volumetric",
        "hamming_pack_lower",
        "regime_envelope",
    ),
    "widths": (
        "approx_upper_search",
        "kolmogorov_upper_search",
        "s_axiom_suite",
        "hilbert_s_numbers",
        "approx_id_envelope",
        "kolmogorov_id_envelope",
    ),
    "spectral": ("weyl_check", "carl_check", "hilbert_entropy_bracket"),
    "cli": ("render",),
}


def dist_branch(x, basis, q, *args, **kwargs):
    """The code path dist_to_subspace takes for these arguments."""
    if q == 2.0:
        return "q2"
    if np.iscomplexobj(x) or any(np.iscomplexobj(b) for b in basis):
        return "complex"
    if q == 1.0 or math.isinf(q):
        return "lp"
    return "smooth" if q > 1.0 else "quasi"


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, task id, extra]
        self.task = None
        self._stack = []
        self._raised = {}  # id -> exception, kept alive so ids stay unique

    def _wrap(self, layer, fname, fn):
        base = f"{layer}.{fname}"
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            name = base
            extra = None
            if fname == "dist_to_subspace":
                name = f"{base}.{dist_branch(*args, **kwargs)}"
            elif fname == "max_nn_gap":
                n = int(np.shape(args[0])[0])
                extra = n * (n - 1)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.task, extra])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost span it left
                if id(exc) not in self._raised:
                    self._raised[id(exc)] = exc
                    spans[idx][5] = "error"
                raise
            finally:
                spans[idx][1], spans[idx][2] = t0, time.perf_counter()
                stack.pop()
            if fname == "op_norm":
                spans[idx][0] = f"{base}.{out.method}"
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind the wrapped functions everywhere in snumbers, then restore."""
        import snumbers.cli

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "snumbers" or k.startswith("snumbers.")) and m is not None]
        replace = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"snumbers.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, self._wrap(layer, fname, fn))
        runners = snumbers.cli._RUNNERS
        for command, fn in runners.items():
            replace[id(fn)] = (fn, self._wrap("cli", f"run_{command}", fn))

        undo = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        saved_runners = dict(runners)
        for command, fn in saved_runners.items():
            runners[command] = replace[id(fn)][1]
        try:
            yield self
        finally:
            runners.update(saved_runners)
            for mod, attr, val in reversed(undo):
                setattr(mod, attr, val)

    def aggregate(self):
        """Per span name: calls, total, self time, errors and summed extra counts."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _task, _extra in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg = {}
        for i, (name, t0, t1, _parent, _task, extra) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "errors": 0, "count": 0})
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - child_time[i]
            if extra == "error":
                a["errors"] += 1
            elif extra is not None:
                a["count"] += extra
        return agg

    def children_per_parent(self, parent_name, child_prefix):
        """Mean number of direct child spans named child_prefix* per parent span."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        if not parents:
            return 0.0
        kids = sum(1 for s in self.spans if s[3] in parents and s[0].startswith(child_prefix))
        return kids / len(parents)

    def dump(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": round(a - t0, 9), "end": round(b - t0, 9),
             "parent": p, "task": task, "extra": extra}
            for n, a, b, p, task, extra in self.spans
        ]
