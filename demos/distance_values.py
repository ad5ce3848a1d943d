"""dist_to_subspace values on a fixed set of random instances, for comparing
two checkouts of the library.

The instances cover every (field, q) cell, q in {0.5, 1, 1.5, 2, 3, inf} on
real and complex data, with n <= 6 coordinates and m <= 3 basis vectors;
every third instance gets a dependent extra basis vector, so its basis is
rank-deficient.  Each is solved at the default budget and seed.  A record
holds every value by ``float.hex`` and, where ``spaces._convex_distance``
exists and applies (1 <= q < inf, except real q = 1), its certified gap
value - lower.

Record each checkout with its own source on the path, then compare:

    PYTHONPATH=<old>/src python demos/distance_values.py --out old.json
    PYTHONPATH=src python demos/distance_values.py --out new.json
    python demos/distance_values.py --compare old.json new.json

The comparison counts, per cell, the identical floats, the new values that
are at most the old plus their certified gap (and a rounding allowance of
8 n eps), and the others, which it lists.
"""

import argparse
import json
import math

import numpy as np

FIELDS = ("real", "complex")
EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, math.inf)


def instances(per_cell):
    rng = np.random.default_rng(20261019)
    for field in FIELDS:
        for q in EXPONENTS:
            for i in range(per_cell):
                n = int(rng.integers(2, 7))
                m = int(rng.integers(1, min(3, n - 1) + 1))
                x, B = rng.standard_normal(n), rng.standard_normal((n, m))
                if field == "complex":
                    x = x + 1j * rng.standard_normal(n)
                    B = B + 1j * rng.standard_normal((n, m))
                basis = list(B.T)
                if i % 3 == 0:
                    basis.append((2.0 - 1.0j if field == "complex" else 2.0) * basis[0])
                yield field, q, x, basis


def record(per_cell):
    from snumbers import spaces

    rows = []
    for field, q, x, basis in instances(per_cell):
        row = {"field": field, "q": repr(q), "n": x.size,
               "value": spaces.dist_to_subspace(x, basis, q).hex()}
        convex = 1.0 <= q < math.inf and not (field == "real" and q == 1.0)
        if convex and hasattr(spaces, "_convex_distance"):
            value, lower = spaces._convex_distance(x, np.column_stack(basis), q)
            row["gap"] = value - lower
        rows.append(row)
    return rows


def compare(old, new):
    cells = {}
    for a, b in zip(old, new, strict=True):
        assert (a["field"], a["q"]) == (b["field"], b["q"])
        cell = cells.setdefault(f"{a['field']} q={a['q']}",
                                {"identical": 0, "within_gap": 0, "other": []})
        va, vb = float.fromhex(a["value"]), float.fromhex(b["value"])
        rounding = 8.0 * b["n"] * np.finfo(float).eps * vb
        if va == vb:
            cell["identical"] += 1
        elif "gap" in b and vb <= va + b["gap"] + rounding:
            cell["within_gap"] += 1
        else:
            cell["other"].append((a["value"], b["value"]))
    return cells


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-cell", type=int, default=50)
    ap.add_argument("--out", help="write this checkout's record here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.load(open(path)) for path in args.compare)
        print(json.dumps(compare(old, new), indent=1))
    else:
        with open(args.out, "w") as f:
            json.dump(record(args.per_cell), f)


if __name__ == "__main__":
    main()
