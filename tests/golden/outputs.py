"""A fixed, seeded set of CLI runs, and a field-by-field comparison of two output sets.

    python tests/golden/outputs.py run DIR [NAME ...]
    python tests/golden/outputs.py compare A B

``run`` writes its seeded instances and spec files to DIR/inputs, then runs each
command of RUNS (or only the NAMEs given) through ``permqubo.cli.main`` in-process,
from DIR, so every path an output records is relative and two runs can match byte for
byte.  Each command's console output, and any warning it gave, is kept as NAME.stdout.
It takes about a second.  Run it with the package to test importable, for example
``PYTHONPATH=src``.

``compare`` counts the files that are byte-identical in A and B.  For every other file
it reports, per field, the largest absolute and relative change of its floats and any
change to a bool, an integer (a count, a bit vector, an assignment), a string (a hash)
or the shape.  Input paths in provenance are reduced to file names first.  It exits 0
when every file is byte-identical and 1 otherwise.

No hash manifest is kept: the SA and Krylov outputs carry the host's BLAS rounding, so
the check on another host is ``compare`` against a fresh run of the parent commit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

INSTANCES = {"inst2": 2, "inst3": 3, "inst4": 4, "inst5": 5}
SPECS = {
    "spec_sa": {"n": 2, "num_instances": 2, "seed": 7, "scales": [1.0, 2.0], "solver": "sa",
                "solver_params": {"runs": 70, "sweeps": 10}, "gap_samples": 3},
    "spec_schrodinger": {"n": 2, "num_instances": 1, "seed": 3,
                         "formulations": ["inserted", "row_wise"], "solver": "schrodinger",
                         "solver_params": {"tau": 5.0, "shots": 50}},
}


def _solve(name, instance, formulation, solver, *flags):
    return name, ["solve", "--instance", f"inputs/{instance}.json", "--formulation", formulation,
                  "--solver", solver, *flags, "--out", f"{name}.json", "--hist-out", f"{name}.csv"]


# Each command as (name, argv); a command may read the outputs of one before it.
RUNS = [
    *[(f"build_{f}", ["build", "--instance", "inputs/inst3.json", "--formulation", f,
                      "--scale", "1.5", "--out", f"build_{f}.json", "--sparse-out", f"build_{f}.txt"])
      for f in ("baseline", "row_wise", "inserted")],
    ("gap_csv", ["gap", "--instance", "inputs/inst3.json", "--formulation", "inserted",
                 "--scales", "1,2.5", "--samples", "9", "--out", "gap.csv",
                 "--summary-out", "gap_csv_summary.json"]),
    ("gap_json", ["gap", "--instance", "inputs/inst2.json", "--formulation", "baseline",
                  "--scales", "1,3", "--samples", "9", "--out", "gap.json",
                  "--summary-out", "gap_json_summary.json"]),
    ("gap_zero", ["gap", "--instance", "inputs/zero2.json", "--formulation", "row_wise",
                  "--samples", "5", "--out", "gap_zero.csv"]),
    _solve("solve_brute", "inst3", "inserted", "brute"),
    _solve("solve_sa", "inst3", "row_wise", "sa", "--runs", "100", "--sweeps", "20", "--seed", "1"),
    _solve("solve_schrodinger", "inst3", "inserted", "schrodinger", "--tau", "10", "--shots", "200",
           "--seed", "2"),
    _solve("solve_schrodinger_9q", "inst3", "baseline", "schrodinger", "--tau", "4",
           "--shots", "100"),
    _solve("solve_trotter", "inst3", "row_wise", "trotter", "--tau", "10", "--slices", "64",
           "--shots", "200", "--seed", "3"),
    ("solve_qubo_instance", ["solve", "--qubo", "build_row_wise.json", "--instance",
                             "inputs/inst3.json", "--solver", "sa", "--runs", "64", "--sweeps",
                             "10", "--out", "solve_qubo_instance.json"]),
    ("solve_qubo", ["solve", "--qubo", "build_inserted.json", "--solver", "brute",
                    "--out", "solve_qubo.json"]),
    # SA draws in blocks of 64 runs and sweeps in panels of 16 columns
    *[_solve(f"sa_runs{runs}", "inst2", "baseline", "sa", "--runs", str(runs), "--sweeps", "10",
             "--seed", "4") for runs in (63, 64, 65, 129)],
    _solve("sa_dim16", "inst4", "baseline", "sa", "--runs", "65", "--sweeps", "10"),
    _solve("sa_dim25", "inst5", "baseline", "sa", "--runs", "70", "--sweeps", "10"),
    *[(f"bench_{s[5:]}", ["bench", "--spec", f"inputs/{s}.json", "--out", f"bench_{s[5:]}.json",
                          "--csv-out", f"bench_{s[5:]}.csv"]) for s in SPECS],
    ("report", ["report", "--report", "bench_sa.json", "--out", "report.csv"]),
]


def _write_inputs(inputs: Path) -> None:
    from permqubo.qap import QapInstance

    inputs.mkdir(parents=True, exist_ok=True)
    for name, n in INSTANCES.items():
        rng = np.random.default_rng(n)
        QapInstance(n, rng.uniform(-1, 1, (n * n, n * n)), rng.uniform(-1, 1, n * n)).save(
            inputs / f"{name}.json")
    QapInstance(2, np.zeros((4, 4)), np.zeros(4)).save(inputs / "zero2.json")
    for name, spec in SPECS.items():
        (inputs / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")


def run(out, names=None) -> None:
    """Write the inputs and the outputs of RUNS (only ``names``, when given) into ``out``."""
    from permqubo.cli import main

    out = Path(out)
    _write_inputs(out / "inputs")
    here = Path.cwd()
    os.chdir(out)
    try:
        for name, argv in RUNS:
            if names is not None and name not in names:
                continue
            console = io.StringIO()
            with contextlib.redirect_stdout(console), warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{name}: permqubo {' '.join(argv)} exited {code}")
            console.writelines(f"warning: {w.message}\n" for w in seen)
            Path(f"{name}.stdout").write_text(console.getvalue(), encoding="utf-8")
    finally:
        os.chdir(here)


def _cell(text: str):
    """A CSV or text token as an int, a float or the string itself."""
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _drop_paths(value):
    """``value`` with the input paths of provenance and gap summaries reduced to file names."""
    if isinstance(value, dict):
        out = {}
        for key, v in value.items():
            if key == "inputs" and isinstance(v, dict):
                v = {Path(p).name: digest for p, digest in v.items()}
            elif key == "csv" and isinstance(v, str):
                v = Path(v).name
            out[key] = _drop_paths(v)
        return out
    if isinstance(value, list):
        return [_drop_paths(v) for v in value]
    return value


def _parse(path: Path):
    """A file's content as JSON, or as rows (CSV cells or whitespace-separated tokens),
    each a dict keyed by the CSV header or else by column ("col0", "col1", ...)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return _drop_paths(json.loads(text))
    rows = list(csv.reader(io.StringIO(text))) if path.suffix == ".csv" else [
        line.split() for line in text.splitlines()]
    rows = [[_cell(c) for c in row] for row in rows]
    header = [f"col{j}" for j in range(max(map(len, rows), default=0))]
    if path.suffix == ".csv" and rows and all(isinstance(c, str) for c in rows[0]):
        header, rows = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in rows]


def _atomic(value) -> bool:
    """Whether a list is compared whole: one of ints and bools, such as a bit vector or an
    assignment."""
    return isinstance(value, list) and all(isinstance(v, int) for v in value)


def _walk(a, b, path: str, fields: dict) -> None:
    """Add the differences between the parsed values ``a`` and ``b`` to ``fields``: per
    field path, the floats seen and moved with their largest changes, and the other
    values seen and changed with a first example."""
    if type(a) is float and type(b) is float:
        stat = fields[path]
        stat["numbers"] += 1
        if a != b and not (math.isnan(a) and math.isnan(b)):
            stat["moved"] += 1
            diff = abs(a - b)
            stat["abs"] = max(stat["abs"], diff) if math.isfinite(diff) else math.inf
            scale = max(abs(a), abs(b))
            stat["rel"] = max(stat["rel"], diff / scale if math.isfinite(diff) else math.inf)
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            _walk(a.get(key, "<missing>"), b.get(key, "<missing>"),
                  f"{path}.{key}" if path else str(key), fields)
        return
    if (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
            and not (_atomic(a) and _atomic(b))):
        for x, y in zip(a, b):
            _walk(x, y, f"{path}[*]", fields)
        return
    stat = fields[path]
    stat["values"] += 1
    if type(a) is not type(b) or a != b:
        stat["changed"] += 1
        stat.setdefault("example", f"{a!r} -> {b!r}"[:120])


def compare(a, b) -> dict:
    """Compare the output sets in directories ``a`` and ``b``: the files only in one,
    the byte-identical ones, and per other file its changed fields."""
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    report = {"files_a": len(files_a), "files_b": len(files_b),
              "only_a": sorted(files_a - files_b), "only_b": sorted(files_b - files_a),
              "identical": 0, "differ": {}}
    for name in sorted(files_a & files_b):
        if (a / name).read_bytes() == (b / name).read_bytes():
            report["identical"] += 1
            continue
        fields = defaultdict(lambda: {"numbers": 0, "moved": 0, "abs": 0.0, "rel": 0.0,
                                      "values": 0, "changed": 0})
        _walk(_parse(a / name), _parse(b / name), "", fields)
        report["differ"][name] = {path: dict(s) for path, s in sorted(fields.items())
                                  if s["moved"] or s["changed"]}
    return report


def summary(report: dict) -> str:
    """The report of ``compare`` as text, one line per changed field."""
    lines = [f"{report['files_a']} files in A, {report['files_b']} in B, "
             f"{report['identical']} byte-identical, {len(report['differ'])} differ"]
    lines += [f"only in A: {name}" for name in report["only_a"]]
    lines += [f"only in B: {name}" for name in report["only_b"]]
    for name, fields in report["differ"].items():
        lines.append(f"differs: {name}" + ("" if fields else " (bytes only; every field equal)"))
        for path, s in fields.items():
            if s["moved"]:
                lines.append(f"  {path or '<value>'}: {s['moved']} of {s['numbers']} numbers moved, "
                             f"max abs {s['abs']:.3g}, max rel {s['rel']:.3g}")
            if s["changed"]:
                lines.append(f"  {path or '<value>'}: {s['changed']} of {s['values']} values "
                             f"changed, e.g. {s['example']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) >= 2 and args[0] == "run":
        Path(args[1]).mkdir(parents=True, exist_ok=True)
        run(args[1], set(args[2:]) or None)
        return 0
    if len(args) == 3 and args[0] == "compare":
        report = compare(args[1], args[2])
        print(summary(report))
        return 0 if not (report["only_a"] or report["only_b"] or report["differ"]) else 1
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
