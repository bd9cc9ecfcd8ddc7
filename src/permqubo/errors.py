"""Exception types, the size and work caps, the range rules, and the file formats shared
across the package: the JSON reader and field check (a document's type table, its only
field list, is checked by ``_check_json_types`` and written by ``_json_fields``), and the
one JSON writer and one CSV writer of every output."""

import csv
import json
import sys
from itertools import chain
from numbers import Integral, Real
from pathlib import Path


class SizeCapError(Exception):
    """A requested computation exceeds a hard size or work guard."""


# Every hard size guard: what -> (largest size allowed, its unit, what it limits).
SIZE_CAPS = {
    "oracle": (8, "element", "the exact oracle"),  # n! permutations of n elements
    "enumeration": (20, "bit", "hypercube enumeration"),  # 2^20 states
    "hamiltonian": (16, "qubit", "the annealing Hamiltonian"),  # gap profiles and evolution too
}


def check_size(what: str, size: int) -> None:
    """Raise SizeCapError when ``size`` exceeds the cap SIZE_CAPS[what]."""
    _check_cap(SIZE_CAPS[what], size)


def _check_cap(cap: tuple, amount: int) -> None:
    limit, unit, label = cap
    if amount > limit:
        digits = str(amount)  # an absurd request can ask for hundreds of digits
        shown = digits if len(digits) <= 15 else f"over 1e{len(digits) - 1}"
        raise SizeCapError(f"{label} needs {shown} {unit}s, over its {limit}-{unit} cap")


# Every hard work guard: what -> (largest amount allowed, its unit, what it limits).
# Each is charged in a request check beside its solver, which the solver calls at
# its entry and bench._check_solver_size calls before any work.
# State-vector evolution is charged its steps (Trotter slices; a CF4 step once
# per substep its exponentials may take) times max(2^m, 2^10) amplitudes
# (anneal._check_evolution_request).  Measured on one BLAS thread at dt = 0.4 to 20, a
# CF4 step costs at most 1.7 us per charged amplitude at m = 1 to 12 and 2.0 us
# at m = 16 (n = 4 baseline and row_wise), where the cap is 2048 charged steps,
# and a Trotter slice under a twentieth of that, so a run at the cap takes at
# most about 4.5 minutes.
# Simulated annealing is charged sweeps times dim times max(runs, 2^10) flip
# attempts (anneal._check_sa_request).  Measured on one BLAS thread at dim 4 to 64 and
# 1 to 65536 runs, a column of a sweep costs a fixed 6-16 us, about what 2^10
# runs add to it, and a charged flip attempt costs at most about 55 ns, so a
# run at the cap takes at most about 2 minutes.
# A gap profile is charged its grid points times 2^m amplitudes, one eigensolve
# per point (spectral._check_gap_request).  Measured on one BLAS thread, a 16-qubit
# eigensolve (n = 4 baseline, u = 0.2 to 0.95) takes 4-24 s, so a profile at
# the cap (16 points at 16 qubits) takes at most about 6 minutes; at 1 to 9
# qubits a charged amplitude costs 9-32 us, under 40 s at the cap.
WORK_CAPS = {
    "evolution": (2**27, "step-amplitude", "state-vector evolution"),
    "sa": (2**31, "flip-attempt", "simulated annealing"),
    "gap": (2**20, "eigensolve-amplitude", "a gap profile"),
}


def check_work(what: str, amount: int) -> None:
    """Raise SizeCapError when ``amount`` exceeds the cap WORK_CAPS[what]."""
    _check_cap(WORK_CAPS[what], amount)


def check_count(what: str, value, least: int = 1) -> int:
    """Return ``value`` as an int, refusing a bool, a non-integer or a value below ``least``."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_positive(what: str, value) -> float:
    """Return ``value`` as a float, refusing a bool, a non-number or one not finite and > 0."""
    if isinstance(value, bool) or not (isinstance(value, Real) and _is_finite(value) and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return float(value)


def check_distinct(what: str, values) -> None:
    """Refuse a list of ``values`` that holds one value twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{what} must be distinct, got {value!r} twice")
        seen.add(value)


def _is_finite(value) -> bool:
    """Whether a real number is finite as a float (NaN, infinities and ints beyond the
    float range are not)."""
    return abs(value) <= sys.float_info.max


class SolverError(RuntimeError):
    """A numerical solver failed (non-convergence, non-finite amplitudes)."""


def read_json(path, parse):
    """Read the UTF-8 JSON file at ``path`` and return ``parse`` of its value.

    Every ValueError, from the JSON syntax or from ``parse``, names the file.
    """
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON with sorted keys."""
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _cell(value):
    """A value as its CSV cell: a float (numpy's float64 is one) by ``repr(float(value))``,
    a bool as 0 or 1, None as an empty cell, anything else as ``csv`` writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV file of ``header`` and ``rows``, each cell spelled by ``_cell``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _fault(value, kind, finite: bool = True):
    """None when a parsed JSON value has ``kind``; otherwise the index path ("" for the
    value itself, "[3][5]" inside a list of lists) and the part at which it first goes
    wrong.

    ``kind`` is a type (float admits any number, only a finite one when
    ``finite``), [kind] for a list of it, or a tuple of alternatives in
    which None stands for null; a fault is held to the first other
    alternative.  A number table ([[float]], as in an instance's W or a
    model's Q) whose cells are all ints and floats passes in one flat pass;
    any other value takes the recursive walk.
    """
    if kind == [[float]] and isinstance(value, list) and all(isinstance(row, list) for row in value):
        cells = list(chain.from_iterable(value))
        if set(map(type, cells)) <= {int, float} and (not finite or all(map(_is_finite, cells))):
            return None  # type(), so a bool takes the walk
    if isinstance(kind, tuple):
        faults = [_fault(value, k, finite) for k in kind if k is not None]
        return None if (value is None and None in kind) or None in faults else faults[0]
    if isinstance(kind, list):
        if not isinstance(value, list):
            return "", value
        for i, v in enumerate(value):
            fault = _fault(v, kind[0], finite)
            if fault is not None:
                return f"[{i}]{fault[0]}", fault[1]
        return None
    if isinstance(value, bool):  # a JSON true/false is no number
        ok = kind is bool
    elif kind is float:
        ok = isinstance(value, (int, float)) and (not finite or _is_finite(value))
    else:
        ok = isinstance(value, kind)
    return None if ok else ("", value)


def _check_json_types(data, types: dict, what: str, required=None) -> None:
    """Raise ValueError unless ``data`` is a JSON object that holds every ``required``
    field (by default every field of ``types``) and gives each field of ``types`` its kind.

    A number field refuses NaN, the infinities and a literal beyond the float range,
    and a number table ([[float]]) a row whose length differs from its first row's.
    Each field is walked once (``_fault``), a refused one again with ``finite=False`` only
    to word the refusal, which names the field, the index path of its first wrong
    element and that element's type, never a whole value.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in types if required is None else required:
        if key not in data:
            raise ValueError(f"{what} is missing field {key!r}")
    for key, kind in types.items():
        if key not in data:
            continue
        value = data[key]
        fault = _fault(value, kind)
        if fault is not None:
            path, part = fault
            if _fault(value, kind, finite=False) is None:
                raise ValueError(f"{what} field {key}{path} must be finite")
            where = f" at {key}{path}" if path else ""
            raise ValueError(f"{what} field {key!r} has the wrong type{where}: {type(part).__name__}")
        if kind == [[float]]:
            ragged = next((i for i, row in enumerate(value) if len(row) != len(value[0])), None)
            if ragged is not None:
                raise ValueError(f"{what} field {key}[{ragged}] has {len(value[ragged])} entries, "
                                 f"but {key}[0] has {len(value[0])}")


def _json_fields(obj, types: dict) -> dict:
    """``obj``'s fields in the order of its type table ``types``, as JSON: an array by its
    ``tolist()``, a tuple as a list, a nested document by its ``to_dict()``."""
    out = {}
    for key in types:
        value = getattr(obj, key)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif hasattr(value, "tolist"):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out
