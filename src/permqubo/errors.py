"""Exception types, the size and work caps, the range rules, and the JSON reader and field check
shared across the package."""

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
    "evolution": (12, "qubit", "state-vector evolution"),
    "hamiltonian": (16, "qubit", "the annealing Hamiltonian"),  # gap profiles too
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
# State-vector evolution is charged its steps (Trotter slices; a CF4 step once
# per substep its exponentials may take) times max(2^m, 2^10) amplitudes
# (anneal._evolution_work).  Measured on one BLAS thread at m = 1 to 12 and
# dt = 0.4 to 20, a CF4 step costs at most 1.7 us per charged amplitude and a
# Trotter slice under a twentieth of that, so a run at the cap takes at most
# about 4 minutes.
# Simulated annealing is charged sweeps times dim times max(runs, 2^10) flip
# attempts (anneal._sa_work).  Measured on one BLAS thread at dim 4 to 64 and
# 1 to 65536 runs, a column of a sweep costs a fixed 6-16 us, about what 2^10
# runs add to it, and a charged flip attempt costs at most about 55 ns, so a
# run at the cap takes at most about 2 minutes.
# A gap profile is charged its grid points times 2^m amplitudes, one eigensolve
# per point (spectral._gap_work).  Measured on one BLAS thread, a 16-qubit
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


def _has_json_type(value, kind, finite: bool = True) -> bool:
    """Whether a parsed JSON value has ``kind``.

    ``kind`` is a type (float admits any number, only a finite one when
    ``finite``), [kind] for a list of it, or a tuple of alternatives in
    which None stands for null.  A number table ([[float]], as in an
    instance's W or a model's Q) whose cells are all ints and floats is
    checked in one flat pass; any other value takes the recursive check.
    """
    if kind == [[float]] and isinstance(value, list) and all(isinstance(row, list) for row in value):
        cells = list(chain.from_iterable(value))
        if set(map(type, cells)) <= {int, float}:  # type(), so a bool takes the slow path
            return not finite or all(map(_is_finite, cells))
    if isinstance(kind, tuple):
        return any(value is None if k is None else _has_json_type(value, k, finite) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_json_type(v, kind[0], finite) for v in value)
    if isinstance(value, bool):  # a JSON true/false is no number
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and (not finite or _is_finite(value))
    return isinstance(value, kind)


def _first_fault(value, kind):
    """The index path ("" for the value itself, "[3][5]" inside a list of lists) and the
    part of a value without ``kind`` at which it first goes wrong."""
    path = ""
    while True:
        if isinstance(kind, tuple):  # not null, so held to the first other alternative
            kind = next(k for k in kind if k is not None)
        if not (isinstance(kind, list) and isinstance(value, list)):
            return path, value
        i = next(i for i, v in enumerate(value) if not _has_json_type(v, kind[0]))
        path, value, kind = f"{path}[{i}]", value[i], kind[0]


def _check_json_types(data, types: dict, what: str, required=None) -> None:
    """Raise ValueError unless ``data`` is a JSON object that holds every ``required``
    field (by default every field of ``types``) and gives each field of ``types`` its kind.

    A number field refuses NaN, the infinities and a literal beyond the float range.
    A refusal names the field and the index path of its first wrong element, and the
    type of that element, never a whole value.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in types if required is None else required:
        if key not in data:
            raise ValueError(f"{what} is missing field {key!r}")
    for key, kind in types.items():
        if key not in data or _has_json_type(data[key], kind):
            continue
        path, part = _first_fault(data[key], kind)
        if _has_json_type(data[key], kind, finite=False):
            raise ValueError(f"{what} field {key}{path} must be finite")
        where = f" at {key}{path}" if path else ""
        raise ValueError(f"{what} field {key!r} has the wrong type{where}: {type(part).__name__}")
