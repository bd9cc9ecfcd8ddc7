"""Exception types, the size caps and the JSON field check shared across the package."""


class SizeCapError(Exception):
    """A requested computation exceeds a hard size guard (qubit/state caps)."""


# Every hard size guard: what -> (largest size allowed, its unit, what it limits).
SIZE_CAPS = {
    "oracle": (8, "element", "the exact oracle"),  # n! permutations of n elements
    "enumeration": (20, "bit", "hypercube enumeration"),  # 2^20 states
    "evolution": (12, "qubit", "state-vector evolution"),
    "hamiltonian": (16, "qubit", "the annealing Hamiltonian"),  # gap profiles too
}


def check_size(what: str, size: int) -> None:
    """Raise SizeCapError when ``size`` exceeds the cap SIZE_CAPS[what]."""
    limit, unit, label = SIZE_CAPS[what]
    if size > limit:
        raise SizeCapError(f"{label} needs {size} {unit}s, over its {limit}-{unit} cap")


class SolverError(RuntimeError):
    """A numerical solver failed (non-convergence, non-finite amplitudes)."""


def _has_json_type(value, kind) -> bool:
    """Whether a parsed JSON value has ``kind``.

    ``kind`` is a type (float admits any number), [kind] for a list of it,
    or a tuple of alternatives in which None stands for null.
    """
    if isinstance(kind, tuple):
        return any(value is None if k is None else _has_json_type(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_json_type(v, kind[0]) for v in value)
    if isinstance(value, bool):  # a JSON true/false is no number
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_json_types(data: dict, types: dict, what: str) -> None:
    """Raise ValueError for the first field of ``data`` that ``types`` gives another kind."""
    for key, kind in types.items():
        if key in data and not _has_json_type(data[key], kind):
            raise ValueError(f"{what} field {key!r} has the wrong type: {data[key]!r}")
