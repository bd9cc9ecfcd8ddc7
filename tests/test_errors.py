"""The two range rules and every parameter that goes through them at its Python entry point."""

import json

import numpy as np
import pytest

from permqubo import (
    AnnealSchedule,
    ExperimentSpec,
    HamiltonianPair,
    PermutationMatrix,
    QapInstance,
    QuboModel,
    SpinModel,
    build_constraints,
    build_formulation,
    build_hamiltonians,
    evolve_trotter,
    gap_profile,
    measure,
    simulated_annealing,
)
from permqubo.errors import _check_json_types, check_count, check_positive

INST = QapInstance(2, np.eye(4), np.zeros(4))
MODEL = QuboModel(dim=1, Q=np.zeros((1, 1)), q=np.zeros(1), offset=0.0, formulation="inserted", n=2)
PAIR = build_hamiltonians(SpinModel(Q_s=np.zeros((1, 1)), q_s=np.zeros(1), offset_s=0.0))
STATE = np.array([1.0, 0.0], dtype=complex)


def spec(**overrides):
    return ExperimentSpec(**{"n": 2, "num_instances": 1, "seed": 0, **overrides})


# (parameter, least allowed value, call with the parameter set to v)
COUNTS = [
    ("runs", 1, lambda v: simulated_annealing(MODEL, sweeps=1, runs=v, seed=0)),
    ("sweeps", 1, lambda v: simulated_annealing(MODEL, sweeps=v, runs=1, seed=0)),
    ("seed", 0, lambda v: simulated_annealing(MODEL, sweeps=1, runs=1, seed=v)),
    ("shots", 1, lambda v: measure(STATE, shots=v, seed=0, model=MODEL)),
    ("seed", 0, lambda v: measure(STATE, shots=1, seed=v, model=MODEL)),
    ("slices", 1, lambda v: evolve_trotter(PAIR, AnnealSchedule(tau=1.0), slices=v)),
    ("steps", 1, lambda v: AnnealSchedule(tau=1.0, steps=v)),
    ("n", 1, lambda v: QapInstance(v, np.zeros((1, 1)), np.zeros(1))),
    ("n", 1, lambda v: build_constraints(v)),
    ("n", 1, lambda v: spec(n=v)),
    ("num_instances", 1, lambda v: spec(num_instances=v)),
    ("seed", 0, lambda v: spec(seed=v)),
    ("gap_samples", 2, lambda v: spec(gap_samples=v)),
    ("num_samples", 2, lambda v: gap_profile(MODEL, num_samples=v)),
    ("num_qubits", 1, lambda v: HamiltonianPair(v, np.zeros(2))),
    ("dim", 0, lambda v: QuboModel(dim=v, Q=np.zeros((1, 1)), q=np.zeros(1), offset=0.0,
                                   formulation="inserted", n=2)),
    ("n", 1, lambda v: PermutationMatrix(v, [0])),
]
COUNT_IDS = ["runs", "sweeps", "seed-sa", "shots", "seed-measure", "slices", "steps", "n-instance",
             "n-constraints", "n-spec", "num_instances", "seed-spec", "gap_samples", "num_samples",
             "num_qubits", "dim", "n-permutation"]

POSITIVES = [
    ("scale", lambda v: build_formulation(INST, "baseline", v)),
    ("scale", lambda v: spec(scales=(1.0, v))),
    ("tau", lambda v: AnnealSchedule(tau=v)),
    ("schedule", lambda v: simulated_annealing(MODEL, sweeps=2, runs=1, seed=0, schedule=(v, 1.0))),
    ("schedule", lambda v: simulated_annealing(MODEL, sweeps=2, runs=1, seed=0, schedule=(1.0, v))),
]
POSITIVE_IDS = ["scale-build", "scale-spec", "tau", "t_hi", "t_lo"]


@pytest.mark.parametrize("bad", ["least-1", -1, True, 2.5])
@pytest.mark.parametrize("name, least, call", COUNTS, ids=COUNT_IDS)
def test_count_refused_with_its_name(name, least, call, bad):
    value = least - 1 if bad == "least-1" else bad
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf"), True])
@pytest.mark.parametrize("name, call", POSITIVES, ids=POSITIVE_IDS)
def test_positive_refused_with_its_name(name, call, bad):
    with pytest.raises(ValueError, match=rf"^{name}\b.* must be finite and positive, got "):
        call(bad)


def test_rules_return_plain_values():
    assert type(check_count("k", np.int64(3))) is int and check_count("k", np.int64(3)) == 3
    assert check_count("k", 0, least=0) == 0
    assert type(check_positive("x", 2)) is float and check_positive("x", np.float64(0.5)) == 0.5
    for value in ("3", None, 3.0, -(10**400)):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            check_count("k", value)
    for value in ("1.5", None, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="x must be finite and positive"):
            check_positive("x", value)


@pytest.mark.parametrize("data, message", [
    ({"W": [[1.0], [1.0, "x" * 10**5]]}, "t field 'W' has the wrong type at W[1][1]: str"),
    ({"W": [[1.0], 5]}, "t field 'W' has the wrong type at W[1]: int"),
    ({"W": {"a": [1.0] * 10**5}}, "t field 'W' has the wrong type: dict"),
    ({"s": [1.0, True]}, "t field 's' has the wrong type at s[1]: bool"),
    ({"W": [[1.0, float("inf")]]}, "t field W[0][1] must be finite"),
    ([1.0] * 10**5, "t must be a JSON object, got list"),
])
def test_json_field_check_names_the_element_not_the_value(data, message):
    with pytest.raises(ValueError) as refused:
        _check_json_types(data, {"W": [[float]], "s": (None, [float])}, "t", required=())
    assert str(refused.value) == message


# 4 x 4 number tables (JSON text) that the field check refuses, with the tail of each
# refusal after "<what> field ".  W[2][2] is the bad cell, W[3] a row, W[0][1] a deeper list
# and W[1] a short row.
_ROW = "[0, 0, 0, 0]"


def _table(*rows):
    return "[" + ", ".join(rows) + "]"


def _cell(literal):
    return _table(_ROW, _ROW, f"[0, 1.5, {literal}, 0]", _ROW)


BAD_TABLES = {
    "bool": (_cell("true"), "'W' has the wrong type at W[2][2]: bool"),
    "string": (_cell('"1.5"'), "'W' has the wrong type at W[2][2]: str"),
    "null": (_cell("null"), "'W' has the wrong type at W[2][2]: NoneType"),
    "nan": (_cell("NaN"), "W[2][2] must be finite"),
    "infinity": (_cell("Infinity"), "W[2][2] must be finite"),
    "overflow": (_cell("1e400"), "W[2][2] must be finite"),
    "huge-int": (_cell("1" + "0" * 400), "W[2][2] must be finite"),
    "row-no-list": (_table(_ROW, _ROW, _ROW, "5"), "'W' has the wrong type at W[3]: int"),
    "deeper": (_table("[0, [1.0], 0, 0]", _ROW, _ROW, _ROW),
               "'W' has the wrong type at W[0][1]: list"),
    "ragged": (_table(_ROW, "[0, 0, 0]", _ROW, _ROW), "W[1] has 3 entries, but W[0] has 4"),
}


def _loaders(table):
    """(what, field, the number-table loader) for an instance W and a model Q."""
    return [
        ("instance JSON", "W", lambda: QapInstance.from_dict(
            json.loads('{"n": 2, "W": %s, "c": [0, 0, 0, 0]}' % table))),
        ("model JSON", "Q", lambda: QuboModel.from_dict(json.loads(
            '{"dim": 4, "formulation": "baseline", "n": 2, "Q": %s, "q": [0, 0, 0, 0], '
            '"offset": 0}' % table))),
    ]


@pytest.mark.parametrize("case", list(BAD_TABLES))
def test_number_table_refusals_name_the_cell(case):
    # the fast pass over number tables must leave every refusal as the recursive check words it
    table, tail = BAD_TABLES[case]
    for what, key, load in _loaders(table):
        with pytest.raises(ValueError) as refused:
            load()
        assert str(refused.value) == f"{what} field " + tail.replace("W", key)


def test_number_tables_accepted():
    for _, _, load in _loaders(_cell("2")):
        load()


def test_ragged_table_in_a_file_names_the_file_and_the_row(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"n": 2, "W": %s, "c": [0, 0, 0, 0]}'
                    % _table(_ROW, _ROW, _ROW, "[0, 0, 0, 0, 0]"), encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        QapInstance.load(path)
    assert str(refused.value) == f"{path}: instance JSON field W[3] has 5 entries, but W[0] has 4"
