"""The two range rules and every parameter that goes through them at its Python entry point,
the JSON field check, and the CSV cell rule."""

import csv
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
from permqubo.anneal import HISTOGRAM_BINS
from permqubo.bench import _RESULT_TYPES, BenchReport, run_experiment
from permqubo.errors import _check_json_types, check_count, check_positive, write_csv
from strategies import random_instance

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


def test_shots_beyond_int64_refused():
    # numpy's multinomial draws int64 counts, so measure takes at most 2^63 - 1 shots
    assert measure(STATE, shots=2**63 - 1, seed=0, model=MODEL).total == 2**63 - 1
    with pytest.raises(ValueError, match=rf"^shots must be an integer <= {2**63 - 1}, got {2**63}$"):
        measure(STATE, shots=2**63, seed=0, model=MODEL)


def test_rules_return_plain_values():
    assert type(check_count("k", np.int64(3))) is int and check_count("k", np.int64(3)) == 3
    assert check_count("k", 0, least=0) == 0
    assert check_count("k", 5, most=5) == 5
    with pytest.raises(ValueError, match="^k must be an integer <= 5, got 6$"):
        check_count("k", 6, most=5)
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


def test_csv_cell_rule(tmp_path):
    # a numpy float and a float by repr(float(v)), a bool as 0/1, None as empty, and an
    # int or a str as csv writes it: the cells each CSV writer spelled by hand before
    path = tmp_path / "cells.csv"
    write_csv(path, ["f64", "float", "tiny", "int", "true", "false", "none", "str"],
              [[np.float64(0.1), 1 / 3, 5e-324, 1, True, False, None, "row_wise"]])
    assert path.read_bytes() == (b"f64,float,tiny,int,true,false,none,str\r\n"
                                 b"0.1,0.3333333333333333,5e-324,1,1,0,,row_wise\r\n")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_float_cells_read_back_as_the_same_float(tmp_path):
    model = build_formulation(random_instance(2, 5), "baseline")
    profile = gap_profile(model, num_samples=9)
    profile.to_csv(tmp_path / "gap.csv")
    header, *rows = _rows(tmp_path / "gap.csv")
    assert header == ["u", "e0", "e1", "gap"]
    want = np.column_stack([profile.ts, profile.e0, profile.e1, profile.gaps()])
    assert [[float(c) for c in row] for row in rows] == want.tolist()

    samples = simulated_annealing(model, sweeps=10, runs=40, seed=3)
    samples.histogram_csv(tmp_path / "hist.csv")
    edges = np.linspace(samples.energies.min(), samples.energies.max(), HISTOGRAM_BINS + 1)
    assert [float(row[0]) for row in _rows(tmp_path / "hist.csv")[1:]] == edges[:-1].tolist()

    report = run_experiment(ExperimentSpec(n=2, num_instances=2, seed=1, scales=(1.0, 2.5),
                                           solver="sa", solver_params={"runs": 20, "sweeps": 5},
                                           gap_samples=3))
    report.to_csv(tmp_path / "report.csv")
    header, *rows = _rows(tmp_path / "report.csv")
    assert header == ["instance", *_RESULT_TYPES]
    results = [res for record in report.instances for res in record["results"]]
    assert len(rows) == len(results) == 12
    for row, res in zip(rows, results):
        for cell, (key, kind) in zip(row[1:], _RESULT_TYPES.items()):
            if kind in (float, (None, float)):
                assert float(cell) == res[key]


def test_hand_written_report_csv(tmp_path):
    # a report JSON may hold an int scale or energy and a null min_gap: an int is written
    # as itself and null as an empty cell
    result = {"formulation": "baseline", "scale": 1, "normalized_energy": 0, "success": True,
              "success_fraction": 0.5, "valid": False, "min_gap": None}
    report = BenchReport.from_dict({
        "spec": spec().to_dict(), "instances": [{"instance": 0, "results": [result]}],
        "aggregates": {}})
    report.to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == (
        b"instance,formulation,scale,normalized_energy,success,success_fraction,valid,min_gap\r\n"
        b"0,baseline,1,0,1,0.5,0,\r\n")
