"""The seeded output set of tests/golden/outputs.py repeats itself byte for byte, and its
compare tool reports a planted change to a float and to a bool, field by field."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_outputs", Path(__file__).resolve().parent / "golden" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)

# JSON, CSV with and without a header row, sparse text and console files
SUBSET = {"build_inserted", "gap_zero", "solve_sa", "sa_runs65", "bench_sa", "report"}


def test_reruns_compare_identical_and_planted_changes_are_reported(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        outputs.run(out, SUBSET)
    report = outputs.compare(a, b)
    assert report["files_a"] == report["files_b"] == report["identical"] > 20
    assert not (report["only_a"] or report["only_b"] or report["differ"])

    data = json.loads((b / "solve_sa.json").read_text(encoding="utf-8"))
    data["entries"][0]["energy"] += 1e-9
    data["entries"][-1]["valid"] = not data["entries"][-1]["valid"]
    (b / "solve_sa.json").write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    report = outputs.compare(a, b)
    assert report["identical"] == report["files_a"] - 1
    fields = report["differ"]["solve_sa.json"]
    assert set(fields) == {"entries[*].energy", "entries[*].valid"}
    energy, valid = fields["entries[*].energy"], fields["entries[*].valid"]
    assert energy["moved"] == 1 and energy["abs"] == pytest.approx(1e-9, rel=1e-3)
    assert valid["changed"] == 1 and not valid["moved"]
    text = outputs.summary(report)
    assert "entries[*].energy: 1 of" in text and "entries[*].valid: 1 of" in text
