"""Tests of the benchmark itself: tiny runs of every workload and the checks.

Run with ``python3 -m pytest perfbench``; they are outside the package's
own test paths so the main suite does not pay for them.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_match_benchmark_json():
    # sa-16bit runs with the rest but is not in BENCHMARK.json's timed set.
    timed = [n for n in run.WORKLOAD_NAMES if n != "sa-16bit"]
    assert [w["name"] for w in CONTRACT["workloads"]] == timed
    assert list(workloads.SIZES) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float)
        assert any(line.split()[:1] == [name] and line.split()[2] == metric["unit"]
                   for line in lines[:-1]), name
    # Every end-to-end and ungated metric is also printed by name with its unit.
    for name, unit in {**run.END_TO_END, **run.UNGATED}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])


def _one_rep(name, tmp_path, tamper):
    """Run one tiny repetition, let ``tamper`` edit its outputs, return the outcomes."""
    params = workloads.SIZES[name]["tiny"]
    item = workloads.setup(name, 5, True, tmp_path)[0]
    capture = spans.Capture()
    with spans.instrumented(capture):
        output = workloads.run(name, params, item, tmp_path)
    calls = capture.take()
    tamper(output, calls)
    return workloads.check(name, item, output, calls, tmp_path)


def test_untampered_outputs_pass(tmp_path):
    for name in run.WORKLOAD_NAMES:
        outcomes = _one_rep(name, tmp_path, lambda output, calls: None)
        assert outcomes and not any(o["failures"] for o in outcomes), name


def test_tampered_min_gap_is_a_failure(tmp_path):
    def tamper(output, calls):
        result = output[0].instances[0]["results"][0]
        result["min_gap"] += 1e-3

    outcomes = _one_rep("gap-scan", tmp_path, tamper)
    assert any("min_gap" in m for m in outcomes[0]["failures"])


def test_wrong_sample_energy_is_a_failure(tmp_path):
    def tamper(output, calls):
        samples = next(c[3] for c in calls if c[0] == "simulated_annealing")
        samples.entries[0].energy += 1e-3

    outcomes = _one_rep("sa-16bit", tmp_path, tamper)
    assert any("sample energy" in m for m in outcomes[0]["failures"])


def test_wrong_energy_in_cli_output_is_a_failure(tmp_path):
    def tamper(output, calls):
        path = tmp_path / "out-baseline.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["entries"][-1]["energy"] += 1.0
        path.write_text(json.dumps(payload), encoding="utf-8")

    outcomes = _one_rep("cli-solve-n8", tmp_path, tamper)
    assert any("sample energy" in m for m in outcomes[0]["failures"])


def test_check_failures_are_counted(tmp_path, monkeypatch):
    real_run = workloads.run

    def tampered_run(name, params, item, workdir):
        output = real_run(name, params, item, workdir)
        output[0].instances[0]["results"][1]["normalized_energy"] += 1.0
        return output

    monkeypatch.setattr(workloads, "run", tampered_run)
    name = "sa-16bit"
    pool = workloads.setup(name, 5, True, tmp_path)
    times, _, outcomes, errors, _ = run.measure(name, workloads.SIZES[name]["tiny"], pool, 0.5,
                                                False, tmp_path)
    reps = len(times[False]["wall"])
    assert reps >= 1 and not errors
    assert sum(1 for o in outcomes if o["failures"]) == reps
