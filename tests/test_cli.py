import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from permqubo import (
    QapInstance,
    QuboModel,
    SampleEntry,
    SampleSet,
    brute_force_qap,
    build_formulation,
    worst_permutation,
)
from permqubo.cli import main


def write_instance(tmp_path, n, seed, name="inst.json"):
    rng = np.random.default_rng(seed)
    m = n * n
    inst = QapInstance(n, rng.uniform(-1, 1, (m, m)), rng.uniform(-1, 1, m))
    path = tmp_path / name
    inst.save(path)
    return inst, path


def write_zero_instance(tmp_path, n, name="zero.json"):
    inst = QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n))
    path = tmp_path / name
    inst.save(path)
    return inst, path


class TestBuild:
    def test_zero_instance_baseline(self, tmp_path, capsys):
        _, path = write_zero_instance(tmp_path, 2)
        out = tmp_path / "model.json"
        code = main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 4
        assert data["penalty_bounds"]["lambda_baseline"] == 0.0
        assert "dim=4" in capsys.readouterr().out

    def test_inserted_reduced_dimension(self, tmp_path):
        _, path = write_instance(tmp_path, 3, 1)
        out = tmp_path / "model.json"
        assert main(["build", "--instance", str(path), "--formulation", "inserted",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 4

    def test_row_wise_prints_eight_bounds_n4(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 4, 2)
        out = tmp_path / "model.json"
        assert main(["build", "--instance", str(path), "--formulation", "row_wise",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 16
        assert len(data["penalty_bounds"]["lambda_rows"]) == 8
        line = capsys.readouterr().out
        assert len(line.split("lambda_i=")[1].split()[0].split(",")) == 8

    def test_sparse_export(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 3)
        out = tmp_path / "model.json"
        sparse = tmp_path / "model.qubo"
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(out), "--sparse-out", str(sparse)]) == 0
        assert sparse.read_text().startswith("offset ")

    def test_provenance_embedded(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 4)
        out = tmp_path / "model.json"
        main(["build", "--instance", str(path), "--formulation", "baseline",
              "--out", str(out), "--seed", "11"])
        prov = json.loads(out.read_text())["provenance"]
        assert prov["seed"] == 11
        assert str(path) in prov["inputs"]

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "W": [[1,')
        out = tmp_path / "model.json"
        assert main(["build", "--instance", str(bad), "--formulation", "baseline",
                     "--out", str(out)]) == 2
        assert "line" in capsys.readouterr().err

    def test_nonpositive_scale_exit_2(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 5)
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--scale", "0", "--out", str(tmp_path / "m.json")]) == 2


class TestGap:
    def test_profile_csv_with_endpoint(self, tmp_path):
        _, path = write_zero_instance(tmp_path, 2)
        out = tmp_path / "gap.csv"
        code = main(["gap", "--instance", str(path), "--formulation", "baseline",
                     "--samples", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(2.0, abs=1e-8)

    def test_min_gaps_decrease_with_scale(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 6)
        out = tmp_path / "gap.csv"
        summary = tmp_path / "gap.json"
        code = main(["gap", "--instance", str(path), "--formulation", "baseline",
                     "--scales", "1,3", "--samples", "9", "--out", str(out),
                     "--summary-out", str(summary)])
        assert code == 0
        profiles = json.loads(summary.read_text())["profiles"]
        assert profiles[0]["min_gap"] > profiles[1]["min_gap"]

    def test_json_format_embeds_profiles(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 61)
        out = tmp_path / "gap.json"
        code = main(["gap", "--instance", str(path), "--formulation", "inserted",
                     "--scales", "1,2", "--samples", "7", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["profiles"]) == 2
        assert len(data["profiles"][0]["u"]) == 7

    def test_reruns_write_identical_csv(self, tmp_path):
        # One run in this process and one in a fresh interpreter.
        _, path = write_instance(tmp_path, 3, 63)
        args = ["gap", "--instance", str(path), "--formulation", "baseline", "--samples", "9"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        subprocess.run([sys.executable, "-m", "permqubo.cli", *args, "--out", str(second)],
                       check=True, capture_output=True, timeout=120)
        assert first.read_bytes() == second.read_bytes()

    def test_format_mismatch_exit_2(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 62)
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(tmp_path / "m.json"), "--format", "csv"]) == 2

    def test_qubit_cap_exit_4(self, tmp_path, capsys):
        _, path = write_zero_instance(tmp_path, 5)
        assert main(["gap", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(tmp_path / "gap.csv")]) == 4
        assert "16" in capsys.readouterr().err


class TestSolve:
    def test_brute_success(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 3, 7)
        out = tmp_path / "samples.json"
        code = main(["solve", "--instance", str(path), "--formulation", "inserted",
                     "--solver", "brute", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["success"]["probability"] == 1.0
        assert "1/6" in capsys.readouterr().out

    def test_sa_solver_with_histogram(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 8)
        out = tmp_path / "samples.json"
        hist = tmp_path / "hist.csv"
        code = main(["solve", "--instance", str(path), "--formulation", "row_wise",
                     "--solver", "sa", "--runs", "40", "--sweeps", "30",
                     "--out", str(out), "--hist-out", str(hist)])
        assert code == 0
        assert hist.read_text().startswith("energy_bin")

    def test_schrodinger_small(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 9)
        out = tmp_path / "samples.json"
        code = main(["solve", "--instance", str(path), "--formulation", "inserted",
                     "--solver", "schrodinger", "--tau", "20", "--shots", "200",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["success"]["probability"] > 0.5

    def test_schrodinger_cap_exit_4(self, tmp_path):
        _, path = write_instance(tmp_path, 4, 10)
        assert main(["solve", "--instance", str(path), "--formulation", "baseline",
                     "--solver", "schrodinger", "--out", str(tmp_path / "s.json")]) == 4

    def test_qubo_roundtrip_matches_in_process(self, tmp_path):
        inst, path = write_instance(tmp_path, 3, 11)
        model_path = tmp_path / "model.json"
        main(["build", "--instance", str(path), "--formulation", "row_wise",
              "--out", str(model_path)])
        out = tmp_path / "samples.json"
        code = main(["solve", "--qubo", str(model_path), "--instance", str(path),
                     "--solver", "sa", "--runs", "25", "--sweeps", "20",
                     "--seed", "21", "--out", str(out)])
        assert code == 0
        reread = QuboModel.load(model_path)
        direct = build_formulation(inst, "row_wise")
        assert np.array_equal(reread.Q, direct.Q)
        assert np.array_equal(reread.q, direct.q)
        from permqubo import simulated_annealing

        expected = simulated_annealing(direct, sweeps=20, runs=25, seed=21)
        data = json.loads(out.read_text())
        got = [(tuple(e["bits"]), e["energy"], e["count"]) for e in data["entries"]]
        want = [(e.bits, e.energy, e.count) for e in expected.entries]
        assert got == want

    def test_oversized_instance_refused_before_solving(self, tmp_path):
        _, path = write_instance(tmp_path, 9, 12)
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench.simulated_annealing") as sa:
            code = main(["solve", "--instance", str(path), "--solver", "sa",
                         "--runs", "2", "--sweeps", "1", "--out", str(out)])
        assert code == 4
        sa.assert_not_called()
        assert not out.exists()

    def test_invalid_result_priced_at_worst_permutation(self, tmp_path):
        inst, path = write_instance(tmp_path, 3, 13)
        _, f_opt = brute_force_qap(inst)
        _, f_worst = worst_permutation(inst)
        invalid = SampleSet(
            entries=[SampleEntry(bits=(0,) * 9, energy=0.0, count=1, valid=False, assignment=None)],
            total=1,
        )
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench._solve", return_value=invalid):
            assert main(["solve", "--instance", str(path), "--solver", "sa",
                         "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["most_frequent_normalized_energy"] == pytest.approx(f_worst - f_opt, rel=1e-12)
        assert summary["success"]["probability"] == 0.0

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["solve", "--solver", "brute", "--out", str(tmp_path / "s.json")]) == 2

    def test_failed_side_output_leaves_no_files(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 3, 14, name="inst3.json")
        code = main(["solve", "--instance", str(path), "--solver", "brute",
                     "--out", str(tmp_path / "zz.json"),
                     "--hist-out", str(tmp_path / "nonexistent" / "h.csv")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst3.json"]
        err = capsys.readouterr().err
        assert "h.csv" in err and ".tmp" not in err

    def test_missing_output_dir_refused_before_solving(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 3, 14, name="inst3.json")
        (tmp_path / "adir").mkdir()
        for hist in (tmp_path / "missing" / "h.csv", tmp_path / "adir"):
            with mock.patch("permqubo.bench._solve") as solve:
                code = main(["solve", "--instance", str(path), "--solver", "brute",
                             "--out", str(tmp_path / "zz.json"), "--hist-out", str(hist)])
            assert code == 2
            solve.assert_not_called()
            assert str(hist) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "inst3.json"]

    def test_failed_side_write_rolls_back(self, tmp_path):
        _, path = write_instance(tmp_path, 3, 14, name="inst3.json")
        with mock.patch("permqubo.anneal.SampleSet.histogram_csv",
                        side_effect=OSError(28, "No space left on device")):
            code = main(["solve", "--instance", str(path), "--solver", "brute",
                         "--out", str(tmp_path / "zz.json"),
                         "--hist-out", str(tmp_path / "h.csv")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst3.json"]

    def test_failed_rename_removes_placed_outputs(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 2, 15)
        replace = os.replace
        calls = []

        def flaky_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(13, "Permission denied")
            replace(src, dst)

        with mock.patch("permqubo.cli.os.replace", side_effect=flaky_replace):
            code = main(["build", "--instance", str(path), "--formulation", "baseline",
                         "--out", str(tmp_path / "m.json"), "--sparse-out", str(tmp_path / "m.txt")])
        assert code == 2
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
        err = capsys.readouterr().err
        assert "m.txt" in err and ".tmp" not in err


class TestBenchAndReport:
    def test_bench_spec_file(self, tmp_path, capsys):
        spec = {
            "n": 3, "num_instances": 2, "seed": 5,
            "formulations": ["baseline", "inserted"], "scales": [1.0],
            "solver": "brute", "solver_params": {},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code = main(["bench", "--spec", str(spec_path), "--out", str(out),
                     "--csv-out", str(csv_out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["instances"]) == 2
        assert "mean_success=1.000" in capsys.readouterr().out

    def test_bench_preset(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--preset", "random-dense", "--n", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["spec"]["solver"] == "sa"

    def test_bench_empty_instances_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n": 3, "num_instances": 0, "seed": 0}))
        assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("text", ['{"n": null, "num_instances": 1, "seed": 0}', "5"])
    def test_bench_mistyped_spec_exit_2(self, tmp_path, capsys, text):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "r.json")]) == 2
        assert "experiment spec" in capsys.readouterr().err

    def test_bench_missing_spec_exit_2(self, tmp_path):
        assert main(["bench", "--out", str(tmp_path / "r.json")]) == 2

    def test_report_renders_csv(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 2, "num_instances": 1, "seed": 0, "solver": "brute",
            "formulations": ["baseline"], "scales": [1.0],
        }))
        report_path = tmp_path / "report.json"
        main(["bench", "--spec", str(spec_path), "--out", str(report_path)])
        capsys.readouterr()
        csv_out = tmp_path / "tables.csv"
        assert main(["report", "--report", str(report_path), "--out", str(csv_out)]) == 0
        assert csv_out.read_text().startswith("instance,")

    def test_report_rejects_non_report(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text("{}")
        assert main(["report", "--report", str(other)]) == 2
