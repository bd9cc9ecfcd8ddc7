import ast
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import permqubo
from permqubo import (
    QapInstance,
    QuboModel,
    SampleSet,
    brute_force_qap,
    build_formulation,
    permutation_extremes,
    worst_permutation,
)
from permqubo.bench import SOLVER_DEFAULTS, SOLVERS
from permqubo.cli import _parser, main
from permqubo.errors import WORK_CAPS


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
              "--out", str(out)])
        prov = json.loads(out.read_text())["provenance"]
        assert "seed" not in prov  # build is not random
        assert str(path) in prov["inputs"]

    @pytest.mark.parametrize("command", ["build", "gap"])
    def test_seed_flag_refused(self, tmp_path, capsys, command):
        # only solve and bench draw random numbers, so only they take --seed
        _, path = write_instance(tmp_path, 2, 4)
        with pytest.raises(SystemExit) as exc:
            main([command, "--instance", str(path), "--formulation", "baseline",
                  "--out", str(tmp_path / "out.json"), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

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
        with pytest.warns(UserWarning, match="degenerate"):
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

    @pytest.mark.parametrize("out_name", ["gap.json", "gap.csv"])
    def test_summary_holds_no_curves(self, tmp_path, out_name):
        # in both modes the summary holds each scale's minimum (and its CSV's path in CSV
        # mode) and the provenance; a JSON --out holds the same entries plus the curves
        _, path = write_instance(tmp_path, 2, 61)
        out, summary = tmp_path / out_name, tmp_path / "summary.json"
        assert main(["gap", "--instance", str(path), "--formulation", "inserted",
                     "--scales", "1,2", "--samples", "7", "--out", str(out),
                     "--summary-out", str(summary)]) == 0
        data = json.loads(summary.read_text())
        keys = {"scale", "formulation", "min_gap", "argmin_t"}
        if out.suffix == ".csv":
            keys.add("csv")
        assert set(data) == {"profiles", "provenance"} and len(data["profiles"]) == 2
        assert all(set(entry) == keys for entry in data["profiles"])
        if out.suffix == ".json":
            full = json.loads(out.read_text())
            assert full["provenance"] == data["provenance"]
            for curve, entry in zip(full["profiles"], data["profiles"]):
                for key in ("u", "e0", "e1", "gap"):
                    assert len(curve.pop(key)) == 7
                assert curve == entry

    def test_json_curve_columns_are_the_csv_columns(self, tmp_path):
        # one column list: a JSON curve holds the summary entry plus exactly the CSV's
        # columns, with the same numbers
        _, path = write_instance(tmp_path, 2, 62)
        runs = {}
        for suffix in ("json", "csv"):
            out, summary = tmp_path / f"gap.{suffix}", tmp_path / f"summary_{suffix}.json"
            assert main(["gap", "--instance", str(path), "--formulation", "row_wise",
                         "--samples", "5", "--out", str(out), "--summary-out", str(summary)]) == 0
            runs[suffix] = out, json.loads(summary.read_text())["profiles"][0]
        curve = json.loads(runs["json"][0].read_text())["profiles"][0]
        header, *rows = list(csv.reader(runs["csv"][0].read_text().splitlines()))
        assert header == ["u", "e0", "e1", "gap"]
        assert set(curve) == set(runs["json"][1]) | set(header)
        for j, key in enumerate(header):
            assert curve[key] == [float(row[j]) for row in rows]

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

    def test_one_and_two_blas_threads_write_identical_csv(self, tmp_path):
        # The eigensolver's products are small matrix products, which a
        # threaded BLAS may split; the profile must not depend on the split.
        _, path = write_instance(tmp_path, 3, 64)
        args = ["gap", "--instance", str(path), "--formulation", "baseline", "--samples", "9"]
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "permqubo.cli", *args, "--out", str(out)],
                           check=True, capture_output=True, timeout=120, env=env)
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_qubit_cap_exit_4(self, tmp_path, capsys):
        _, path = write_zero_instance(tmp_path, 5)
        assert main(["gap", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(tmp_path / "gap.csv")]) == 4
        assert "16" in capsys.readouterr().err

    def test_over_the_work_cap_exit_4(self, tmp_path, capsys):
        # n = 2 inserted has one qubit: the fewest grid points over the cap
        _, path = write_instance(tmp_path, 2, 19)
        out = tmp_path / "gap.csv"
        samples = WORK_CAPS["gap"][0] // 2 + 1
        with mock.patch("permqubo.cli.build_formulation") as build, \
                mock.patch("permqubo.cli.gap_profile") as profile:
            code = main(["gap", "--instance", str(path), "--formulation", "inserted",
                         "--samples", str(samples), "--out", str(out)])
        assert code == 4
        build.assert_not_called()
        profile.assert_not_called()
        assert "eigensolve-amplitude cap" in capsys.readouterr().err
        assert not out.exists()

    def test_scales_that_round_alike_get_distinct_csv_names(self, tmp_path, capsys):
        # "{scale:g}" reads both scales as 1, so the second is named by its repr; a
        # scale that "{scale:g}" spells exactly keeps that name, on the console too
        _, path = write_instance(tmp_path, 2, 19)
        assert main(["gap", "--instance", str(path), "--formulation", "inserted",
                     "--scales", "1,1.00000001,2.5e7", "--samples", "3", "--out",
                     str(tmp_path / "g.csv"), "--summary-out", str(tmp_path / "s.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "scale=1", "scale=1.00000001", "scale=2.5e+07"]
        names = ["g_scale1.csv", "g_scale1.00000001.csv", "g_scale2.5e+07.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, "inst.json", "s.json"])
        profiles = json.loads((tmp_path / "s.json").read_text())["profiles"]
        assert [entry["csv"] for entry in profiles] == [str(tmp_path / name) for name in names]

    @pytest.mark.parametrize("out_name", ["g.csv", "g.json"])
    def test_repeated_scale_refused_before_work(self, tmp_path, capsys, out_name):
        # 1 and 1.0 are one scale: a JSON output would hold its profile twice
        _, path = write_instance(tmp_path, 2, 19)
        with mock.patch("permqubo.cli.gap_profile") as profile:
            code = main(["gap", "--instance", str(path), "--formulation", "inserted",
                         "--scales", "1,2,1.0", "--samples", "3", "--out", str(tmp_path / out_name)])
        assert code == 2
        profile.assert_not_called()
        assert capsys.readouterr().err == "error: --scales must be distinct, got 1.0 twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    def test_per_scale_csv_name_that_is_a_directory_refused_before_work(self, tmp_path, capsys):
        # the second scale's CSV name is a directory: refused before the first profile runs
        _, path = write_instance(tmp_path, 3, 19)
        (tmp_path / "g_scale2.csv").mkdir()
        with mock.patch("permqubo.cli.gap_profile") as profile:
            code = main(["gap", "--instance", str(path), "--formulation", "inserted",
                         "--scales", "1,2", "--samples", "3", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        profile.assert_not_called()
        assert capsys.readouterr().err == f"error: output {tmp_path / 'g_scale2.csv'} is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g_scale2.csv", "inst.json"]
        assert not any((tmp_path / "g_scale2.csv").iterdir())


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
        _, path = write_instance(tmp_path, 5, 10)
        assert main(["solve", "--instance", str(path), "--formulation", "baseline",
                     "--solver", "schrodinger", "--out", str(tmp_path / "s.json")]) == 4

    def test_trotter_at_the_qubit_cap(self, tmp_path):
        # n = 4 baseline is 16 qubits, the cap of every state-vector path
        _, path = write_instance(tmp_path, 4, 10)
        out = tmp_path / "s.json"
        assert main(["solve", "--instance", str(path), "--formulation", "baseline",
                     "--solver", "trotter", "--slices", "4", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["entries"][0]["bits"]) == 16

    def test_trotter_overflow_refused_without_warnings(self, tmp_path, capsys):
        # a slice's phase overflows at tau = 1e308; the step check refuses the
        # non-finite amplitudes, and no numpy warning comes before its message
        _, path = write_instance(tmp_path, 2, 11)
        out = tmp_path / "s.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", "--instance", str(path), "--solver", "trotter",
                         "--slices", "3", "--tau", "1e308", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: non-finite amplitudes at step 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, flags", [
        (2, ["--solver", "schrodinger", "--tau", "1e12"]),
        (2, ["--solver", "schrodinger", "--tau", "1e12", "--steps", "1"]),  # ~10^12 substeps
        (2, ["--solver", "schrodinger", "--tau", "1e308"]),  # 2.5 tau overflows a float
        (2, ["--solver", "trotter", "--slices", "1000000000"]),
        # 16 qubits: the up-front check charges the 1250 CF4 steps (cap 2048), but evolve
        # charges each twice, for the two substeps its exponentials may take
        (4, ["--formulation", "baseline", "--solver", "schrodinger", "--tau", "500"]),
    ], ids=["flags0", "flags1", "flags2", "flags3", "n4-baseline-tau500"])
    def test_evolution_over_the_work_cap_exit_4(self, tmp_path, capsys, n, flags):
        _, path = write_instance(tmp_path, n, 19)
        out = tmp_path / "s.json"
        with mock.patch("permqubo.anneal._propagate") as propagate, \
                mock.patch("permqubo.anneal._mixer_rotation") as rotate:
            code = main(["solve", "--instance", str(path), *flags, "--out", str(out)])
        assert code == 4
        propagate.assert_not_called()
        rotate.assert_not_called()
        assert "step-amplitude cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, flags", [
        (2, ["--runs", "1", "--sweeps", "1000000"]),  # charged as 2^10 runs
        (1, ["--runs", str(WORK_CAPS["sa"][0] + 1), "--sweeps", "1"]),  # cap + 1 on one bit
    ])
    def test_sa_over_the_work_cap_exit_4(self, tmp_path, capsys, n, flags):
        _, path = write_instance(tmp_path, n, 19)
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench.simulated_annealing") as anneal_runs:
            code = main(["solve", "--instance", str(path), "--solver", "sa", *flags,
                         "--out", str(out)])
        assert code == 4
        anneal_runs.assert_not_called()
        assert "flip-attempt cap" in capsys.readouterr().err
        assert not out.exists()

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

    def test_solver_param_out_of_range_refused_before_solving(self, tmp_path, capsys):
        _, path = write_instance(tmp_path, 2, 16)
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench.evolve") as evolve:
            code = main(["solve", "--instance", str(path), "--solver", "schrodinger",
                         "--shots", "0", "--out", str(out)])
        assert code == 2
        evolve.assert_not_called()
        assert "shots" in capsys.readouterr().err
        assert not out.exists()
        for solver in SOLVERS:
            with mock.patch("permqubo.bench._solve") as solve:
                code = main(["solve", "--instance", str(path), "--solver", solver,
                             "--seed", "-1", "--out", str(out)])
            assert code == 2
            solve.assert_not_called()
            assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
            assert not out.exists()

    def test_model_size_mismatch_refused_before_solving(self, tmp_path, capsys):
        _, path3 = write_instance(tmp_path, 3, 17, name="i3.json")
        _, path4 = write_instance(tmp_path, 4, 18, name="i4.json")
        model_path = tmp_path / "m3.json"
        assert main(["build", "--instance", str(path3), "--formulation", "baseline",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench.simulated_annealing") as sa:
            code = main(["solve", "--qubo", str(model_path), "--instance", str(path4),
                         "--solver", "sa", "--out", str(out)])
        assert code == 2
        sa.assert_not_called()
        assert "n=3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--formulation", "row_wise"], ["--scale", "2"]])
    def test_qubo_with_formulation_or_scale_refused_before_loading(self, tmp_path, capsys, flag):
        _, path = write_instance(tmp_path, 3, 19)
        model_path = tmp_path / "model.json"
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "s.json"
        with mock.patch.object(QuboModel, "load") as load:
            code = main(["solve", "--qubo", str(model_path), *flag, "--solver", "sa",
                         "--runs", "5", "--sweeps", "2", "--out", str(out)])
        assert code == 2
        load.assert_not_called()
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_result_priced_at_worst_permutation(self, tmp_path):
        inst, path = write_instance(tmp_path, 3, 13)
        _, f_opt = brute_force_qap(inst)
        _, f_worst = worst_permutation(inst)
        # one all-zero state, which encodes no permutation
        invalid = SampleSet.from_states(build_formulation(inst, "baseline"), np.zeros((1, 9), dtype=int),
                                        np.ones(1, dtype=int), {})
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench._solve", return_value=invalid):
            assert main(["solve", "--instance", str(path), "--solver", "sa",
                         "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["most_frequent_normalized_energy"] == pytest.approx(f_worst - f_opt, rel=1e-12)
        assert summary["success"]["probability"] == 0.0

    def test_one_oracle_pass_per_solve(self, tmp_path):
        # f_opt and f_worst come from one n! pass, never from the two wrappers
        _, path = write_instance(tmp_path, 4, 14)
        with mock.patch("permqubo.cli.permutation_extremes", wraps=permutation_extremes) as one_pass, \
                mock.patch("permqubo.qap.permutation_extremes", wraps=permutation_extremes) as wrapped:
            assert main(["solve", "--instance", str(path), "--solver", "sa", "--runs", "5",
                         "--sweeps", "2", "--out", str(tmp_path / "s.json")]) == 0
        assert one_pass.call_count == 1
        wrapped.assert_not_called()

    @pytest.mark.parametrize("text", [
        '{"n": 1, "W": [["2.5"]], "c": ["1"]}', '{"n": 1, "W": [[true]], "c": [1.0]}', "[1]",
    ])
    def test_mistyped_instance_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        out = tmp_path / "s.json"
        assert main(["solve", "--instance", str(path), "--solver", "brute", "--out", str(out)]) == 2
        assert "instance JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("dim", None), ("n", 2.0), ("formulation", 3), ("Q", "0"), ("q", [None]), ("offset", "1"),
    ])
    def test_mistyped_model_exit_2(self, tmp_path, capsys, field, value):
        _, path = write_instance(tmp_path, 2, 14)
        model_path = tmp_path / "model.json"
        main(["build", "--instance", str(path), "--formulation", "baseline", "--out", str(model_path)])
        data = json.loads(model_path.read_text())
        data[field] = value
        model_path.write_text(json.dumps(data))
        out = tmp_path / "s.json"
        assert main(["solve", "--qubo", str(model_path), "--solver", "brute", "--out", str(out)]) == 2
        assert f"model JSON field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_trotter_records_slices_not_steps(self, tmp_path):
        _, path = write_instance(tmp_path, 2, 15)
        schedules = {}
        for solver in ("schrodinger", "trotter"):
            out = tmp_path / f"{solver}.json"
            assert main(["solve", "--instance", str(path), "--solver", solver, "--tau", "5",
                         "--slices", "40", "--shots", "10", "--out", str(out)]) == 0
            schedules[solver] = json.loads(out.read_text())["metadata"]["schedule"]
        assert schedules["schrodinger"]["steps"] == 25 and "slices" not in schedules["schrodinger"]
        assert schedules["trotter"]["slices"] == 40 and "steps" not in schedules["trotter"]

    def test_every_solver_stamps_its_name(self, tmp_path):
        # and the hash of the model it ran on, brute's included
        inst, path = write_instance(tmp_path, 2, 16)
        model_hash = build_formulation(inst, "baseline", 1.0).content_hash()
        for solver in SOLVERS:
            out = tmp_path / f"{solver}.json"
            assert main(["solve", "--instance", str(path), "--solver", solver, "--tau", "5",
                         "--runs", "10", "--sweeps", "5", "--shots", "10", "--out", str(out)]) == 0
            metadata = json.loads(out.read_text())["metadata"]
            assert metadata["solver"] == solver and metadata["model_hash"] == model_hash

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

    def test_outputs_that_name_one_file_refused_before_solving(self, tmp_path, capsys):
        # the histogram would silently replace the sample set
        _, path = write_instance(tmp_path, 2, 15)
        out = tmp_path / "x.json"
        with mock.patch("permqubo.bench._solve") as solve:
            code = main(["solve", "--instance", str(path), "--solver", "sa", "--out", str(out),
                         "--hist-out", str(tmp_path / "." / "x.json")])
        assert code == 2
        solve.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith("error: two outputs name the same file ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]

    # Per command: an output that names one of its inputs ({d} is the test's directory;
    # each output goes through "./", so the check must compare resolved paths), and that input.
    _OVERWRITES = {
        "build": (["build", "--instance", "{d}/inst.json", "--formulation", "baseline",
                   "--out", "{d}/./inst.json"], "inst.json"),
        "build-sparse": (["build", "--instance", "{d}/inst.json", "--formulation", "baseline",
                          "--out", "{d}/m.json", "--sparse-out", "{d}/./inst.json"], "inst.json"),
        "gap": (["gap", "--instance", "{d}/inst.json", "--formulation", "baseline",
                 "--samples", "3", "--out", "{d}/./inst.json"], "inst.json"),
        "gap-per-scale": (["gap", "--instance", "{d}/g_scale2.csv", "--formulation", "baseline",
                           "--scales", "1,2", "--samples", "3", "--out", "{d}/./g.csv"],
                          "g_scale2.csv"),
        "gap-summary": (["gap", "--instance", "{d}/inst.json", "--formulation", "baseline",
                         "--samples", "3", "--out", "{d}/g.csv",
                         "--summary-out", "{d}/./inst.json"], "inst.json"),
        "solve": (["solve", "--instance", "{d}/inst.json", "--solver", "brute",
                   "--out", "{d}/./inst.json"], "inst.json"),
        "solve-qubo": (["solve", "--qubo", "{d}/model.json", "--solver", "brute",
                        "--out", "{d}/s.json", "--hist-out", "{d}/./model.json"], "model.json"),
        "bench": (["bench", "--spec", "{d}/spec.json", "--out", "{d}/./spec.json"], "spec.json"),
        "bench-csv": (["bench", "--spec", "{d}/spec.json", "--out", "{d}/r.json",
                       "--csv-out", "{d}/./spec.json"], "spec.json"),
        "report": (["report", "--report", "{d}/report.json", "--out", "{d}/./report.json"],
                   "report.json"),
    }

    @pytest.mark.parametrize("command", _OVERWRITES)
    def test_output_that_names_an_input_refused_before_work(self, tmp_path, capsys, command):
        # every input is valid, so only the overwrite check stands between the command
        # and replacing its input: exit 2, every file's bytes unchanged and no new file
        inst, _ = write_instance(tmp_path, 2, 17)
        inst.save(tmp_path / "g_scale2.csv")  # an instance file under a per-scale CSV name
        (tmp_path / "model.json").write_text(
            json.dumps(build_formulation(inst, "baseline").to_dict()))
        _bench_report(tmp_path)  # spec.json and report.json
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv, input_name = self._OVERWRITES[command]
        assert main([arg.format(d=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and err.count("\n") == 1, err
        assert f"{input_name} would overwrite an input file" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_every_output_flag_has_an_overwrite_case(self):
        # every output flag of every command (a parsed argument named out or *_out) is
        # the one pointed at an input ("{d}/./") in some case of the test above
        commands = _parser()._subparsers._group_actions[0].choices
        flags = {(name, action.option_strings[0]) for name, sub in commands.items()
                 for action in sub._actions
                 if action.dest == "out" or action.dest.endswith("_out")}
        covered = {(argv[0], flag) for argv, _ in self._OVERWRITES.values()
                   for flag, value in zip(argv, argv[1:]) if value.startswith("{d}/./")}
        assert flags == covered

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
        assert data["spec"]["seed"] == 0

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

    @pytest.mark.parametrize("entries, err", [
        ({"formulations": ["baseline", "baseline"]}, "formulations must be distinct, got 'baseline' twice"),
        ({"scales": [1, 1.0]}, "scales must be distinct, got 1.0 twice"),
    ])
    def test_bench_repeated_spec_entry_exit_2(self, tmp_path, capsys, entries, err):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n": 2, "num_instances": 1, "seed": 0, **entries}))
        out = tmp_path / "r.json"
        with mock.patch("permqubo.bench.generate_instances") as generate:
            assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 2
        generate.assert_not_called()
        assert capsys.readouterr().err == f"error: {spec_path}: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"runs": None}, {"runs": 2.7}, {"sweeps": True}, {"shots": "5"}, {"slices": 2.0},
        {"steps": 1.5}, {"tau": None}, {"schedule": 5}, {"schedule": [1.0]},
        {"schedule": [1.0, 0.0]}, {"schedule": [1.0, None]},
    ])
    def test_bench_mistyped_solver_params_exit_2(self, tmp_path, capsys, params):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"n": 2, "num_instances": 1, "seed": 0, "solver": "sa", "solver_params": params}
        ))
        out = tmp_path / "r.json"
        assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "solver_params" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_gap_qubit_cap_refused_before_work(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 5, "num_instances": 1, "seed": 0, "solver": "sa", "gap_samples": 3,
            "solver_params": {"runs": 2, "sweeps": 1},
        }))
        out = tmp_path / "r.json"
        with mock.patch("permqubo.bench.permutation_extremes", wraps=permutation_extremes) as oracle:
            assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 4
        oracle.assert_not_called()
        assert "16-qubit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver, params", [("schrodinger", {"tau": 1e12}),
                                                ("trotter", {"slices": 10**9})])
    def test_bench_work_cap_refused_before_work(self, tmp_path, capsys, solver, params):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n": 2, "num_instances": 1, "seed": 0,
                                         "solver": solver, "solver_params": params}))
        out = tmp_path / "r.json"
        with mock.patch("permqubo.bench.permutation_extremes", wraps=permutation_extremes) as oracle:
            assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 4
        oracle.assert_not_called()
        assert "step-amplitude cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"runs": 0}, {"sweeps": 0}, {"shots": 0}, {"slices": 0}, {"steps": 0}, {"runs": -3},
        {"tau": -1.0}, {"tau": 0}, {"tau": float("inf")},
        *({key: bad} for key in ("runs", "sweeps", "shots", "slices", "steps")
          for bad in (-1, True, 2.5)),
        {"tau": float("nan")}, {"tau": True},
        *({"schedule": [1.0, bad]} for bad in (0, -1.0, float("nan"), float("inf"), True)),
        # Spec fields: every count, and n = 1 with the inserted formulation.
        *({"n": bad} for bad in (0, -1, True, 2.5)),
        *({"num_instances": bad} for bad in (0, -1, True, 2.5)),
        *({"seed": bad} for bad in (-1, True, 2.5)),
        *({"gap_samples": bad} for bad in (1, -1, -3, True, 2.5)),
        {"n": 1},
    ])
    def test_bench_solver_param_out_of_range_refused_before_work(self, tmp_path, capsys, params):
        (key, value), = params.items()
        spec = {"n": 2, "num_instances": 1, "seed": 0, "solver": "sa", "solver_params": {}}
        if key in SOLVER_DEFAULTS:
            spec["solver_params"][key] = value
        else:
            spec[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "r.json"
        with mock.patch("permqubo.bench.permutation_extremes", wraps=permutation_extremes) as oracle:
            assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 2
        oracle.assert_not_called()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: ") and re.search(rf"\b{key}\b", err), err
        assert "solver_params" in err or key not in SOLVER_DEFAULTS
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--n", "1"], ["--n", "0"]])
    def test_bench_preset_out_of_range_refused_before_work(self, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        with mock.patch("permqubo.bench.permutation_extremes", wraps=permutation_extremes) as oracle:
            assert main(["bench", "--preset", "random-dense", *flags, "--out", str(out)]) == 2
        oracle.assert_not_called()
        err = capsys.readouterr().err
        assert re.search(rf"\b{flags[0][2:]}\b", err) and err.count("\n") == 1, err
        assert not out.exists()

    def test_one_oracle_pass_per_instance(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n": 3, "num_instances": 3, "seed": 2, "formulations": ["baseline"], "solver": "brute",
        }))
        with mock.patch("permqubo.bench.permutation_extremes", wraps=permutation_extremes) as one_pass, \
                mock.patch("permqubo.qap.permutation_extremes", wraps=permutation_extremes) as wrapped:
            assert main(["bench", "--spec", str(spec_path), "--out", str(tmp_path / "r.json")]) == 0
        assert one_pass.call_count == 3
        wrapped.assert_not_called()

    def test_bench_missing_spec_exit_2(self, tmp_path):
        assert main(["bench", "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--spec", "spec.json", "--preset", "gap-scan", "--n", "2"],
        ["--spec", "spec.json", "--preset", "gap-scan"],
        ["--spec", "spec.json", "--n", "2"],
        ["--spec", "spec.json", "--seed", "99"],
    ])
    def test_bench_conflicting_inputs_refused_before_work(self, tmp_path, capsys, flags):
        (tmp_path / "spec.json").write_text(json.dumps({"n": 2, "num_instances": 1, "seed": 0}))
        flags = [str(tmp_path / f) if f == "spec.json" else f for f in flags]
        out = tmp_path / "r.json"
        with mock.patch("permqubo.cli.run_experiment") as run:
            assert main(["bench", *flags, "--out", str(out)]) == 2
        run.assert_not_called()
        captured = capsys.readouterr()
        assert captured.out == "" and "--" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

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


def _bench_report(tmp_path):
    """A valid two-formulation report written by `bench`, parsed back."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n": 2, "num_instances": 2, "seed": 1, "solver": "brute",
        "formulations": ["baseline", "inserted"], "scales": [1.0], "gap_samples": 3,
    }))
    report_path = tmp_path / "report.json"
    assert main(["bench", "--spec", str(spec_path), "--out", str(report_path)]) == 0
    return json.loads(report_path.read_text())


def _assert_refused(tmp_path, capsys, argv, path, before):
    """Exit 2, one `error: <path>: ...` line on stderr, and no new file."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    return err


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["build", "gap", "solve-instance", "solve-qubo",
                                         "bench", "report"])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2,\n  "W": [[1,')
        out = str(tmp_path / "out.json")
        argv = {
            "build": ["build", "--instance", str(bad), "--formulation", "baseline", "--out", out],
            "gap": ["gap", "--instance", str(bad), "--formulation", "baseline", "--out", out],
            "solve-instance": ["solve", "--instance", str(bad), "--solver", "brute", "--out", out],
            "solve-qubo": ["solve", "--qubo", str(bad), "--solver", "brute", "--out", out],
            "bench": ["bench", "--spec", str(bad), "--out", out],
            "report": ["report", "--report", str(bad), "--out", out],
        }[command]
        err = _assert_refused(tmp_path, capsys, argv, bad, ["bad.json"])
        assert "invalid JSON at line 2, column 12" in err

    @pytest.mark.parametrize("case", ["number", "aggregates-list", "aggregate-missing-field",
                                      "no-spec", "bad-spec", "result-valid-not-bool",
                                      "aggregate-nan", "aggregate-overflow"])
    @pytest.mark.parametrize("with_out", [True, False])
    def test_malformed_report_exit_2(self, tmp_path, capsys, case, with_out):
        data = _bench_report(tmp_path)
        capsys.readouterr()
        if case == "number":
            data = 5
        elif case == "aggregates-list":
            data["aggregates"] = []
        elif case == "aggregate-missing-field":
            del next(iter(data["aggregates"].values()))["mean_normalized_energy"]
        elif case == "no-spec":
            del data["spec"]
        elif case == "bad-spec":
            data["spec"]["scales"] = [0.0]
        elif case == "result-valid-not-bool":
            data["instances"][1]["results"][0]["valid"] = 1
        else:  # NaN, or a literal that parses to inf
            next(iter(data["aggregates"].values()))["mean_normalized_energy"] = float("nan")
        text = json.dumps(data)
        if case == "aggregate-overflow":
            text = text.replace("NaN", "1e999")
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ["report", "--report", str(bad)]
        if with_out:
            argv += ["--out", str(tmp_path / "tables.csv")]
        err = _assert_refused(tmp_path, capsys, argv, bad, before)
        if case in ("aggregate-nan", "aggregate-overflow"):
            assert "mean_normalized_energy must be finite" in err

    def test_report_prints_what_bench_prints(self, tmp_path, capsys):
        _bench_report(tmp_path)
        bench_out = capsys.readouterr().out
        assert "mean_min_gap=" in bench_out
        assert main(["report", "--report", str(tmp_path / "report.json")]) == 0
        assert capsys.readouterr().out == bench_out

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
    def test_non_finite_spec_number_exit_2(self, tmp_path, capsys, literal):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"n": 2, "num_instances": 1, "seed": 0, "solver": "schrodinger", '
                             f'"solver_params": {{"tau": {literal}}}}}')
        with mock.patch("permqubo.bench.permutation_extremes") as oracle:
            err = _assert_refused(tmp_path, capsys,
                                  ["bench", "--spec", str(spec_path), "--out", str(tmp_path / "r.json")],
                                  spec_path, ["spec.json"])
        oracle.assert_not_called()
        assert "solver_params field tau must be finite" in err

    @pytest.mark.parametrize("command, flags", [
        ("build", ["--scale", "nan"]), ("build", ["--scale", "inf"]),
        ("gap", ["--scales", "1,nan"]), ("gap", ["--scales", "inf,1"]),
        ("solve", ["--solver", "brute", "--scale", "-1"]),
        ("gap", ["--scales", "1e400"]), ("gap", ["--scales", "1,x"]), ("gap", ["--scales", ","]),
    ])
    def test_non_finite_scale_refused_before_work(self, tmp_path, capsys, command, flags):
        _, path = write_instance(tmp_path, 2, 20)
        out = tmp_path / "out.json"
        with mock.patch("permqubo.cli.gap_profile") as profile, \
                mock.patch("permqubo.cli.build_formulation") as builder:
            code = main([command, "--instance", str(path), "--formulation", "baseline",
                         *flags, "--out", str(out)])
        assert code == 2
        profile.assert_not_called()
        builder.assert_not_called()
        err = capsys.readouterr().err
        flag = flags[-2]  # each refusal names its flag
        assert err.count(f"{flag} must be finite and positive") == 1 and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["schrodinger", "trotter"])
    def test_qubo_over_the_solver_cap_refused_before_work(self, tmp_path, capsys, solver):
        _, path = write_zero_instance(tmp_path, 5)
        model_path = tmp_path / "m25.json"
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "s.json"
        with mock.patch("permqubo.bench.annealing_hamiltonian") as hamiltonians:
            code = main(["solve", "--qubo", str(model_path), "--solver", solver,
                         "--out", str(out)])
        assert code == 4
        hamiltonians.assert_not_called()
        assert "needs 25 qubits, over its 16-qubit cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("offset", [float("inf"), float("nan")])
    def test_non_finite_model_offset_exit_2(self, tmp_path, capsys, offset):
        _, path = write_instance(tmp_path, 2, 21)
        model_path = tmp_path / "model.json"
        assert main(["build", "--instance", str(path), "--formulation", "baseline",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        data = json.loads(model_path.read_text())
        data["offset"] = offset
        model_path.write_text(json.dumps(data))
        err = _assert_refused(tmp_path, capsys, ["solve", "--qubo", str(model_path), "--solver",
                                                 "brute", "--out", str(tmp_path / "s.json")],
                              model_path, ["inst.json", "model.json"])
        assert "offset must be finite" in err

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_overflowing_model_exit_2(self, tmp_path, capsys, solver):
        # each coefficient is finite, but 2 sum|Q| + sum|q| is not: refused with one
        # error line and no warning, where SA used to write "t_hi": Infinity
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"dim": 1, "formulation": "baseline", "n": 1,
                                          "Q": [[8e307]], "q": [1.5e308], "offset": 0.0}))
        err = _assert_refused(tmp_path, capsys, ["solve", "--qubo", str(model_path), "--solver",
                                                 solver, "--out", str(tmp_path / "s.json")],
                              model_path, ["model.json"])
        assert "must be finite" in err

    def test_wrong_type_names_the_element_not_the_value(self, tmp_path, capsys):
        inst, path = write_instance(tmp_path, 8, 22)
        data = inst.to_dict()
        data["W"][3][5] = "2.5"
        path.write_text(json.dumps(data))
        err = _assert_refused(tmp_path, capsys, ["solve", "--instance", str(path), "--solver",
                                                 "sa", "--out", str(tmp_path / "s.json")],
                              path, ["inst.json"])
        assert "field 'W' has the wrong type at W[3][5]: str" in err and len(err.encode()) < 200, err

    @pytest.mark.parametrize("params, message", [
        ({"tau": -1.0}, "solver_params tau must be finite and positive, got -1.0"),
        ({"schedule": [1.0, 0]}, "solver_params schedule must be finite and positive, got 0"),
    ])
    def test_spec_solver_param_refusal_names_the_key(self, tmp_path, capsys, params, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n": 2, "num_instances": 1, "seed": 0,
                                         "solver_params": params}))
        err = _assert_refused(tmp_path, capsys, ["bench", "--spec", str(spec_path),
                                                 "--out", str(tmp_path / "r.json")],
                              spec_path, ["spec.json"])
        assert err == f"error: {spec_path}: {message}\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--tau", "nan", "--tau must be finite and positive, got nan"),
        ("--steps", "0", "--steps must be an integer >= 1, got 0"),
        ("--shots", "-2", "--shots must be an integer >= 1, got -2"),
        ("--sweeps", "0", "--sweeps must be an integer >= 1, got 0"),
    ])
    def test_solver_flag_refusal_names_the_flag(self, tmp_path, capsys, flag, value, message):
        _, path = write_instance(tmp_path, 2, 23)
        with mock.patch("permqubo.bench._solve") as solve:
            code = main(["solve", "--instance", str(path), "--solver", "schrodinger",
                         flag, value, "--out", str(tmp_path / "s.json")])
        assert code == 2
        solve.assert_not_called()
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


_SA = ["--solver", "sa", "--runs", "8", "--sweeps", "2"]
_TROTTER = ["--solver", "trotter", "--tau", "1", "--slices", "4", "--shots", "10"]


@pytest.mark.parametrize("commands, krylov", [
    ([["build", "--instance", "inst.json", "--formulation", "baseline", "--out", "model.json"],
      ["solve", "--instance", "inst.json", "--formulation", "row_wise", *_SA, "--out", "sa.json"],
      ["solve", "--instance", "inst.json", "--formulation", "inserted", "--solver", "brute",
       "--out", "brute.json"],
      ["solve", "--instance", "inst.json", "--formulation", "baseline", *_TROTTER,
       "--out", "trotter.json"],
      ["bench", "--spec", "spec.json", "--out", "report.json"],
      ["report", "--report", "report.json", "--out", "report.csv"]], False),
    ([["gap", "--instance", "inst.json", "--formulation", "baseline", "--samples", "3",
       "--out", "gap.csv"]], True),
], ids=["no-krylov-solver", "gap"])
def test_only_krylov_commands_load_scipy(tmp_path, commands, krylov):
    # Importing scipy.linalg costs a process about ten times an n = 8 SA solve, so
    # only a Krylov solver's first call loads scipy's LAPACK.  Each case runs its
    # commands in one fresh interpreter and lists the scipy modules it then holds.
    write_instance(tmp_path, 2, 71)
    (tmp_path / "spec.json").write_text(json.dumps({
        "n": 2, "num_instances": 1, "seed": 0, "solver": "sa",
        "solver_params": {"runs": 8, "sweeps": 2}, "gap_samples": 0}))
    code = (
        "import sys\n"
        "from permqubo.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(permqubo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    if krylov:
        assert "scipy.linalg.lapack" in loaded
    else:
        assert loaded == []
