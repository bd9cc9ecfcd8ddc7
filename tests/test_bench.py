import itertools
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from permqubo import (
    AnnealSchedule,
    ExperimentSpec,
    HamiltonianPair,
    QapInstance,
    SampleSet,
    SizeCapError,
    SpinModel,
    brute_force_qap,
    build_formulation,
    build_hamiltonians,
    enumerate_states,
    evolve,
    evolve_trotter,
    generate_instances,
    mean_color_sorting_instance,
    permutation_extremes,
    preset_spec,
    qap_energy,
    run_experiment,
    vectorize,
    worst_permutation,
)
from permqubo import anneal, bench, errors, spectral
from permqubo.anneal import _evolution_work, _sa_work
from permqubo.bench import PRESETS, _check_solver_size, _run_instance
from permqubo.errors import SIZE_CAPS, WORK_CAPS
from permqubo.qubo import _model_dim
from permqubo.spectral import _gap_work, spectral_gap


def small_spec(**overrides):
    base = dict(
        n=3, num_instances=2, seed=7,
        formulations=("baseline", "row_wise", "inserted"),
        scales=(1.0,), solver="brute",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestGeneration:
    def test_exact_sparsity_counts_n4(self):
        # half / three quarters of the 272 cost entries forced to zero
        for sparsity, zeros in ((0.5, 136), (0.75, 204)):
            spec = ExperimentSpec(n=4, num_instances=3, seed=1, sparsity=sparsity)
            for inst in generate_instances(spec):
                count = int((inst.W == 0).sum() + (inst.c == 0).sum())
                assert count == zeros

    def test_same_seed_same_instances(self):
        a = generate_instances(small_spec())
        b = generate_instances(small_spec())
        for x, y in zip(a, b):
            assert np.array_equal(x.W, y.W)
            assert np.array_equal(x.c, y.c)

    def test_entries_in_unit_interval(self):
        inst = generate_instances(small_spec(num_instances=1))[0]
        assert np.all(np.abs(inst.W) <= 1.0)
        assert np.all(np.abs(inst.c) <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n=3, num_instances=1, seed=0, sparsity=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(n=3, num_instances=1, seed=0, scales=())
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="scale must be finite and positive"):
                ExperimentSpec(n=3, num_instances=1, seed=0, scales=(1.0, bad))
        with pytest.raises(ValueError, match=r"\('brute', 'sa', 'schrodinger', 'trotter'\)$"):
            ExperimentSpec(n=3, num_instances=1, seed=0, solver="quantum")
        with pytest.raises(ValueError):
            ExperimentSpec(n=3, num_instances=1, seed=0, formulations=("magic",))
        with pytest.raises(ValueError):
            ExperimentSpec(n=3, num_instances=1, seed=0, solver_params=None)
        for schedule in (5, [1.0]):
            with pytest.raises(ValueError, match="schedule must be null or two temperatures"):
                ExperimentSpec(n=3, num_instances=1, seed=0, solver_params={"schedule": schedule})
        with pytest.raises(ValueError, match="sweepz"):
            ExperimentSpec(n=3, num_instances=1, seed=0, solver="sa", solver_params={"sweepz": 1})
        # a key another solver reads is accepted
        ExperimentSpec(n=3, num_instances=1, seed=0, solver="schrodinger", solver_params={"runs": 2})

    def test_typed_solver_params_accepted(self):
        params = {"runs": 2, "sweeps": 3, "shots": 4, "slices": 5, "steps": None, "tau": 5,
                  "schedule": [2, 0.5]}
        spec = ExperimentSpec.from_dict({"n": 2, "num_instances": 1, "seed": 0, "solver_params": params})
        assert spec.solver_params == params
        ExperimentSpec.from_dict({"n": 2, "num_instances": 1, "seed": 0,
                                  "solver_params": {"steps": 7, "schedule": None, "tau": 0.5}})


class TestRunExperiment:
    def test_brute_solver_is_exact(self):
        report = run_experiment(small_spec())
        for agg in report.aggregates.values():
            assert agg["mean_normalized_energy"] == pytest.approx(0.0, abs=1e-9)
            assert agg["mean_success"] == 1.0
            assert agg["mean_success_fraction"] == 1.0

    def test_normalized_energy_floor(self):
        spec = small_spec(solver="sa", solver_params={"runs": 30, "sweeps": 5})
        report = run_experiment(spec)
        for record in report.instances:
            for res in record["results"]:
                assert res["normalized_energy"] >= -1e-9
                if res["success"]:
                    assert res["normalized_energy"] <= 1e-9

    def test_optimal_result_priced_exactly_zero(self):
        # f_opt and the result's own energy sum in different orders; on this
        # instance the difference is -4.44e-16 unless pricing clamps it
        spec = small_spec(num_instances=1, seed=2)
        report = run_experiment(spec)
        for res in report.instances[0]["results"]:
            assert res["success"]
            assert res["normalized_energy"] == 0.0

    def test_worst_permutation_pricing(self):
        # an all-invalid sample set must be charged the worst permutation
        spec = small_spec(num_instances=1)
        inst = generate_instances(spec)[0]
        _, f_opt = brute_force_qap(inst)
        _, f_worst = worst_permutation(inst)

        from unittest import mock

        # one all-zero state, which encodes no permutation
        invalid = SampleSet.from_states(build_formulation(inst, "baseline"), np.zeros((1, 9), dtype=int),
                                        np.ones(1, dtype=int), {})
        with mock.patch("permqubo.bench._solve", return_value=invalid):
            record = _run_instance(spec, 0, inst)
        for res in record["results"]:
            assert res["normalized_energy"] == pytest.approx(f_worst - f_opt, rel=1e-12)
            assert not res["success"]

    def test_gap_column_populated_when_requested(self):
        spec = small_spec(num_instances=1, formulations=("inserted",), gap_samples=9)
        report = run_experiment(spec)
        res = report.instances[0]["results"][0]
        assert res["min_gap"] is not None and res["min_gap"] > 0

    def test_sparsity_keeps_penalty_connectivity(self):
        dense = generate_instances(small_spec(num_instances=1))[0]
        sparse = generate_instances(small_spec(num_instances=1, sparsity=0.5))[0]
        md, ms = build_formulation(dense, "baseline"), build_formulation(sparse, "baseline")
        pattern_d = (md.Q - (dense.W + dense.W.T) / 2) != 0
        pattern_s = (ms.Q - (sparse.W + sparse.W.T) / 2) != 0
        assert np.array_equal(pattern_d, pattern_s)

    def test_reproducible_and_parallel_identical(self):
        spec = small_spec(solver="sa", solver_params={"runs": 25, "sweeps": 10})
        assert run_experiment(spec).to_json() == run_experiment(spec, workers=1).to_json()
        with pytest.raises(ValueError, match="workers"):
            run_experiment(spec, workers=2)

    def test_solver_size_caps(self):
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=9, num_instances=1, seed=0))
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=5, num_instances=1, seed=0, solver="brute",
                                          formulations=("baseline",)))
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=4, num_instances=1, seed=0, solver="schrodinger",
                                          formulations=("baseline",)))

    def test_report_files(self, tmp_path):
        report = run_experiment(small_spec(num_instances=1))
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        report.save(json_path)
        report.to_csv(csv_path)
        data = json.loads(json_path.read_text())
        assert data["provenance"]["seed"] == 7
        assert set(data) == {"spec", "instances", "aggregates", "provenance"}
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per (formulation, scale)


def _zero_pair(m):
    return HamiltonianPair(m, np.zeros(2**m))


# Per cap: a problem of a given size, the solver-level entries that meet the
# cap on it, and the smallest (n, formulation, solver, gap_samples) run that meets it.
_CAP_ENTRIES = {
    "oracle": (lambda n: QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n)),
               [permutation_extremes], (9, "baseline", "sa", 0)),
    "enumeration": (lambda dim: dim, [enumerate_states], (5, "baseline", "brute", 0)),
    "evolution": (_zero_pair,
                  [lambda pair: evolve(pair, AnnealSchedule(tau=1.0, steps=1)),
                   lambda pair: evolve_trotter(pair, AnnealSchedule(tau=1.0), slices=1)],
                  (4, "baseline", "trotter", 0)),
    "hamiltonian": (lambda m: SpinModel(np.zeros((m, m)), np.zeros(m), 0.0),
                    [build_hamiltonians], (5, "baseline", "sa", 2)),
}


@pytest.mark.parametrize("what", SIZE_CAPS)
def test_size_cap_refused_before_allocating(what):
    # each entry refuses one over its cap, and the run that meets the cap,
    # before allocating; bench's up-front check refuses that run alike
    make, entries, (n, formulation, solver, gap_samples) = _CAP_ENTRIES[what]
    run_size = n if what == "oracle" else _model_dim(formulation, n)
    for entry in entries:
        for size in (SIZE_CAPS[what][0] + 1, run_size):
            problem = make(size)
            tracemalloc.start()
            try:
                with pytest.raises(SizeCapError) as refused:
                    entry(problem)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # an entry that ran would first allocate 52 KB or more (n = 9's oracle table)
            assert peak < 2**15
        with pytest.raises(SizeCapError) as bench_refused:
            _check_solver_size(solver, _model_dim(formulation, n), n, gap_samples)
        assert str(bench_refused.value) == str(refused.value)


# Per state-vector solver: the parameter that sets its steps, and its Python entry.
_WORK_ENTRIES = {
    "schrodinger": ("steps", lambda pair, steps: evolve(pair, AnnealSchedule(tau=1.0, steps=steps))),
    "trotter": ("slices",
                lambda pair, steps: evolve_trotter(pair, AnnealSchedule(tau=1.0), slices=steps)),
}


@pytest.mark.parametrize("solver", _WORK_ENTRIES)
def test_work_cap_refused_before_allocating(solver, monkeypatch):
    # the fewest steps over the evolution work cap on a 12-qubit model: the
    # Python entry refuses them before it allocates the 64-KB state or steps,
    # bench's up-front check (for a spec and for solve) refuses them with the
    # same message, and one step fewer passes that check
    key, entry = _WORK_ENTRIES[solver]
    steps = WORK_CAPS["evolution"][0] // _evolution_work(1, 12) + 1
    monkeypatch.setattr(anneal, "_propagate", lambda *args: pytest.fail("stepped"))
    monkeypatch.setattr(anneal, "_mixer_rotation", lambda *args: pytest.fail("stepped"))
    pair = _zero_pair(12)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError) as refused:
            entry(pair, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**15
    with pytest.raises(SizeCapError) as bench_refused:
        _check_solver_size(solver, 12, params={key: steps})
    assert str(bench_refused.value) == str(refused.value)
    _check_solver_size(solver, 12, params={key: steps - 1})


def test_work_cap_counts_substeps():
    # one step of a very long anneal would split into about 10^12 substeps
    with pytest.raises(SizeCapError, match="step-amplitude cap"):
        evolve(_zero_pair(2), AnnealSchedule(tau=1e12, steps=1))
    errors.check_work("evolution", WORK_CAPS["evolution"][0])
    with pytest.raises(SizeCapError):
        errors.check_work("evolution", WORK_CAPS["evolution"][0] + 1)


def test_sa_work_cap_refused_before_allocating(monkeypatch):
    # On a 1-variable model, cap + 1 flip attempts (runs = cap + 1, one sweep) and
    # the fewest sweeps over the cap at one run (charged as 2^10 runs): the Python
    # entry refuses them before it draws or allocates, bench's up-front check
    # (for a spec and for solve) refuses them with the same message, and one run
    # or sweep fewer passes that check.
    cap = WORK_CAPS["sa"][0]
    model = build_formulation(QapInstance(1, np.zeros((1, 1)), np.zeros(1)), "baseline")
    assert model.dim == 1 and _sa_work(cap + 1, 1, 1) == cap + 1
    monkeypatch.setattr(anneal, "_estimate_t_hi", lambda *args: pytest.fail("started"))
    monkeypatch.setattr(anneal, "dgemm", lambda *args, **kwargs: pytest.fail("swept"))
    for runs, sweeps, key in ((cap + 1, 1, "runs"), (1, cap // _sa_work(1, 1, 1) + 1, "sweeps")):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError) as refused:
                anneal.simulated_annealing(model, sweeps=sweeps, runs=runs, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**15
        assert "flip-attempt cap" in str(refused.value)
        params = {"runs": runs, "sweeps": sweeps}
        with pytest.raises(SizeCapError) as bench_refused:
            _check_solver_size("sa", 1, params=params)
        assert str(bench_refused.value) == str(refused.value)
        _check_solver_size("sa", 1, params={**params, key: params[key] - 1})
    with pytest.raises(SizeCapError, match="flip-attempt cap"):
        run_experiment(ExperimentSpec(n=1, num_instances=1, seed=0, formulations=("baseline",),
                                      solver="sa", solver_params={"runs": cap + 1, "sweeps": 1}))


def test_gap_work_cap_refused_before_allocating(monkeypatch):
    # The fewest grid points over the gap work cap on a 1-qubit pair: spectral_gap
    # refuses them before it allocates its grid or runs an eigensolve, bench's
    # up-front check refuses them with the same message, one point fewer passes
    # that check, and a spec asking for them is refused before any instance is priced.
    samples = WORK_CAPS["gap"][0] // _gap_work(1, 1) + 1
    monkeypatch.setattr(spectral, "two_lowest_eigenvalues", lambda *args: pytest.fail("solved"))
    monkeypatch.setattr(bench, "permutation_extremes", lambda *args: pytest.fail("priced"))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError) as refused:
            spectral_gap(_zero_pair(1), num_samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**15
    assert "eigensolve-amplitude cap" in str(refused.value)
    with pytest.raises(SizeCapError) as bench_refused:
        _check_solver_size("brute", 1, gap_samples=samples)
    assert str(bench_refused.value) == str(refused.value)
    _check_solver_size("brute", 1, gap_samples=samples - 1)
    with pytest.raises(SizeCapError, match="eigensolve-amplitude cap"):
        run_experiment(ExperimentSpec(n=2, num_instances=1, seed=0, formulations=("inserted",),
                                      gap_samples=samples))


class TestColorSorting:
    def test_identical_colors_fully_degenerate(self):
        inst = mean_color_sorting_instance([[0.2, 0.4, 0.6]] * 4, grid_side=2)
        energies = {
            qap_energy(inst, vectorize_perm(a))
            for a in itertools.permutations(range(4))
        }
        assert len({round(e, 10) for e in energies}) == 1

    def test_grid_matched_colors_identity_optimal(self):
        # colors laid out so their pairwise distances equal the grid distances
        colors = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        inst = mean_color_sorting_instance(colors, grid_side=2)
        perm, f_opt = brute_force_qap(inst)
        assert f_opt == pytest.approx(0.0, abs=1e-12)
        assert perm.assignment.tolist() == [0, 1, 2, 3]

    def test_random_colors_match_four_index_oracle(self):
        rng = np.random.default_rng(9)
        colors = rng.uniform(0, 1, (4, 3))
        inst = mean_color_sorting_instance(colors, grid_side=2)
        _, f_opt = brute_force_qap(inst)
        diff = colors[:, None, :] - colors[None, :, :]
        d1 = np.sqrt((diff**2).sum(axis=2))
        coords = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=float)
        gdiff = coords[:, None, :] - coords[None, :, :]
        d2 = np.sqrt((gdiff**2).sum(axis=2))
        oracle_best = min(
            oracles.isometric_energy_loops(d1, d2, a)
            for a in itertools.permutations(range(4))
        )
        assert f_opt == pytest.approx(oracle_best, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_color_sorting_instance([[0, 0, 0]] * 3, grid_side=2)


def vectorize_perm(assignment):
    from permqubo import PermutationMatrix

    return vectorize(PermutationMatrix(len(assignment), list(assignment)))


class TestSpecIoAndPresets:
    def test_spec_json_roundtrip(self, tmp_path):
        spec = small_spec(solver="sa", solver_params={"runs": 10, "sweeps": 5}, gap_samples=9)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        back = ExperimentSpec.load(path)
        assert back.to_dict() == spec.to_dict()

    def test_presets_instantiate(self):
        for name in PRESETS:
            spec = preset_spec(name, seed=3)
            assert spec.num_instances == 10
            # within every size and work cap (gap-scan's profiles charge 33 * 2^9)
            top = max(_model_dim(f, spec.n) for f in spec.formulations)
            _check_solver_size(spec.solver, top, spec.n, spec.gap_samples, spec.solver_params)
        spec = preset_spec("gap-scan", n=2)
        assert spec.n == 2 and spec.gap_samples > 0

    def test_unknown_spec_key_rejected(self):
        data = {"n": 2, "num_instances": 1, "seed": 0, "gap_sample": 5, "solvr": "sa"}
        with pytest.raises(ValueError, match=r"\['gap_sample', 'solvr'\]"):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize("data", [
        5,
        ["n", 2],
        {"n": None, "num_instances": 1, "seed": 0},
        {"n": 2.5, "num_instances": 1, "seed": 0},
        {"n": 2, "num_instances": True, "seed": 0},
        {"n": 2, "num_instances": 1, "seed": 0, "scales": "1.0"},
        {"n": 2, "num_instances": 1, "seed": 0, "scales": [1.0, None]},
        {"n": 2, "num_instances": 1, "seed": 0, "formulations": "baseline"},
        {"n": 2, "num_instances": 1, "seed": 0, "gap_samples": "9"},
    ])
    def test_mistyped_spec_rejected(self, data):
        with pytest.raises(ValueError, match="experiment spec"):
            ExperimentSpec.from_dict(data)

    def test_bench_spec_with_unknown_key_exits_2(self, tmp_path, capsys):
        from permqubo.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n": 2, "num_instances": 1, "seed": 0, "solvr": "sa"}))
        out = tmp_path / "report.json"
        assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "solvr" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_spec("fig-unknown")
