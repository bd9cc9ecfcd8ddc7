import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from strategies import zero_pair
from permqubo import (
    AnnealSchedule,
    ExperimentSpec,
    HamiltonianPair,
    QapInstance,
    QuboModel,
    SampleSet,
    SizeCapError,
    SpinModel,
    brute_force_qap,
    build_formulation,
    build_hamiltonians,
    enumerate_states,
    evolve,
    evolve_trotter,
    gap_profile,
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
from permqubo.bench import PRESETS, SOLVERS, _check_solver_size, _run_instance, _with_defaults
from permqubo.errors import SIZE_CAPS, WORK_CAPS, write_json
from permqubo.qubo import _model_dim


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
        # a repeated entry would be solved again and counted twice in its aggregate
        with pytest.raises(ValueError, match="^formulations must be distinct, got 'baseline' twice$"):
            ExperimentSpec(n=3, num_instances=1, seed=0, formulations=("baseline", "inserted",
                                                                       "baseline"))
        with pytest.raises(ValueError, match=r"^scales must be distinct, got 1\.0 twice$"):
            ExperimentSpec(n=3, num_instances=1, seed=0, scales=(1, 2.0, 1.0))
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

    def test_aggregate_keys_are_the_averaged_fields(self):
        # one averaged-field list: each aggregate holds its pair and the mean of each
        # averaged result field, over its non-null values (null when there are none)
        assert set(bench._AVERAGED) <= set(bench._RESULT_TYPES)
        for gap_samples in (0, 3):
            report = run_experiment(small_spec(num_instances=2, gap_samples=gap_samples))
            for k, agg in enumerate(report.aggregates.values()):
                assert set(agg) == {"formulation", "scale",
                                    *(f"mean_{key}" for key in bench._AVERAGED)}
                rows = [record["results"][k] for record in report.instances]
                assert (agg["formulation"], agg["scale"]) == (rows[0]["formulation"],
                                                              rows[0]["scale"])
                for key in bench._AVERAGED:
                    values = [r[key] for r in rows if r[key] is not None]
                    want = float(np.mean(values)) if values else None
                    assert agg[f"mean_{key}"] == want
            assert (agg["mean_min_gap"] is None) == (gap_samples == 0)
        assert bench._mean([1.0, None, 2.0]) == 1.5 and bench._mean([None, None]) is None

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

    def test_reproducible_and_parallel_identical(self, tmp_path):
        spec = small_spec(solver="sa", solver_params={"runs": 25, "sweeps": 10})
        write_json(tmp_path / "a.json", run_experiment(spec).to_dict())
        write_json(tmp_path / "b.json", run_experiment(spec, workers=1).to_dict())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        with pytest.raises(ValueError, match="workers"):
            run_experiment(spec, workers=2)

    def test_solver_size_caps(self):
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=9, num_instances=1, seed=0))
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=5, num_instances=1, seed=0, solver="brute",
                                          formulations=("baseline",)))
        with pytest.raises(SizeCapError):
            run_experiment(ExperimentSpec(n=5, num_instances=1, seed=0, solver="schrodinger",
                                          formulations=("baseline",)))

    def test_report_files(self, tmp_path):
        report = run_experiment(small_spec(num_instances=1))
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        write_json(json_path, report.to_dict())
        report.to_csv(csv_path)
        data = json.loads(json_path.read_text())
        assert data["provenance"]["seed"] == 7
        assert set(data) == {"spec", "instances", "aggregates", "provenance"}
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per (formulation, scale)


# Per group of solver-level entries: the SIZE_CAPS row they meet, the entries, each
# with the maker of its problem of a given size, and the smallest
# (n, formulation, solver, gap_samples) runs that meet the row.  Evolution shares the
# Hamiltonian's qubit cap.  The first entry of a row's own group is small at every
# run's size.
_CAP_ENTRIES = {
    "oracle": ("oracle", [(lambda n: QapInstance(n, np.zeros((n * n, n * n)), np.zeros(n * n)),
                           permutation_extremes)], [(9, "baseline", "sa", 0)]),
    "enumeration": ("enumeration", [(lambda dim: dim, enumerate_states)],
                    [(5, "baseline", "brute", 0)]),
    "evolution": ("hamiltonian",
                  [(zero_pair, lambda pair: evolve(pair, AnnealSchedule(tau=1.0, steps=1))),
                   (zero_pair,
                    lambda pair: evolve_trotter(pair, AnnealSchedule(tau=1.0), slices=1))],
                  [(5, "baseline", "schrodinger", 0), (5, "baseline", "trotter", 0)]),
    "hamiltonian": ("hamiltonian",
                    [(lambda m: SpinModel(np.zeros((m, m)), np.zeros(m), 0.0), build_hamiltonians)],
                    [(5, "baseline", "sa", 2)]),
}


def _refused_before_allocating(entry, problem) -> str:
    """The message with which ``entry`` refuses ``problem``, which must come before it
    allocates: an entry that ran would first allocate 52 KB or more (n = 9's oracle table)."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError) as refused:
            entry(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**15
    return str(refused.value)


@pytest.mark.parametrize("what", _CAP_ENTRIES)
def test_size_cap_refused_before_allocating(what):
    # each entry refuses one over its row's cap before allocating, the first entry of
    # that row's own group refuses each run that meets the cap alike, and bench's
    # up-front check refuses that run with the same message
    cap, entries, runs = _CAP_ENTRIES[what]
    for make, entry in entries:
        _refused_before_allocating(entry, make(SIZE_CAPS[cap][0] + 1))
    make, entry = _CAP_ENTRIES[cap][1][0]
    for n, formulation, solver, gap_samples in runs:
        dim = _model_dim(formulation, n)
        message = _refused_before_allocating(entry, make(n if cap == "oracle" else dim))
        with pytest.raises(SizeCapError) as bench_refused:
            _check_solver_size(solver, dim, n, gap_samples)
        assert str(bench_refused.value) == message


def test_cap_entries_cover_size_caps():
    # every SIZE_CAPS row has its own group of entries
    assert {cap for cap, _, _ in _CAP_ENTRIES.values()} == set(SIZE_CAPS)
    assert all(_CAP_ENTRIES[cap][0] == cap for cap in SIZE_CAPS)


# Per case at the qubit cap, 16: the solver, parameters that are the fewest over the
# evolution work cap (2048 charged steps of 2^16 amplitudes each), and the same with one
# charged step fewer.  A schrodinger step is charged once per substep its exponentials may
# take, and on a zero pair both evolve's half-width bound and the up-front one are m = 16,
# so one step of width tau takes ceil(tau * 16 / 8) = ceil(2 tau) substeps.
_WORK_CASES = {
    "schrodinger": ("schrodinger", {"tau": 1.0, "steps": 2049}, {"tau": 1.0, "steps": 2048}),
    "trotter": ("trotter", {"tau": 1.0, "slices": 2049}, {"tau": 1.0, "slices": 2048}),
    "schrodinger-substeps": ("schrodinger", {"tau": 1024.5, "steps": 1},
                             {"tau": 1024.0, "steps": 1}),
}


def _evolution_entry(solver: str, params: dict):
    """The state-vector solver's Python entry on a pair, at ``params``."""
    sched = AnnealSchedule(tau=params["tau"], steps=params.get("steps"))
    if solver == "schrodinger":
        return lambda pair: evolve(pair, sched)
    return lambda pair: evolve_trotter(pair, sched, slices=params["slices"])


@pytest.mark.parametrize("case", _WORK_CASES)
def test_work_cap_refused_before_allocating(case, monkeypatch):
    # the Python entry refuses the fewest charged steps over the work cap before it
    # allocates the 1-MB state or steps, bench's up-front check (for a spec and for solve)
    # refuses them with the same message, and one charged step fewer, and a single step,
    # pass that check
    solver, over, under = _WORK_CASES[case]
    m = SIZE_CAPS["hamiltonian"][0]
    assert (m, WORK_CAPS["evolution"][0] // 2**m) == (16, 2048)
    monkeypatch.setattr(anneal, "_propagate", lambda *args: pytest.fail("stepped"))
    monkeypatch.setattr(anneal, "_mixer_rotation", lambda *args: pytest.fail("stepped"))
    message = _refused_before_allocating(_evolution_entry(solver, over), zero_pair(m))
    with pytest.raises(SizeCapError) as bench_refused:
        _check_solver_size(solver, m, params=over)
    assert str(bench_refused.value) == message
    _check_solver_size(solver, m, params=under)
    _check_solver_size(solver, m, params={"tau": 1.0, "steps": 1, "slices": 1})


def test_work_cap_counts_substeps():
    # one step of a very long anneal would split into about 10^12 substeps
    with pytest.raises(SizeCapError, match="step-amplitude cap"):
        evolve(zero_pair(2), AnnealSchedule(tau=1e12, steps=1))
    errors.check_work("evolution", WORK_CAPS["evolution"][0])
    with pytest.raises(SizeCapError):
        errors.check_work("evolution", WORK_CAPS["evolution"][0] + 1)


@pytest.mark.parametrize("params", [{"tau": 1e308}, {"tau": 1.0, "steps": 10**400}])
def test_work_cap_charges_step_counts_beyond_the_float_range(params):
    # a step count beyond the float range (2.5e308 default steps, or 10^400 asked for)
    # is refused by the work cap, from evolve and up front, not by an OverflowError
    with pytest.raises(SizeCapError, match="over 1e"):
        evolve(zero_pair(2), AnnealSchedule(**params))
    with pytest.raises(SizeCapError, match="over 1e"):
        _check_solver_size("schrodinger", 2, params=params)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(m=st.integers(1, 10), lo=st.floats(-1e6, 0.0), spread=st.floats(0.0, 1e6),
       tau=st.floats(1e-3, 1e9), steps=st.one_of(st.none(), st.integers(1, 10**6)))
def test_up_front_cf4_charge_never_exceeds_evolves(m, lo, spread, tau, steps):
    # on any pair, bench's up-front check charges a schrodinger run at most what evolve
    # charges, so it refuses no run that evolve takes
    diagonal = np.full(2**m, lo)
    diagonal[-1] = lo + spread
    params = _with_defaults({"tau": tau, "steps": steps})
    charges = []
    with mock.patch.object(anneal, "_check_evolution_request",
                           lambda num_qubits, charged: charges.append(charged)), \
            mock.patch.object(anneal, "_step_through", lambda *args: None):
        SOLVERS["schrodinger"](m, params)
        evolve(HamiltonianPair(m, diagonal), AnnealSchedule(tau=tau, steps=steps))
    up_front, evolves = charges
    assert 0 < up_front <= evolves


def test_sa_work_cap_refused_before_allocating(monkeypatch):
    # On a 1-variable model, cap + 1 flip attempts (runs = cap + 1, one sweep) and
    # the fewest sweeps over the cap at one run (charged as the 2^10-run floor): the
    # Python entry refuses them before it draws or allocates, bench's up-front check
    # (for a spec and for solve) refuses them with the same message, and one run
    # or sweep fewer passes that check.
    cap = WORK_CAPS["sa"][0]
    model = build_formulation(QapInstance(1, np.zeros((1, 1)), np.zeros(1)), "baseline")
    assert model.dim == 1
    monkeypatch.setattr(anneal, "_estimate_t_hi", lambda *args: pytest.fail("started"))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("drew"))
    for runs, sweeps, key in ((cap + 1, 1, "runs"), (1, cap // 2**10 + 1, "sweeps")):
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
    # The fewest grid points over the gap work cap on a 1-qubit model (2 amplitudes
    # per point): gap_profile refuses them before it allocates its grid or runs an
    # eigensolve, bench's up-front check refuses them with the same message, one point
    # fewer passes that check, and a spec asking for them is refused before any
    # instance is priced.
    samples = WORK_CAPS["gap"][0] // 2 + 1
    monkeypatch.setattr(spectral, "two_lowest_eigenvalues", lambda *args: pytest.fail("solved"))
    monkeypatch.setattr(bench, "permutation_extremes", lambda *args: pytest.fail("priced"))
    model = QuboModel(dim=1, Q=np.zeros((1, 1)), q=np.zeros(1), offset=0.0,
                      formulation="baseline", n=1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError) as refused:
            gap_profile(model, num_samples=samples)
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


def _zero_model(dim):
    """The zero baseline model of dim = n^2 variables."""
    return QuboModel(dim=dim, Q=np.zeros((dim, dim)), q=np.zeros(dim), offset=0.0,
                     formulation="baseline", n=math.isqrt(dim))


# Per solver: its Python entry on a model of dim variables (a zero pair for a
# state-vector solver; for brute, the enumeration that holds its cap, so that dim need
# not be a square) and every solver parameter, and requests (dim, params) that are over
# one of its caps.
_SOLVER_ENTRIES = {
    "brute": (lambda dim, p: enumerate_states(dim), [(21, {})]),
    "sa": (lambda dim, p: anneal.simulated_annealing(_zero_model(dim), sweeps=p["sweeps"],
                                                     runs=p["runs"], seed=0),
           [(1, {"runs": 2**31 + 1, "sweeps": 1}), (4, {"runs": 1, "sweeps": 2**19 + 1})]),
    "schrodinger": (lambda dim, p: evolve(zero_pair(dim),
                                          AnnealSchedule(tau=p["tau"], steps=p["steps"])),
                    [(17, {"steps": 1}), (16, {"steps": 2049}), (1, {"tau": 2.0**27})]),
    "trotter": (lambda dim, p: evolve_trotter(zero_pair(dim), AnnealSchedule(tau=p["tau"]),
                                              slices=p["slices"]),
                [(17, {"slices": 1}), (16, {"slices": 2049}), (1, {"slices": 2**17 + 1})]),
}


@pytest.mark.parametrize("solver", SOLVERS)
def test_up_front_check_refuses_as_the_solver(solver, monkeypatch):
    # every solver's Python entry and bench's up-front check refuse each over-cap
    # request alike, as both call the solver's one request check; one under the caps
    # passes the up-front check
    for name in ("_estimate_t_hi", "_propagate", "_mixer_rotation"):
        monkeypatch.setattr(anneal, name, lambda *args: pytest.fail("started"))
    entry, requests = _SOLVER_ENTRIES[solver]
    for dim, params in requests:
        params = _with_defaults(params)
        with pytest.raises(SizeCapError) as refused:
            entry(dim, params)
        with pytest.raises(SizeCapError) as bench_refused:
            _check_solver_size(solver, dim, params=params)
        assert str(bench_refused.value) == str(refused.value)
    _check_solver_size(solver, 1, params={})


@pytest.mark.parametrize("solver, dim, params, gap_samples, solver_cap, gap_cap", [
    ("sa", 17, {"runs": 2**31, "sweeps": 1}, 2, "flip-attempt cap", "16-qubit cap"),
    ("trotter", 16, {"slices": 2049}, 17, "step-amplitude cap", "eigensolve-amplitude cap"),
])
def test_solver_request_refused_before_the_gap_request(solver, dim, params, gap_samples,
                                                       solver_cap, gap_cap):
    # a request over the solver's work cap that also asks for profiles over a cap of
    # theirs (17 qubits; 17 points at 16 qubits) is refused by the solver's own check,
    # which comes first; under the solver's caps, the gap request is refused
    with pytest.raises(SizeCapError, match=solver_cap):
        _check_solver_size(solver, dim, gap_samples=gap_samples, params=params)
    with pytest.raises(SizeCapError, match=gap_cap):
        _check_solver_size(solver, dim, gap_samples=gap_samples, params={})


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

    def test_editing_a_preset_spec_edits_no_preset(self):
        for name in PRESETS:
            held = dict(PRESETS[name].solver_params)
            spec = preset_spec(name)
            spec.solver_params["runs"] = 1
            assert PRESETS[name].solver_params == held
            assert preset_spec(name).solver_params == held

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
