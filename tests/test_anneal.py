import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings, strategies as st

import oracles
from permqubo import (
    AnnealSchedule,
    HamiltonianPair,
    QapInstance,
    SampleEntry,
    SampleSet,
    SpinModel,
    brute_force_qap,
    build_formulation,
    build_hamiltonians,
    decode,
    evolve,
    evolve_trotter,
    measure,
    most_frequent,
    simulated_annealing,
    success_probability,
    to_spin,
    vectorize,
)
from permqubo import anneal, permutation_extremes
from permqubo.errors import SizeCapError
from permqubo.qubo import QuboModel, enumerate_states, normalize_couplings
from strategies import adversarial_instances


def random_instance(n, seed):
    rng = np.random.default_rng(seed)
    m = n * n
    return QapInstance(n, rng.uniform(-1, 1, (m, m)), rng.uniform(-1, 1, m))


def zero_pair(m):
    return build_hamiltonians(SpinModel(Q_s=np.zeros((m, m)), q_s=np.zeros(m), offset_s=0.0))


class TestSchedule:
    def test_identity_path(self):
        sched = AnnealSchedule(tau=10.0)
        assert sched.path_value(0.0) == 0.0
        assert sched.path_value(0.5) == 0.5
        assert sched.path_value(1.0) == 1.0

    def test_plateau_break(self):
        sched = AnnealSchedule(tau=10.0, path=((0, 0), (0.4, 0.5), (0.6, 0.5), (1, 1)))
        assert sched.path_value(0.5) == 0.5
        assert sched.path_value(0.45) == 0.5

    def test_rejects_decreasing_path(self):
        with pytest.raises(ValueError):
            AnnealSchedule(tau=1.0, path=((0, 0), (0.5, 0.8), (1, 1), (1, 0.9)))
        with pytest.raises(ValueError):
            AnnealSchedule(tau=1.0, path=((0, 0.2), (1, 1)))

    def test_rejects_non_finite_breakpoints(self):
        nan = float("nan")
        for path in (((0, 0), (nan, 0.5), (1, 1)), ((0, 0), (0.5, nan), (1, 1))):
            with pytest.raises(ValueError, match="finite"):
                AnnealSchedule(tau=1.0, path=path)

    def test_rejects_nonpositive_tau(self):
        for tau in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                AnnealSchedule(tau=tau)

    def test_default_steps_scale_with_tau(self):
        assert AnnealSchedule(tau=1.0).effective_steps() == 100
        assert AnnealSchedule(tau=50.0).effective_steps() == 500


class TestEvolve:
    def test_stationary_mixer_ground_state(self):
        # zero problem Hamiltonian: H(t) is proportional to the mixer for
        # every u, so the uniform start state only picks up a phase
        pair = zero_pair(3)
        psi = evolve(pair, AnnealSchedule(tau=5.0, steps=120))
        probs = np.abs(psi) ** 2
        assert np.allclose(probs, 1.0 / 8.0, atol=1e-12)
        assert np.allclose(np.abs(psi), 1.0 / np.sqrt(8.0), atol=1e-12)

    def test_two_level_adiabatic_matches_dense_reference(self):
        pair = HamiltonianPair(1, np.array([0.0, 2.0]))
        sched = AnnealSchedule(tau=50.0, steps=500)
        psi = evolve(pair, sched)
        assert abs(psi[0]) ** 2 > 0.99
        ref = oracles.dense_propagator(pair, sched)
        assert np.abs(psi - ref).max() < 1e-10

    @pytest.mark.parametrize("num_qubits", [6, 8])
    @pytest.mark.parametrize("spread", [1.0, 30.0])
    def test_multi_qubit_matches_dense_reference(self, num_qubits, spread):
        # 200 small steps run one Krylov expansion each; 5 steps and a
        # single step split into many substeps
        rng = np.random.default_rng([num_qubits, int(spread)])
        pair = HamiltonianPair(num_qubits, rng.uniform(-spread, spread, 2**num_qubits))
        for sched in (AnnealSchedule(tau=10.0, steps=200), AnnealSchedule(tau=10.0, steps=5),
                      AnnealSchedule(tau=10.0, steps=1)):
            ref = oracles.dense_propagator(pair, sched)
            assert np.abs(evolve(pair, sched) - ref).max() < 1e-10

    def test_matvecs_per_step(self, monkeypatch):
        # about 11 products with H(u) per step on this pair; a fixed
        # 24-vector basis takes 28 (24 per substep)
        spin, _ = normalize_couplings(to_spin(build_formulation(random_instance(3, 82), "baseline")))
        pair = build_hamiltonians(spin)
        calls = []
        apply = HamiltonianPair.apply
        monkeypatch.setattr(HamiltonianPair, "apply",
                            lambda self, u, v: calls.append(u) or apply(self, u, v))
        sched = AnnealSchedule(tau=20.0)
        evolve(pair, sched)
        assert len(calls) < 16 * sched.effective_steps()

    def test_norm_conservation(self):
        inst = random_instance(3, 70)
        spin, _ = normalize_couplings(to_spin(build_formulation(inst, "inserted")))
        pair = build_hamiltonians(spin)
        norms = []
        evolve(pair, AnnealSchedule(tau=20.0), callback=lambda k, u, p, nm: norms.append(nm))
        assert max(abs(n - 1.0) for n in norms) < 1e-8

    def test_qubit_cap(self):
        with pytest.raises(SizeCapError):
            evolve(zero_pair(13), AnnealSchedule(tau=1.0, steps=2))

    def test_ground_state_probability_grows_with_tau(self):
        inst = random_instance(2, 71)
        model = build_formulation(inst, "baseline")
        spin, _ = normalize_couplings(to_spin(model))
        pair = build_hamiltonians(spin)
        gs = int(np.argmin(pair.problem_diagonal))
        probs = []
        for tau in (1.0, 10.0, 100.0):
            psi = evolve(pair, AnnealSchedule(tau=tau))
            probs.append(abs(psi[gs]) ** 2)
        assert probs[0] <= probs[1] + 1e-12
        assert probs[1] <= probs[2] + 1e-12


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       diag_spread=st.sampled_from([0.0, 1.0, 30.0]), dt_frac=st.floats(-1.0, 1.0))
def test_lanczos_expm_matches_expm(dim, seed, diag_spread, dt_frac):
    # random Hermitian H plus a diagonal of the given spread, and a step
    # with |dt| ||H|| up to the propagator's substep budget
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = (A + A.conj().T) / 2 + np.diag(rng.uniform(-diag_spread, diag_spread, dim))
    dt = dt_frac * anneal._STEP_BUDGET / np.linalg.norm(H, 2)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    got = anneal._lanczos_expm(lambda w: H @ w, v, dt)
    assert np.abs(got - scipy.linalg.expm(-1j * dt * H) @ v).max() < 1e-10


class TestTrotter:
    def test_frozen_diagonal_is_exact(self):
        pair = build_hamiltonians(
            SpinModel(Q_s=[[0.0, 0.25], [0.25, 0.0]], q_s=[0.3, -0.2], offset_s=0.1)
        )
        frozen = AnnealSchedule(tau=3.0, path=((0, 0), (0, 1), (1, 1)))
        for slices in (1, 7, 32):
            psi = evolve_trotter(pair, frozen, slices=slices)
            exact = np.exp(-1j * 3.0 * pair.problem_diagonal) * 0.5
            assert np.abs(psi - exact).max() < 1e-12

    def test_converges_to_continuous_evolution(self):
        pair = HamiltonianPair(1, np.array([0.0, 2.0]))
        sched = AnnealSchedule(tau=8.0, steps=400)
        target = np.abs(evolve(pair, sched)) ** 2
        coarse = np.abs(evolve_trotter(pair, sched, slices=16)) ** 2
        fine = np.abs(evolve_trotter(pair, sched, slices=256)) ** 2
        assert oracles.total_variation(fine, target) < 1e-3
        assert oracles.total_variation(fine, target) < oracles.total_variation(coarse, target)

    def test_short_time_suppresses_penalized_state(self):
        # one qubit whose |1> state breaks a sum-to-one constraint: even a
        # fast, heavily sliced pass pushes weight toward the feasible state
        pair = HamiltonianPair(1, np.array([0.0, 4.0]))
        psi = evolve_trotter(pair, AnnealSchedule(tau=0.1), slices=50)
        p = np.abs(psi) ** 2
        assert p[1] < p[0]

    def test_slices_validation(self):
        with pytest.raises(ValueError):
            evolve_trotter(zero_pair(1), AnnealSchedule(tau=1.0), slices=0)


class TestMeasure:
    def _flat_model(self, dim, n, formulation="baseline"):
        return QuboModel(dim=dim, Q=np.zeros((dim, dim)), q=np.zeros(dim), offset=0.0,
                         formulation=formulation, n=n)

    def test_uniform_state_frequencies(self):
        state = np.full(16, 0.25, dtype=complex)
        samples = measure(state, shots=10_000, seed=3, model=self._flat_model(4, 3, "inserted"))
        counts = {e.bits: e.count for e in samples.entries}
        assert samples.total == 10_000
        chi2 = scipy.stats.chisquare(
            [counts.get(tuple(b), 0) for b in enumerate_states(4).tolist()]
        )
        assert chi2.pvalue > 0.01

    def test_basis_state_all_shots_identical(self):
        state = np.zeros(16, dtype=complex)
        state[2] = 1.0  # bits (0, 1, 0, 0): bit 0 is the least significant
        samples = measure(state, shots=50, seed=4, model=self._flat_model(4, 2))
        assert len(samples.entries) == 1
        assert samples.entries[0].bits == (0, 1, 0, 0)
        assert samples.entries[0].count == 50

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        model = QuboModel(dim=4, Q=np.eye(4), q=np.ones(4), offset=0.5,
                          formulation="baseline", n=2)
        a = measure(state, shots=200, seed=9, model=model)
        b = measure(state, shots=200, seed=9, model=model)
        assert a.to_dict() == b.to_dict()

    def test_energy_bookkeeping(self):
        inst = random_instance(2, 72)
        model = build_formulation(inst, "baseline")
        rng = np.random.default_rng(6)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        samples = measure(state, shots=300, seed=10, model=model)
        for entry in samples.entries:
            recomputed = oracles.energy_loops(model.Q, model.q, entry.bits) + model.offset
            assert entry.energy == pytest.approx(recomputed, rel=1e-9)
            assert entry.valid == (decode(model, np.array(entry.bits)) is not None)

    def test_sorted_and_counts_sum(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=16)
        state = state / np.linalg.norm(state)
        model = build_formulation(random_instance(2, 73), "baseline")
        samples = measure(state, shots=500, seed=11, model=model)
        energies = [e.energy for e in samples.entries]
        assert energies == sorted(energies)
        assert sum(e.count for e in samples.entries) == 500


def integer_model(dim, formulation, n, seed):
    """Non-symmetric Q and q with integer entries in [-3, 3]."""
    rng = np.random.default_rng(seed)
    return QuboModel(dim=dim, Q=rng.integers(-3, 4, size=(dim, dim)), q=rng.integers(-3, 4, size=dim),
                     offset=1.0, formulation=formulation, n=n)


def float_model(dim, formulation, n, seed):
    """Non-symmetric Q and q with standard normal entries."""
    rng = np.random.default_rng(seed)
    return QuboModel(dim=dim, Q=rng.normal(size=(dim, dim)), q=rng.normal(size=dim),
                     offset=0.0, formulation=formulation, n=n)


class TestSimulatedAnnealing:
    def test_flat_landscape_reaches_zero(self):
        inst = QapInstance(2, np.zeros((4, 4)), np.zeros(4))
        model = build_formulation(inst, "baseline")
        samples = simulated_annealing(model, sweeps=10, runs=20, seed=1)
        assert all(e.energy == 0.0 for e in samples.entries)

    def test_deterministic_given_seed(self):
        model = build_formulation(random_instance(3, 74), "inserted")
        a = simulated_annealing(model, sweeps=30, runs=40, seed=2)
        b = simulated_annealing(model, sweeps=30, runs=40, seed=2)
        assert a.to_dict() == b.to_dict()

    def test_always_finds_optimum_on_tiny_instances(self):
        # the reduced n=2 model has a single variable: every state is one
        # flip away from every other, so long anneals cannot get stuck
        for seed in (75, 76):
            inst = random_instance(2, seed)
            model = build_formulation(inst, "inserted")
            samples = simulated_annealing(model, sweeps=10_000, runs=50, seed=3)
            assert success_probability(samples, inst).probability == 1.0

    def test_fixed_temperature_gibbs_distribution(self):
        # tiny model sampled at constant temperature: final states over
        # many runs follow the Gibbs weights exactly enumerable here
        rng = np.random.default_rng(12)
        Q = rng.normal(scale=0.4, size=(4, 4))
        Q = (Q + Q.T) / 2
        model = QuboModel(dim=4, Q=Q, q=rng.normal(scale=0.4, size=4), offset=0.0,
                          formulation="baseline", n=2)
        T = 1.5
        samples = simulated_annealing(model, sweeps=50, runs=2000, seed=4, schedule=(T, T))
        states = enumerate_states(4)
        weights = np.exp(-model.energies(states) / T)
        expected = 2000 * weights / weights.sum()
        observed = np.zeros(16)
        for e in samples.entries:
            idx = sum(b << i for i, b in enumerate(e.bits))
            observed[idx] = e.count
        chi2 = scipy.stats.chisquare(observed, expected)
        assert chi2.pvalue > 0.01

    @pytest.mark.parametrize("make_model, sweeps, runs, schedule", [
        (lambda: integer_model(9, "baseline", 3, 81), 6, 20, (4.0, 0.2)),
        (lambda: integer_model(9, "inserted", 4, 82), 1, 20, None),
        (lambda: float_model(4, "baseline", 2, 83), 1, 17, (1.5, 0.1)),
        (lambda: float_model(9, "row_wise", 3, 84), 5, 20, (2.0, 0.05)),
        (lambda: build_formulation(random_instance(3, 85), "inserted"), 8, 20, None),
        (lambda: build_formulation(random_instance(3, 86), "baseline"), 3, 11, None),
    ], ids=["int-baseline", "int-inserted-1-sweep", "float-baseline-1-sweep", "float-row_wise",
            "built-inserted", "built-baseline"])
    def test_final_states_match_scalar_loop_oracle(self, make_model, sweeps, runs, schedule):
        # same per-run draws, one flip decision at a time with loop energies
        model = make_model()
        samples = simulated_annealing(model, sweeps=sweeps, runs=runs, seed=5, schedule=schedule)
        expected = Counter(oracles.sa_loops(model, sweeps=sweeps, runs=runs, seed=5, schedule=schedule))
        assert {e.bits: e.count for e in samples.entries} == dict(expected)

    def test_validation(self):
        model = build_formulation(random_instance(2, 77), "baseline")
        with pytest.raises(ValueError):
            simulated_annealing(model, sweeps=0, runs=1, seed=0)
        with pytest.raises(ValueError):
            simulated_annealing(model, sweeps=1, runs=1, seed=0, schedule=(0.0, 1.0))

    def test_rejects_non_finite_temperatures(self):
        model = build_formulation(random_instance(2, 77), "baseline")
        for schedule in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="finite"):
                simulated_annealing(model, sweeps=2, runs=1, seed=0, schedule=schedule)


class TestSuccessAndSampleSet:
    def test_random_guess_reference_exact(self):
        inst3 = random_instance(3, 78)
        model = build_formulation(inst3, "baseline")
        bits, _ = np.zeros(9, dtype=int), None
        entry = SampleEntry(bits=tuple(bits), energy=0.0, count=1, valid=False, assignment=None)
        samples = SampleSet(entries=[entry], total=1)
        report = success_probability(samples, inst3)
        assert report.reference == Fraction(1, 6)
        inst4 = random_instance(4, 79)
        entry4 = SampleEntry(bits=(0,) * 16, energy=0.0, count=1, valid=False, assignment=None)
        report4 = success_probability(SampleSet(entries=[entry4], total=1), inst4)
        assert report4.reference == Fraction(1, 24)
        assert float(report4.reference) == pytest.approx(0.0417, abs=5e-5)

    def test_all_optimal_sample_set(self):
        inst = random_instance(3, 80)
        best, _ = brute_force_qap(inst)
        model = build_formulation(inst, "baseline")
        bits = vectorize(best)
        entry = SampleEntry(
            bits=tuple(int(b) for b in bits), energy=model.energy(bits), count=7,
            valid=True, assignment=tuple(int(a) for a in best.assignment),
        )
        report = success_probability(SampleSet(entries=[entry], total=7), inst)
        assert report.probability == 1.0

    def test_most_frequent_tiebreak(self):
        entries = [
            SampleEntry(bits=(1, 0), energy=2.0, count=5, valid=True, assignment=(0, 1)),
            SampleEntry(bits=(0, 1), energy=1.0, count=5, valid=True, assignment=(1, 0)),
            SampleEntry(bits=(1, 1), energy=3.0, count=4, valid=False, assignment=None),
        ]
        samples = SampleSet(entries=entries, total=14)
        assert most_frequent(samples).bits == (0, 1)  # lower energy wins the tie

    def test_sampleset_json_and_histogram(self, tmp_path):
        inst = random_instance(2, 81)
        model = build_formulation(inst, "baseline")
        samples = simulated_annealing(model, sweeps=20, runs=30, seed=5)
        data = json.loads(json.dumps(samples.to_dict()))
        assert data["total"] == 30
        assert data["metadata"]["model_hash"] == model.content_hash()
        energies = [e["energy"] for e in data["entries"]]
        assert energies == sorted(energies)
        hist = tmp_path / "hist.csv"
        samples.histogram_csv(hist)
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "energy_bin,count,valid_count"
        assert len(lines) == 1 + anneal.HISTOGRAM_BINS
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 30

    def test_counts_must_sum(self):
        entry = SampleEntry(bits=(0,), energy=0.0, count=2, valid=True, assignment=(0,))
        with pytest.raises(ValueError):
            SampleSet(entries=[entry], total=3)


@st.composite
def priced_sample_sets(draw):
    """(instance, f_opt, f_worst, sample set) for n = 1..5.

    The entries mix invalid states, repeated optima, the worst permutation
    and arbitrary permutations.  Counts and energies come from small
    ranges, so the modal entry is often decided by a tie-break.
    """
    inst = draw(adversarial_instances(sizes=(1, 2, 3, 4, 5)))
    best, f_opt, worst, f_worst = permutation_extremes(inst)
    kinds = draw(st.lists(st.sampled_from(("invalid", "optimum", "worst", "any")), min_size=1, max_size=8))
    entries = []
    for k, kind in enumerate(kinds):
        if kind == "any":
            assignment = tuple(draw(st.permutations(range(inst.n))))
        else:
            assignment = {"invalid": None, "optimum": tuple(best.assignment.tolist()),
                          "worst": tuple(worst.assignment.tolist())}[kind]
        entries.append(SampleEntry(
            bits=(k,), energy=draw(st.sampled_from((-1.0, 0.0, 1.0))), count=draw(st.integers(1, 3)),
            valid=assignment is not None, assignment=assignment,
        ))
    return inst, f_opt, f_worst, SampleSet(entries=entries, total=sum(e.count for e in entries))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(drawn=priced_sample_sets())
def test_batched_pricing_matches_per_entry_oracle(drawn):
    inst, f_opt, f_worst, samples = drawn
    modal, normalized, success, valid, probability = oracles.price_per_entry(samples, inst, f_opt, f_worst)
    priced = anneal.price(samples, inst, f_opt, f_worst)
    assert priced.most_frequent is modal
    assert (priced.success, priced.valid, priced.report.probability) == (success, valid, probability)
    # Relative to the largest |energy| any state can have.
    scale = float(np.abs(inst.W).sum() + np.abs(inst.c).sum())
    assert abs(priced.normalized_energy - normalized) <= 1e-12 * scale
    assert priced.normalized_energy >= 0.0  # f_opt is the minimum; ulps below it are clamped
    assert success_probability(samples, inst, f_opt).probability == probability
    assert success_probability(samples, inst).probability == probability


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 5), data=st.data())
def test_pricing_refuses_assignment_that_is_no_permutation(n, data):
    inst = random_instance(n, 90)
    _, f_opt, _, f_worst = permutation_extremes(inst)
    perm = list(data.draw(st.permutations(range(n))))
    bad = data.draw(st.sampled_from(("long", "short", "out_of_range", "repeated")))
    if bad == "long":
        perm.append(0)
    elif bad == "short":
        perm.pop()
    else:
        p = data.draw(st.integers(0, n - 1))
        choices = (-1, n) if bad == "out_of_range" or n == 1 else (perm[(p + 1) % n],)
        perm[p] = data.draw(st.sampled_from(choices))
    entries = [SampleEntry(bits=(0,), energy=0.0, count=1, valid=True, assignment=tuple(perm))]
    if data.draw(st.booleans()):
        entries.append(SampleEntry(bits=(1,), energy=0.0, count=1, valid=True,
                                   assignment=tuple(range(n))))
    samples = SampleSet(entries=entries, total=len(entries))
    with pytest.raises(ValueError):
        anneal.price(samples, inst, f_opt, f_worst)
    with pytest.raises(ValueError):
        success_probability(samples, inst, f_opt)
