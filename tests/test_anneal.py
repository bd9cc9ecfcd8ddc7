import dataclasses
import functools
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import ceil

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
    annealing_hamiltonian,
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
    vectorize,
)
from permqubo import anneal, permutation_extremes
from permqubo.errors import SizeCapError, SolverError
from permqubo.qubo import QuboModel, enumerate_states
from strategies import (adversarial_instances, adversarial_model_coefficients, build_model,
                        coefficient_mass, random_instance, zero_pair)


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
        assert AnnealSchedule(tau=1.0).effective_steps() == 25
        assert AnnealSchedule(tau=50.0).effective_steps() == 125
        assert AnnealSchedule(tau=50.0).segments() == [(0.0, 1.0, 125)]

    def test_grid_aligned_to_breakpoints(self):
        # each piece between distinct breakpoints gets its share of the
        # steps, and at least one; a jump (repeated s) adds no piece
        plateau = AnnealSchedule(tau=20.0, path=((0, 0), (0.45, 0.5), (0.55, 0.5), (1, 1)))
        assert [(a, b) for a, b, _ in plateau.segments()] == [(0.0, 0.45), (0.45, 0.55),
                                                              (0.55, 1.0)]
        assert plateau.effective_steps() == 50
        assert [n for _, _, n in AnnealSchedule(tau=1.0, path=plateau.path, steps=4).segments()] \
            == [2, 1, 2]
        jump = AnnealSchedule(tau=1.0, path=((0, 0), (0.5, 0), (0.5, 1), (1, 1)), steps=7)
        assert jump.segments() == [(0.0, 0.5, 4), (0.5, 1.0, 3)]


class TestEvolve:
    def test_stationary_mixer_ground_state(self):
        # zero problem Hamiltonian: H(t) is proportional to the mixer for
        # every u, so the uniform start state only picks up a phase
        pair = zero_pair(3)
        psi = evolve(pair, AnnealSchedule(tau=5.0, steps=120))
        probs = np.abs(psi) ** 2
        assert np.allclose(probs, 1.0 / 8.0, atol=1e-12)
        assert np.allclose(np.abs(psi), 1.0 / np.sqrt(8.0), atol=1e-12)

    def test_two_level_adiabatic_matches_dense_reference(self, monkeypatch):
        pair = HamiltonianPair(1, np.array([0.0, 2.0]))
        sched = AnnealSchedule(tau=50.0, steps=500)
        psi, exps = evolve_counting(monkeypatch, pair, sched)
        assert abs(psi[0]) ** 2 > 0.99
        ref = oracles.dense_propagator(pair, sched)
        assert np.linalg.norm(psi - ref) <= krylov_bound(exps)

    @pytest.mark.parametrize("num_qubits", [6, 8])
    @pytest.mark.parametrize("spread", [1.0, 30.0])
    def test_multi_qubit_matches_dense_reference(self, monkeypatch, num_qubits, spread):
        # 40 steps run one Krylov expansion per exponential (||H|| dt/2 <= 3.75);
        # 5 steps and a single step split into many substeps
        rng = np.random.default_rng([num_qubits, int(spread)])
        pair = HamiltonianPair(num_qubits, rng.uniform(-spread, spread, 2**num_qubits))
        for sched in (AnnealSchedule(tau=10.0, steps=40), AnnealSchedule(tau=10.0, steps=5),
                      AnnealSchedule(tau=10.0, steps=1)):
            ref = oracles.dense_propagator(pair, sched)
            psi, exps = evolve_counting(monkeypatch, pair, sched)
            assert np.linalg.norm(psi - ref) <= krylov_bound(exps)

    def test_matvecs_per_step(self, monkeypatch):
        # about 8 products with H(u~) per exponential on this pair; a fixed
        # 24-vector basis takes 24
        pair = annealing_hamiltonian(build_formulation(random_instance(3, 82), "baseline"))
        calls = []
        apply = HamiltonianPair.apply
        monkeypatch.setattr(HamiltonianPair, "apply",
                            lambda self, u, v: calls.append(u) or apply(self, u, v))
        _, exps = evolve_counting(monkeypatch, pair, AnnealSchedule(tau=20.0))
        assert len(calls) < 10 * exps

    @pytest.mark.parametrize("form", ["baseline", "inserted"])
    def test_substeps_within_the_charge(self, monkeypatch, form):
        # the work cap charges a step of width dt _cf4_substeps(dt, top) per exponential,
        # top the pair's half-width bound on [0, 1]; no exponential of evolve takes more,
        # on linear and plateau paths at short and long anneals
        pair = annealing_hamiltonian(build_formulation(random_instance(3, 83), form))
        top = max(pair.half_width(0.0), pair.half_width(1.0))
        calls = []  # per exponential: [its step's width, substeps taken]
        propagate, expm = anneal._propagate, anneal._lanczos_expm
        monkeypatch.setattr(anneal, "_propagate", lambda pair, u, psi, dt:
                            calls.append([2.0 * dt, 0]) or propagate(pair, u, psi, dt))
        monkeypatch.setattr(anneal, "_lanczos_expm", lambda *args:
                            calls[-1].__setitem__(1, calls[-1][1] + 1) or expm(*args))
        for path in (((0, 0), (1, 1)), ((0, 0), (0.45, 0.5), (0.55, 0.5), (1, 1))):
            for tau in (1.0, 20.0, 100.0):
                sched = AnnealSchedule(tau=tau, path=path)
                calls.clear()
                evolve(pair, sched)
                assert len(calls) == 2 * sched.effective_steps()
                assert all(0 < taken <= anneal._cf4_substeps(dt, top) for dt, taken in calls)

    def test_fourth_order_on_a_linear_path(self, monkeypatch):
        # with the Krylov stop far below the integrator's error, halving dt
        # cuts the final-state error by about 16x (24x and 17x here)
        monkeypatch.setattr(anneal, "_KRYLOV_TOL", 1e-13)
        pair = annealing_hamiltonian(build_formulation(random_instance(3, 5), "inserted"))
        ref = evolve(pair, AnnealSchedule(tau=10.0, steps=640))
        errors = [np.linalg.norm(evolve(pair, AnnealSchedule(tau=10.0, steps=steps)) - ref)
                  for steps in (20, 40, 80)]
        assert errors[0] >= 10 * errors[1] and errors[1] >= 10 * errors[2]

    @pytest.mark.parametrize("tau", [20.0, 50.0])
    def test_plateau_path_no_worse_than_midpoint_rule(self, tau):
        # demo 03's plateau path: the default steps are no less accurate than
        # the frozen-midpoint rule at its default, max(100, ceil(10 tau))
        # uniform steps, which straddle the breakpoints; CF4 on a grid that
        # ignored them lost its order there and was worse at tau = 20
        pair = annealing_hamiltonian(build_formulation(random_instance(3, 5), "inserted"))
        path = ((0, 0), (0.45, 0.5), (0.55, 0.5), (1, 1))
        sched = AnnealSchedule(tau=tau, path=path)
        ref = oracles.dense_propagator(
            pair, AnnealSchedule(tau=tau, path=path, steps=16 * sched.effective_steps()))
        midpoint = oracles.dense_midpoint_propagator(pair, sched, max(100, ceil(10 * tau)))
        assert np.linalg.norm(evolve(pair, sched) - ref) <= np.linalg.norm(midpoint - ref)

    @pytest.mark.parametrize("num_qubits", [3, 6])
    @pytest.mark.parametrize("offset", [1e12, -6e15])
    def test_offset_changes_no_probability(self, num_qubits, offset):
        # a constant shift of H_P multiplies the state by a phase; the propagator
        # runs on the centred pair, so the shift costs no digits (at 1e12 an
        # uncentred Krylov expansion moved probabilities by up to 1.5e-5)
        diag = np.random.default_rng(num_qubits).integers(-2, 3, 2**num_qubits).astype(float)
        sched = AnnealSchedule(tau=5.0)
        plain = np.abs(evolve(HamiltonianPair(num_qubits, diag), sched)) ** 2
        shifted = np.abs(evolve(HamiltonianPair(num_qubits, diag + offset), sched)) ** 2
        np.testing.assert_allclose(shifted, plain, rtol=0.0, atol=1e-12)

    def test_norm_conservation(self, step_norms):
        inst = random_instance(3, 70)
        pair = annealing_hamiltonian(build_formulation(inst, "inserted"))
        evolve(pair, AnnealSchedule(tau=20.0))
        assert len(step_norms) == 50
        assert max(abs(n - 1.0) for n in step_norms) < 1e-8

    def test_qubit_cap(self):
        with pytest.raises(SizeCapError):
            evolve(zero_pair(17), AnnealSchedule(tau=1.0, steps=2))

    def test_ground_state_probability_grows_with_tau(self):
        inst = random_instance(2, 71)
        model = build_formulation(inst, "baseline")
        pair = annealing_hamiltonian(model)
        gs = int(np.argmin(pair.problem_diagonal))
        probs = []
        for tau in (1.0, 10.0, 100.0):
            psi = evolve(pair, AnnealSchedule(tau=tau))
            probs.append(abs(psi[gs]) ** 2)
        assert probs[0] <= probs[1] + 1e-12
        assert probs[1] <= probs[2] + 1e-12


def evolve_counting(monkeypatch, pair, sched):
    """evolve's final state and the number of Krylov exponentials it ran."""
    calls = []
    expm = anneal._lanczos_expm
    monkeypatch.setattr(anneal, "_lanczos_expm",
                        lambda apply_h, v, dt: calls.append(dt) or expm(apply_h, v, dt))
    psi = evolve(pair, sched)
    monkeypatch.setattr(anneal, "_lanczos_expm", expm)
    return psi, len(calls)


def krylov_bound(exps):
    """The 2-norm error allowed after ``exps`` Krylov exponentials of a unit state:
    each stops at _KRYLOV_TOL, plus 1e-13 for the rounding of it and of the
    dense reference."""
    return exps * (anneal._KRYLOV_TOL + 1e-13)


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
    assert np.linalg.norm(got - scipy.linalg.expm(-1j * dt * H) @ v) <= krylov_bound(1)


def test_evolve_refuses_eigensolver_failure(monkeypatch):
    # numpy's LinAlgError is a ValueError, which the CLI reads as bad input, so
    # the propagator reports a failed tridiagonal solve as a solver failure
    pair = annealing_hamiltonian(build_formulation(random_instance(2, 71), "baseline"))

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(SolverError, match=r"^tridiagonal eigensolver failed "
                                          r"\(Eigenvalues did not converge\)$"):
        evolve(pair, AnnealSchedule(tau=1.0))


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

    @pytest.mark.parametrize("num_qubits", range(1, 8))
    @pytest.mark.parametrize("path", [((0, 0), (1, 1)), ((0, 0), (0.45, 0.5), (0.55, 0.5), (1, 1))])
    @pytest.mark.parametrize("slices", [1, 2, 37])
    def test_merged_rotations_match_dense_splitting(self, num_qubits, path, slices):
        # adjacent half-rotations merged into one, and the rotation by qubit groups
        # (m = 7 splits into unequal groups, 4+3), against the textbook splitting
        # with dense exponentials
        rng = np.random.default_rng([num_qubits, slices])
        pair = HamiltonianPair(num_qubits, rng.uniform(-2.0, 5.0, 2**num_qubits))
        sched = AnnealSchedule(tau=7.0, path=path)
        psi = evolve_trotter(pair, sched, slices=slices)
        assert np.linalg.norm(psi - oracles.dense_trotter(pair, sched, slices)) <= 1e-12

    def test_matches_cf4_at_13_qubits(self):
        # three qubit groups (5+4+4), beyond the dense splitting's reach: at tau = 1
        # and 256 slices the second-order splitting error was measured at 4.5e-6,
        # and CF4's own at 3.7e-7 (against 200 steps)
        pair = HamiltonianPair(13, np.random.default_rng(13).uniform(-1.0, 1.0, 2**13))
        sched = AnnealSchedule(tau=1.0)
        psi = evolve_trotter(pair, sched, slices=256)
        assert np.linalg.norm(psi - evolve(pair, sched)) < 2e-5

    def test_zero_rotation_returns_psi(self):
        psi = np.random.default_rng(3).normal(size=8) + 0j
        assert anneal._mixer_rotation(psi, 0.0, 3) is psi


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

    @pytest.mark.parametrize("state, message", [
        (np.zeros(0), "power of two"),
        (np.zeros((4, 4)), "power of two"),
        (np.zeros(16, dtype=complex), "squared norm 0.0"),
        (np.full(16, 1e200), "squared norm inf"),
        (np.array([np.nan] + [0.25] * 15), "non-finite"),
    ], ids=["empty", "matrix", "zero", "overflow", "nan"])
    def test_degenerate_state_refused(self, state, message):
        # refused with its own message before any division or draw
        with pytest.raises(ValueError, match=message):
            measure(state, shots=10, seed=0, model=self._flat_model(4, 2))

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

    def test_threshold_that_overflows_accepts_without_a_warning(self):
        # T_hi is the model's mass 1.6e308, so T log U overflows to -inf, which
        # accepts every flip; this was a RuntimeWarning, an error under Tier-1
        model = QuboModel(dim=1, Q=[[4e307]], q=[8e307], offset=0.0, formulation="baseline", n=1)
        samples = simulated_annealing(model, sweeps=10, runs=20, seed=1)
        assert [(e.bits, e.energy, e.count) for e in samples.entries] == [((0,), 0.0, 20)]

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

    @pytest.mark.parametrize("make_model, sweeps, runs, schedule, split, panel", [
        (lambda: integer_model(9, "baseline", 3, 81), 6, 20, (4.0, 0.2), False, None),
        (lambda: integer_model(9, "inserted", 4, 82), 1, 20, None, False, None),
        (lambda: float_model(4, "baseline", 2, 83), 1, 17, (1.5, 0.1), False, None),
        (lambda: float_model(9, "row_wise", 3, 84), 5, 20, (2.0, 0.05), False, None),
        (lambda: build_formulation(random_instance(3, 85), "inserted"), 8, 20, None, False, None),
        (lambda: build_formulation(random_instance(3, 86), "baseline"), 3, 11, None, False, None),
        (lambda: float_model(9, "row_wise", 3, 87), 3, 130, (2.0, 0.05), False, None),
        (lambda: build_formulation(random_instance(3, 88), "row_wise"), 4, 130, None, True, None),
        # Panel edges.  A model's dim is a square, so dims one off a multiple of
        # the panel come from patching it: 16 at panels 17 and 15, and 9 at 4.
        (lambda: integer_model(16, "baseline", 4, 90), 3, 65, (4.0, 0.2), False, 17),
        (lambda: integer_model(16, "row_wise", 4, 91), 3, 65, (4.0, 0.2), False, None),
        (lambda: integer_model(16, "baseline", 4, 92), 3, 65, (4.0, 0.2), False, 15),
        (lambda: integer_model(9, "baseline", 3, 93), 4, 65, (4.0, 0.2), False, 4),
        (lambda: integer_model(25, "inserted", 6, 94), 3, 65, (4.0, 0.2), False, None),
        (lambda: integer_model(36, "inserted", 7, 95), 2, 130, None, True, None),
        (lambda: build_formulation(random_instance(8, 96), "inserted"), 2, 65, None, False, None),
        (lambda: float_model(64, "baseline", 8, 97), 1, 65, (2.0, 0.05), False, None),
    ], ids=["int-baseline", "int-inserted-1-sweep", "float-baseline-1-sweep", "float-row_wise",
            "built-inserted", "built-baseline", "three-blocks-partial-last", "one-block-per-chunk",
            "dim16-panel17", "dim16-one-panel", "dim16-panel15", "dim9-panel4", "dim25",
            "dim36-one-block-per-chunk", "built-dim49", "float-dim64"])
    def test_final_states_match_scalar_loop_oracle(self, monkeypatch, make_model, sweeps, runs,
                                                   schedule, split, panel):
        # same per-block draws, one flip decision at a time with loop energies and
        # the rule "dE <= 0 or u < exp(-dE / T)"
        model = make_model()
        if panel is not None:
            monkeypatch.setattr(anneal, "_SA_PANEL", panel)
        samples = simulated_annealing(model, sweeps=sweeps, runs=runs, seed=5, schedule=schedule)
        if split:  # a budget of one block per chunk gives several chunks, and the same samples
            monkeypatch.setattr(anneal, "_SA_CHUNK_DOUBLES", 3 * anneal._SA_BLOCK * model.dim)
            split_samples = simulated_annealing(model, sweeps=sweeps, runs=runs, seed=5,
                                                schedule=schedule)
            assert split_samples.to_dict() == samples.to_dict()
        expected = Counter(oracles.sa_loops(model, sweeps=sweeps, runs=runs, seed=5, schedule=schedule))
        assert {e.bits: e.count for e in samples.entries} == dict(expected)

    @pytest.mark.parametrize("zero_uniforms", [False, True], ids=["tie", "uniform-zero"])
    def test_every_attempt_accepted(self, monkeypatch, zero_uniforms):
        # With Q = 0 and q = 0 every flip has dE = 0; with every uniform 0 every flip
        # passes u < exp(-dE / T) whatever dE.  Either way each attempt flips, so after
        # an odd number of sweeps each run ends in the complement of its initial draw.
        # RuntimeWarnings are errors, so the log of a uniform equal to 0 must not warn.
        runs, dim = 130, 16
        default_rng = np.random.default_rng
        starts = np.vstack([default_rng([6, 1 + b]).integers(0, 2, size=(64, dim))
                            for b in range(ceil(runs / 64))])[:runs]
        if zero_uniforms:
            model = integer_model(dim, "baseline", 4, 98)

            class ZeroUniforms:
                def __init__(self, seed):
                    self.integers = default_rng(seed).integers

                def random(self, out):
                    out[...] = 0.0

            monkeypatch.setattr(np.random, "default_rng", ZeroUniforms)
        else:
            model = QuboModel(dim=dim, Q=np.zeros((dim, dim)), q=np.zeros(dim), offset=0.0,
                              formulation="baseline", n=4)
        samples = simulated_annealing(model, sweeps=3, runs=runs, seed=6)
        expected = Counter(map(tuple, (1 - starts).tolist()))
        assert {e.bits: e.count for e in samples.entries} == dict(expected)

    def test_memory_does_not_grow_with_sweeps(self):
        # One 16-bit run.  Holding every uniform costs 8 * dim bytes per
        # sweep (8 KB over 64 more sweeps); one sweep's block at a time
        # leaves only the 8-byte temperature per sweep.
        model = build_formulation(random_instance(4, 89), "baseline")
        simulated_annealing(model, sweeps=2, runs=1, seed=7)  # one-time allocations
        peaks = {}
        for sweeps in (1, 65):
            tracemalloc.start()
            try:
                simulated_annealing(model, sweeps=sweeps, runs=1, seed=7, schedule=(1.0, 0.1))
                peaks[sweeps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[65] - peaks[1] < 64 * model.dim * 8 // 4, peaks

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


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 49, 64, 65])
def test_grouping_matches_unique_rows(dim):
    # byte-boundary widths and the one-byte case; few distinct rows, so many repeat
    rng = np.random.default_rng(dim)
    pool = rng.integers(0, 2, size=(40, dim), dtype=np.int8)
    states = pool[rng.integers(0, len(pool), size=500)]
    rows, counts = anneal._group_rows(states)
    want_rows, want_counts = np.unique(states, axis=0, return_counts=True)
    assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(drawn=adversarial_model_coefficients(symmetric=False), seed=st.integers(0, 2**32 - 1))
def test_t_hi_is_the_largest_flip_change_of_the_seeded_states(drawn, seed):
    # the default T_hi is the largest |dE| of one flip over the 64 states drawn from
    # (seed, 0), priced by two loop energies on the Q the model was given
    formulation, n, Q, q, offset, integer = drawn
    model = build_model(formulation, n, Q, q, offset)
    t_hi = simulated_annealing(model, sweeps=1, runs=1, seed=seed).metadata["t_hi"]
    states = np.random.default_rng([seed, 0]).integers(0, 2, size=(64, model.dim)).tolist()
    largest = max(abs(oracles._flip_delta_loops(Q, q, x, k))
                  for x in states for k in range(model.dim))
    tol = 0.0 if integer else 1e-12 * coefficient_mass(Q, q, offset)
    assert abs(t_hi - (largest if largest > 0 else 1.0)) <= tol


class TestSuccessAndSampleSet:
    def test_random_guess_reference_exact(self):
        inst3 = random_instance(3, 78)
        model = build_formulation(inst3, "baseline")
        # one all-zero state each, which encodes no permutation
        samples = SampleSet.from_states(model, np.zeros((1, 9), dtype=int), np.ones(1, dtype=int), {})
        report = success_probability(samples, inst3)
        assert report.reference == Fraction(1, 6)
        inst4 = random_instance(4, 79)
        samples4 = SampleSet.from_states(build_formulation(inst4, "baseline"),
                                         np.zeros((1, 16), dtype=int), np.ones(1, dtype=int), {})
        report4 = success_probability(samples4, inst4)
        assert report4.reference == Fraction(1, 24)
        assert float(report4.reference) == pytest.approx(0.0417, abs=5e-5)

    def test_success_report_dict_is_written_from_the_fields(self):
        # one field list: the dict's keys are the dataclass fields, the fraction spelled out
        inst = random_instance(3, 83)
        samples = SampleSet.from_states(build_formulation(inst, "baseline"),
                                        np.zeros((1, 9), dtype=int), np.ones(1, dtype=int), {})
        report = success_probability(samples, inst)
        data = report.to_dict()
        assert list(data) == [f.name for f in dataclasses.fields(anneal.SuccessReport)]
        assert data["reference"] == {"numerator": 1, "denominator": 6, "value": 1 / 6}
        assert {k: v for k, v in data.items() if k != "reference"} == {
            "probability": report.probability, "n": 3, "f_opt": report.f_opt}

    def test_all_optimal_sample_set(self):
        inst = random_instance(3, 80)
        best, _ = brute_force_qap(inst)
        model = build_formulation(inst, "baseline")
        samples = SampleSet.from_states(model, vectorize(best)[None, :], np.array([7]), {})
        assert samples.assignments.tolist() == [best.assignment.tolist()]
        report = success_probability(samples, inst)
        assert report.probability == 1.0

    def test_most_frequent_tiebreak(self):
        samples = SampleSet(states=[[1, 0], [0, 1], [1, 1]], counts=[5, 5, 4], energies=[2.0, 1.0, 3.0],
                            valid=[True, True, False], assignments=[[0, 1], [1, 0], [-1, -1]])
        assert samples.total == 14
        assert most_frequent(samples) == SampleEntry(bits=(0, 1), energy=1.0, count=5, valid=True,
                                                     assignment=(1, 0))  # lower energy wins the tie

    def test_export_is_the_entries_export(self):
        # written from the columns, byte for byte what the SampleEntry rows give
        model = build_formulation(random_instance(3, 82), "inserted")
        samples = simulated_annealing(model, sweeps=1, runs=200, seed=4, schedule=(1e9, 1e9))
        assert not samples.valid.all() and samples.valid.any()
        want = {"total": samples.total, "entries": [e.to_dict() for e in samples.entries],
                "metadata": samples.metadata}
        assert json.dumps(samples.to_dict()) == json.dumps(want)

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


@st.composite
def integer_models_with_states(draw):
    """(model, states, counts): an integer-coefficient model of SMALL_MODELS,
    so that energies are exact and often tie, and up to 12 distinct states
    in drawn order, among them encodings of permutations, with counts 1..3."""
    model = build_model(*draw(adversarial_model_coefficients(symmetric=False, integer=True))[:5])
    codes = st.integers(0, 2**model.dim - 1)
    valid = _valid_codes(model.formulation, model.n, model.dim)
    if valid:
        codes = st.one_of(codes, st.sampled_from(valid))
    picked = draw(st.lists(codes, min_size=1, max_size=min(12, 2**model.dim), unique=True))
    states = (np.array(picked)[:, None] >> np.arange(model.dim)) & 1
    counts = np.array(draw(st.lists(st.integers(1, 3), min_size=len(picked), max_size=len(picked))))
    return model, states, counts


@functools.cache
def _valid_codes(formulation, n, dim):
    bits = enumerate_states(dim).tolist()
    return [z for z in range(2**dim) if oracles.decode_loops(formulation, n, bits[z]) is not None]


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(drawn=integer_models_with_states())
def test_sample_set_matches_per_state_oracle(drawn, tmp_path_factory):
    # rows, their order, the total, the modal row and the histogram against a per-state
    # reference that prices, decodes and sorts one state at a time
    model, states, counts = drawn
    entries, total, modal = oracles.sample_set_loops(model, states.tolist(), counts.tolist())
    samples = SampleSet.from_states(model, states, counts, {})
    assert samples.to_dict()["entries"] == entries
    assert samples.total == total
    assert most_frequent(samples).to_dict() == modal
    hist = tmp_path_factory.getbasetemp() / "sample_set_hist.csv"
    samples.histogram_csv(hist)
    rows = [line.split(",") for line in hist.read_text().splitlines()[1:]]
    edges = [float(r[0]) for r in rows]
    expected = [[0, 0] for _ in rows]
    for e in entries:  # the last bin whose left edge is at most the energy
        b = max(i for i, edge in enumerate(edges) if edge <= e["energy"])
        expected[b][0] += e["count"]
        expected[b][1] += e["count"] if e["valid"] else 0
    assert [[int(r[1]), int(r[2])] for r in rows] == expected


@st.composite
def priced_sample_sets(draw):
    """(instance, f_opt, f_worst, sample set) for n = 1..5.

    The rows mix invalid states, repeated optima, the worst permutation
    and arbitrary permutations.  Counts and energies come from small
    ranges, so the modal row is often decided by a tie-break.
    """
    inst = draw(adversarial_instances(sizes=(1, 2, 3, 4, 5)))
    best, f_opt, worst, f_worst = permutation_extremes(inst)
    kinds = draw(st.lists(st.sampled_from(("invalid", "optimum", "worst", "any")), min_size=1, max_size=8))
    assignments = []
    for kind in kinds:
        if kind == "any":
            assignments.append(draw(st.permutations(range(inst.n))))
        else:
            assignments.append({"invalid": [-1] * inst.n, "optimum": best.assignment.tolist(),
                                "worst": worst.assignment.tolist()}[kind])
    k = len(kinds)
    samples = SampleSet(
        states=np.arange(k)[:, None], counts=[draw(st.integers(1, 3)) for _ in range(k)],
        energies=[draw(st.sampled_from((-1.0, 0.0, 1.0))) for _ in range(k)],
        valid=[kind != "invalid" for kind in kinds], assignments=np.array(assignments, dtype=int),
    )
    return inst, f_opt, f_worst, samples


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(drawn=priced_sample_sets())
def test_batched_pricing_matches_per_entry_oracle(drawn):
    inst, f_opt, f_worst, samples = drawn
    modal, normalized, success, valid, probability = oracles.price_per_entry(samples, inst, f_opt, f_worst)
    priced = anneal.price(samples, inst, f_opt, f_worst)
    assert priced.most_frequent == modal
    assert (priced.success, priced.most_frequent.valid, priced.report.probability) == (
        success, valid, probability)
    # Relative to the largest |energy| any state can have.
    scale = float(np.abs(inst.W).sum() + np.abs(inst.c).sum())
    assert abs(priced.normalized_energy - normalized) <= 1e-12 * scale
    assert priced.normalized_energy >= 0.0  # f_opt is the minimum; ulps below it are clamped
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
    rows = [perm]
    # a valid row beside it needs the same width, which a long or short row lacks
    if bad not in ("long", "short") and data.draw(st.booleans()):
        rows.append(list(range(n)))
    k = len(rows)
    samples = SampleSet(states=np.arange(k)[:, None], counts=np.ones(k, dtype=int),
                        energies=np.zeros(k), valid=np.ones(k, dtype=bool),
                        assignments=np.array(rows, dtype=int).reshape(k, len(perm)))
    with pytest.raises(ValueError):
        anneal.price(samples, inst, f_opt, f_worst)
    with pytest.raises(ValueError):
        success_probability(samples, inst)
