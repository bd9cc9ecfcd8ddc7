"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on a green run.  Criteria with runtime budgets stay far inside
them; shared fixtures reuse the expensive artefacts.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats

import oracles
from strategies import random_instance
from permqubo import (
    AnnealSchedule,
    ExperimentSpec,
    annealing_hamiltonian,
    brute_force_qap,
    build_formulation,
    decode,
    evolve,
    evolve_trotter,
    gap_profile,
    qap_energy,
    run_experiment,
    simulated_annealing,
    success_probability,
    to_spin,
    two_lowest_eigenvalues,
    vectorize,
)
from permqubo.anneal import SampleSet
from permqubo.qubo import enumerate_states
from permqubo.spectral import build_hamiltonians as _build_h


FORMS = ("baseline", "row_wise", "inserted")


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def equivalence_suite():
    """Exhaustive hypercube enumeration for 20 instances at n in {2, 3}."""
    suite = []
    for n in (2, 3):
        for seed in range(20):
            inst = random_instance(n, [n, seed])
            _, f_opt = brute_force_qap(inst)
            per_form = {}
            for form in FORMS:
                model = build_formulation(inst, form)
                states = enumerate_states(model.dim)
                energies = model.energies(states)
                valid = np.array([decode(model, s) is not None for s in states])
                per_form[form] = (model, states, energies, valid)
            suite.append((n, seed, inst, f_opt, per_form))
    return suite


def test_criterion_01_equivalence(equivalence_suite):
    worst = 0.0
    for n, seed, inst, f_opt, per_form in equivalence_suite:
        tol = 1e-9 * max(1.0, abs(f_opt))
        for form, (model, states, energies, _) in per_form.items():
            emin = float(energies.min())
            worst = max(worst, abs(emin - f_opt))
            if abs(emin - f_opt) > tol:
                _report("criterion 1: equivalence", False,
                        f"n={n} seed={seed} {form}: min {emin} vs f_opt {f_opt}")
            for idx in np.nonzero(energies <= emin + tol)[0]:
                perm = decode(model, states[idx])
                if perm is None or qap_energy(inst, vectorize(perm)) > f_opt + tol:
                    _report("criterion 1: equivalence", False,
                            f"n={n} seed={seed} {form}: non-optimal minimizer")
    _report("criterion 1: equivalence of all three formulations at scale 1", True,
            f"120 exhaustive enumerations, worst |min - f_opt| = {worst:.2e}")


def test_criterion_02_infeasibility_pricing(equivalence_suite):
    margin = np.inf
    for n, seed, inst, f_opt, per_form in equivalence_suite:
        for form, (_, _, energies, valid) in per_form.items():
            infeasible = energies[~valid]
            if infeasible.size == 0:
                continue
            low = float(infeasible.min())
            margin = min(margin, low - f_opt)
            if low <= f_opt:
                _report("criterion 2: infeasibility pricing", False,
                        f"n={n} seed={seed} {form}: infeasible state at {low} <= {f_opt}")
    _report("criterion 2: invalid decodes priced strictly above the optimum", True,
            f"smallest margin above f_opt = {margin:.3f}")


def test_criterion_03_spin_correspondence():
    worst = 0.0
    for n in (2, 3):
        for seed in range(3):
            inst = random_instance(n, [30 + n, seed])
            for form in FORMS:
                model = build_formulation(inst, form)
                spin = to_spin(model)
                states = enumerate_states(model.dim)
                eb = model.energies(states)
                es = spin.energies(2.0 * states - 1.0)
                worst = max(worst, float(np.abs(eb - es).max()))
    rng = np.random.default_rng(31)
    inst4 = random_instance(4, [34, 0])
    for form in FORMS:
        model = build_formulation(inst4, form)
        spin = to_spin(model)
        states = rng.integers(0, 2, size=(10_000, model.dim))
        eb = model.energies(states)
        es = spin.energies(2.0 * states - 1.0)
        worst = max(worst, float(np.abs(eb - es).max()))
    _report("criterion 3: binary/spin energies agree on all states", worst <= 1e-10,
            f"worst |binary - spin| = {worst:.2e}")


@pytest.fixture(scope="module")
def gap_study():
    scales = (1.0, 2.0, 3.0, 4.0, 5.0)
    gaps = {f: {s: [] for s in scales} for f in FORMS}
    for seed in range(10):
        inst = random_instance(3, [41, seed])
        for form in FORMS:
            for scale in scales:
                profile = gap_profile(build_formulation(inst, form, scale), num_samples=33)
                gaps[form][scale].append(profile.min_gap)
    return scales, gaps


def test_criterion_04_gap_trend(gap_study):
    scales, gaps = gap_study
    ok = True
    details = []
    for form in FORMS:
        means = [float(np.mean(gaps[form][s])) for s in scales]
        decreasing = all(a > b for a, b in zip(means, means[1:]))
        ok = ok and decreasing
        details.append(f"{form}: " + " > ".join(f"{m:.4f}" for m in means))
        if not decreasing:
            details[-1] += " (NOT strictly decreasing)"
    rw = float(np.mean(gaps["row_wise"][1.0]))
    base = float(np.mean(gaps["baseline"][1.0]))
    ordering = rw > base
    ok = ok and ordering
    _report("criterion 4: mean min-gap decreasing in scale; row-wise above baseline at scale 1",
            ok, "; ".join(details) + f"; row_wise {rw:.4f} vs baseline {base:.4f} at scale 1")


def test_criterion_05_krylov_correctness():
    rng = np.random.default_rng(51)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(5, 11))
        Q = rng.normal(size=(m, m))
        Q = (Q + Q.T) / 2
        np.fill_diagonal(Q, 0.0)
        from permqubo.qubo import SpinModel

        pair = _build_h(SpinModel(Q_s=Q, q_s=rng.normal(size=m), offset_s=0.0))
        u = float(rng.uniform(0.0, 1.0))
        e0, e1 = two_lowest_eigenvalues(pair, u)
        dense = np.linalg.eigvalsh(oracles.dense_hamiltonian(pair, u))
        worst = max(worst, abs(e0 - dense[0]), abs(e1 - dense[1]))
    _report("criterion 5: Krylov eigenvalues match dense diagonalization", worst <= 1e-8,
            f"50 operators with up to 10 qubits, worst deviation = {worst:.2e}")


def _most_probable_is_optimal(inst, form, taus):
    model = build_formulation(inst, form)
    pair = annealing_hamiltonian(model)
    _, f_opt = brute_force_qap(inst)
    tol = 1e-9 * max(1.0, abs(f_opt))
    for tau in taus:
        psi = evolve(pair, AnnealSchedule(tau=tau))
        z = int(np.argmax(np.abs(psi) ** 2))
        bits = (z >> np.arange(model.dim)) & 1
        perm = decode(model, bits)
        if perm is not None and qap_energy(inst, vectorize(perm)) <= f_opt + tol:
            return tau
    return None


def test_criterion_06_schrodinger_finds_optimum():
    taus = (50.0, 100.0, 200.0)
    failures = []
    for seed in range(5):
        inst = random_instance(3, [7, seed])
        for form in FORMS:
            if _most_probable_is_optimal(inst, form, taus) is None:
                failures.append(f"n=3 seed={seed} {form}")
    for seed in range(3):
        inst = random_instance(4, [8, seed])
        if _most_probable_is_optimal(inst, "inserted", taus) is None:
            failures.append(f"n=4 seed={seed} inserted")
    _report("criterion 6: most probable outcome decodes to the optimum "
            "(n=3 all formulations; n=4 inserted)", not failures,
            f"tau swept up to {taus[-1]:g}" + (f"; failures: {failures}" if failures else ""))


def test_criterion_07_adiabaticity_monotone():
    ok = True
    details = []
    for seed in range(3):
        inst = random_instance(2, [20, seed])
        for form in ("baseline", "inserted"):
            model = build_formulation(inst, form)
            states = enumerate_states(model.dim)
            energies = model.energies(states)
            order = np.sort(energies)
            if order[1] - order[0] <= 1e-6:
                continue  # degenerate instance: outside the criterion
            pair = annealing_hamiltonian(model)
            gs = int(np.argmin(pair.problem_diagonal))
            probs = [
                float(np.abs(evolve(pair, AnnealSchedule(tau=tau))[gs]) ** 2)
                for tau in (1.0, 10.0, 100.0)
            ]
            mono = probs[0] <= probs[1] + 1e-12 and probs[1] <= probs[2] + 1e-12
            ok = ok and mono
            details.append(f"seed {seed} {form}: " + "->".join(f"{p:.3f}" for p in probs))
    _report("criterion 7: ground-state probability nondecreasing in tau", ok,
            "; ".join(details))


def test_criterion_08_trotter_agreement():
    inst = random_instance(3, [80, 0])
    model = build_formulation(inst, "inserted")  # 4 qubits
    pair = annealing_hamiltonian(model)
    sched = AnnealSchedule(tau=10.0, steps=500)
    p_cont = np.abs(evolve(pair, sched)) ** 2
    p_trot = np.abs(evolve_trotter(pair, sched, slices=512)) ** 2
    tv = oracles.total_variation(p_cont, p_trot)
    _report("criterion 8: trotterized evolution matches continuous (512 slices)",
            tv < 1e-2, f"total variation = {tv:.2e}")


def test_criterion_09_sa_ordering():
    fractions = {f: [] for f in FORMS}
    for seed in range(10):
        inst = random_instance(4, [90, seed])
        for form in FORMS:
            model = build_formulation(inst, form)
            samples = simulated_annealing(model, sweeps=100, runs=5000, seed=seed)
            fractions[form].append(success_probability(samples, inst).probability)
    ins, base = np.array(fractions["inserted"]), np.array(fractions["baseline"])
    rw = np.array(fractions["row_wise"])
    p_ins = scipy.stats.ttest_rel(ins, base, alternative="greater").pvalue
    p_rw = scipy.stats.ttest_rel(rw, base, alternative="greater").pvalue
    ok = p_ins < 0.05 and p_rw < 0.05 and ins.mean() > base.mean() and rw.mean() > base.mean()
    _report("criterion 9: SA success ordering inserted > baseline and row-wise > baseline",
            ok,
            f"means inserted {ins.mean():.3f}, row_wise {rw.mean():.3f}, "
            f"baseline {base.mean():.3f}; paired one-sided p = {p_ins:.2e} / {p_rw:.2e}")


def test_criterion_10_random_guess_reference():
    from fractions import Fraction

    inst3 = random_instance(3, [100, 0])
    inst4 = random_instance(4, [100, 1])
    # one all-zero state each, which encodes no permutation
    dummy3 = SampleSet.from_states(build_formulation(inst3, "baseline"), np.zeros((1, 9), dtype=int),
                                   np.ones(1, dtype=int), {})
    dummy4 = SampleSet.from_states(build_formulation(inst4, "baseline"), np.zeros((1, 16), dtype=int),
                                   np.ones(1, dtype=int), {})
    r3 = success_probability(dummy3, inst3).reference
    r4 = success_probability(dummy4, inst4).reference
    ok = r3 == Fraction(1, 6) and r4 == Fraction(1, 24)
    _report("criterion 10: random-guess references are exactly 1/6 and 1/24", ok,
            f"n=3 -> {r3}, n=4 -> {r4} ({float(r4):.2%})")


def test_criterion_11_norm_conservation(step_norms):
    # step_norms: the norm of each CF4 step's state as it leaves the step, before renormalisation
    worst = 0.0
    for seed, form in ((110, "baseline"), (111, "row_wise"), (112, "inserted")):
        inst = random_instance(3, [seed, 0])
        pair = annealing_hamiltonian(build_formulation(inst, form))
        step_norms.clear()
        evolve(pair, AnnealSchedule(tau=20.0))
        assert len(step_norms) == 50
        worst = max(worst, max(abs(n - 1.0) for n in step_norms))
    _report("criterion 11: state norm conserved at every recorded step", worst <= 1e-8,
            f"worst |norm - 1| = {worst:.2e}")


def _report_json(spec) -> str:
    return run_experiment(spec).to_json()


def test_criterion_12_determinism():
    spec = ExperimentSpec(
        n=3, num_instances=2, seed=123, formulations=FORMS, scales=(1.0,),
        solver="sa", solver_params={"runs": 40, "sweeps": 25}, gap_samples=9,
    )
    runs = [_report_json(spec), _report_json(spec)]
    # Two children run side by side, each in a fresh interpreter.
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"),
                             max_tasks_per_child=1) as pool:
        runs += pool.map(_report_json, [spec, spec], timeout=300)
    ok = len(set(runs)) == 1
    _report("criterion 12: seeded pipelines are byte-identical (in process and in fresh processes)",
            ok, f"report JSON of {len(runs[0])} bytes compared across two in-process "
            "and two parallel child-process executions")
