"""Simulate an adiabatic anneal and watch the distribution sharpen.

Evolves the reduced (inserted) model of a random 3x3 assignment problem
for growing total times, measures each final state, and reports how
often the exact optimum is read out.
"""

import numpy as np

from permqubo import (
    AnnealSchedule,
    QapInstance,
    annealing_hamiltonian,
    brute_force_qap,
    build_formulation,
    evolve,
    measure,
    most_frequent,
    success_probability,
)

n = 3
rng = np.random.default_rng(11)
inst = QapInstance(n, rng.uniform(-1, 1, (n**2, n**2)), rng.uniform(-1, 1, n**2))
_, f_opt = brute_force_qap(inst)
print(f"random n={n} instance, exact optimum {f_opt:.6f}")

model = build_formulation(inst, "inserted")
pair = annealing_hamiltonian(model)
print(f"{model.dim} qubits, {pair.dim} amplitudes\n")

for tau in (2.0, 10.0, 50.0):
    psi = evolve(pair, AnnealSchedule(tau=tau))
    samples = measure(psi, shots=2000, seed=42, model=model)
    report = success_probability(samples, inst)
    mode = most_frequent(samples)
    print(f"tau = {tau:5.1f}: P(optimum) = {report.probability:.3f} "
          f"(random guessing {float(report.reference):.3f}), "
          f"most frequent state energy {mode.energy:+.4f}, valid={mode.valid}")

print("\nLonger anneals concentrate the wavefunction on the ground state, so")
print("the measured histogram narrows onto the optimal permutation.")

# A mid-anneal plateau is just another schedule path; evolve puts no step
# across its breakpoints, where a step would lose its fourth order:
plateau = AnnealSchedule(tau=50.0, path=((0, 0), (0.45, 0.5), (0.55, 0.5), (1, 1)))
psi = evolve(pair, plateau)
samples = measure(psi, shots=2000, seed=43, model=model)
print(f"with a mid-anneal break: P(optimum) = "
      f"{success_probability(samples, inst).probability:.3f}")
