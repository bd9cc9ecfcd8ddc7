"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the vectorised production code
paths: plain Python loops over itertools, explicit four-index sums and
dense matrix exponentials.
"""

import itertools

import numpy as np


def energy_loops(W, c, x):
    """x^T W x + c^T x by explicit double loop."""
    m = len(x)
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += x[i] * W[i][j] * x[j]
    for i in range(m):
        total += c[i] * x[i]
    return total


def vec_assignment(n, assignment):
    """Column-major vectorisation of the permutation with X[assignment[j], j] = 1."""
    x = [0] * (n * n)
    for j, i in enumerate(assignment):
        x[j * n + i] = 1
    return x


def brute_force_loops(W, c, n):
    """Minimum over all permutations in lexicographic assignment order."""
    best = None
    best_assignment = None
    for assignment in itertools.permutations(range(n)):
        e = energy_loops(W, c, vec_assignment(n, assignment))
        if best is None or e < best:
            best = e
            best_assignment = assignment
    return best_assignment, best


def worst_loops(W, c, n):
    """Maximum over all permutations in lexicographic assignment order."""
    worst = None
    worst_assignment = None
    for assignment in itertools.permutations(range(n)):
        e = energy_loops(W, c, vec_assignment(n, assignment))
        if worst is None or e > worst:
            worst = e
            worst_assignment = assignment
    return worst_assignment, worst


def isometric_energy_loops(d1, d2, assignment):
    """Four-index distortion sum of a permutation (row[j] = assignment[j])."""
    n = len(assignment)
    X = [[0] * n for _ in range(n)]
    for j, i in enumerate(assignment):
        X[i][j] = 1
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += X[i][j] * X[k][l] * abs(d1[i][k] - d2[j][l])
    return total


def enumerate_qubo_loops(model):
    """All (state, energy) pairs via itertools.product and the loop energy."""
    out = []
    for bits in itertools.product((0, 1), repeat=model.dim):
        out.append((bits, energy_loops(model.Q, model.q, bits) + model.offset))
    return out


def dense_propagator(pair, sched):
    """Reference integrator: exact exponential of the frozen-midpoint Hamiltonian.

    Each step applies exp(-i H dt) = U exp(-i Lambda dt) U^T from the full
    eigendecomposition of the real symmetric dense H.
    """
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    steps = sched.effective_steps()
    dt = sched.tau / steps
    for k in range(steps):
        u = sched.path_value((k + 0.5) / steps)
        evals, U = np.linalg.eigh(dense_hamiltonian(pair, u))
        psi = U @ (np.exp(-1j * evals * dt) * (U.T @ psi))
    return psi


def dense_hamiltonian(pair, u):
    """H(u) = u H_P + (1-u) H_B by explicit loops over basis states z and bits i.

    H_P is the problem diagonal; H_B = -sum_i sigma_x^(i) couples z to
    z ^ (1 << i) with amplitude -1.
    """
    dim = pair.dim
    H = np.zeros((dim, dim))
    for z in range(dim):
        H[z, z] = u * pair.problem_diagonal[z]
        for i in range(pair.num_qubits):
            H[z, z ^ (1 << i)] = -(1.0 - u)
    return H


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())
