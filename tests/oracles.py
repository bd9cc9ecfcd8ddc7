"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the vectorised production code
paths: plain Python loops over itertools, explicit four-index sums and
dense matrix exponentials.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np


def energy_loops(W, c, x):
    """x^T W x + c^T x by explicit double loop.

    The loops skip the zero entries of x: with W and c finite their terms
    are signed zeros, which leave a sum that starts at +0.0 unchanged, so
    the result is the same bits as the loop over every index.
    """
    nonzero = [i for i in range(len(x)) if x[i] != 0]
    total = 0.0
    for i in nonzero:
        for j in nonzero:
            total += x[i] * W[i][j] * x[j]
    for i in nonzero:
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


def read_sparse_loops(path, dim):
    """Parse the sparse text export line by line into a ``dim``-variable model with
    upper-triangular Q (the export's "i j value" lines) and q (its "i i value" lines)."""
    Q = [[0.0] * dim for _ in range(dim)]
    q = [0.0] * dim
    offset = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            head, *rest = line.split()
            if head == "offset":
                offset = float(rest[0])
                continue
            i, j, v = int(head), int(rest[0]), float(rest[1])
            assert 0 <= i <= j < dim, line
            if i == j:
                q[i] += v
            else:
                Q[i][j] += v
    return SimpleNamespace(dim=dim, Q=Q, q=q, offset=offset)


def dense_propagator(pair, sched):
    """Reference integrator: the CF4 step with dense matrix exponentials.

    On the schedule's breakpoint-aligned grid (``sched.segments()``), a
    step of width dt from s0 to s1 takes the path values u1, u2 at the Gauss
    nodes s0 + (1/2 -+ sqrt(3)/6)(s1 - s0) and applies
    expm(-i dt/2 H(2 (a1 u1 + a2 u2))) expm(-i dt/2 H(2 (a2 u1 + a1 u2)))
    with a1,2 = (3 -+ 2 sqrt(3)) / 12.  Each exponential is
    U exp(-i Lambda dt/2) U^T from the full eigendecomposition of the real
    symmetric dense H from ``dense_hamiltonian`` (at 256 amplitudes it is
    5x faster than scipy.linalg.expm, which tests one Krylov exponential).
    """
    ss = [p[0] for p in sched.path]
    us = [p[1] for p in sched.path]
    r3 = math.sqrt(3.0)
    a1, a2 = (3.0 - 2.0 * r3) / 12.0, (3.0 + 2.0 * r3) / 12.0
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    for a, b, n in sched.segments():
        h = (b - a) / n
        dt = sched.tau * h
        for k in range(n):
            s0 = a + k * h
            u1 = float(np.interp(s0 + (0.5 - r3 / 6.0) * h, ss, us))
            u2 = float(np.interp(s0 + (0.5 + r3 / 6.0) * h, ss, us))
            for u in (2.0 * (a2 * u1 + a1 * u2), 2.0 * (a1 * u1 + a2 * u2)):
                evals, U = np.linalg.eigh(dense_hamiltonian(pair, u))
                psi = U @ (np.exp(-0.5j * dt * evals) * (U.T @ psi))
    return psi


def dense_midpoint_propagator(pair, sched, steps):
    """The frozen-midpoint rule: ``steps`` uniform steps, each the dense exponential
    exp(-i dt H(u)), by eigendecomposition, at the path value u of the step's midpoint."""
    ss = [p[0] for p in sched.path]
    us = [p[1] for p in sched.path]
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    dt = sched.tau / steps
    for k in range(steps):
        u = float(np.interp((k + 0.5) / steps, ss, us))
        evals, U = np.linalg.eigh(dense_hamiltonian(pair, u))
        psi = U @ (np.exp(-1j * dt * evals) * (U.T @ psi))
    return psi


def dense_trotter(pair, sched, slices):
    """The textbook symmetric splitting, unmerged: ``slices`` uniform slices, each
    expm(-i A dt/2) expm(-i B dt) expm(-i A dt/2) with A = (1-u) H_B and B = u H_P at
    the path value u of the slice's midpoint.  expm(-i A dt/2) comes from the full
    eigendecomposition of the dense mixer H_B (``dense_hamiltonian`` at u = 0)."""
    ss = [p[0] for p in sched.path]
    us = [p[1] for p in sched.path]
    evals, U = np.linalg.eigh(dense_hamiltonian(pair, 0.0))
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    dt = sched.tau / slices
    for k in range(slices):
        u = float(np.interp((k + 0.5) / slices, ss, us))
        half = U @ np.diag(np.exp(-0.5j * dt * (1.0 - u) * evals)) @ U.T
        psi = half @ (np.exp(-1j * dt * u * pair.problem_diagonal) * (half @ psi))
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


def gathered_hamiltonian_product(pair, u, v):
    """H(u) v without a matrix: (H_B v)[z] = -sum_i v[z ^ (1 << i)], one gather per bit."""
    z = np.arange(pair.dim)
    flipped = sum(v[z ^ (1 << i)] for i in range(pair.num_qubits))
    return u * pair.problem_diagonal * v - (1.0 - u) * flipped


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def decode_loops(formulation, n, bits):
    """Assignment tuple encoded by a model state, or None when infeasible.

    baseline/row_wise bit j*n + i is X[i][j]; an inserted state holds the
    interior X[1:, 1:] column-major, and the first row and column follow
    from the sum-to-one constraints.
    """
    X = [[0] * n for _ in range(n)]
    if formulation == "inserted":
        r = n - 1
        for i in range(r):
            for j in range(r):
                X[i + 1][j + 1] = bits[j * r + i]
        X[0][0] = 2 - n + sum(bits)
        for j in range(r):
            X[0][j + 1] = 1 - sum(bits[j * r + i] for i in range(r))
        for i in range(r):
            X[i + 1][0] = 1 - sum(bits[j * r + i] for j in range(r))
    else:
        for i in range(n):
            for j in range(n):
                X[i][j] = bits[j * n + i]
    for i in range(n):
        for j in range(n):
            if X[i][j] not in (0, 1):
                return None
    for i in range(n):
        if sum(X[i][j] for j in range(n)) != 1 or sum(X[j][i] for j in range(n)) != 1:
            return None
    return tuple(next(i for i in range(n) if X[i][j] == 1) for j in range(n))


def _flip_delta_loops(Q, q, x, k):
    """Energy change of flipping bit k of x, from two full loop energies."""
    y = list(x)
    y[k] = 1 - y[k]
    return energy_loops(Q, q, y) - energy_loops(Q, q, x)


def sa_loops(model, sweeps, runs, seed, schedule=None):
    """Final states of scalar single-flip Metropolis runs, one run at a time.

    Runs draw in blocks of 64: block b uses the generator seeded by
    (seed, 1 + b).  It first draws ``integers(0, 2, size=(64, dim))``, whose
    row i is the initial state of run 64 b + i, then per sweep one
    ``random((64, dim))``, whose entry (i, k) is that run's uniform for
    flip k; rows past ``runs`` are drawn and dropped.  A flip is accepted
    when dE <= 0 or u < exp(-dE / T) (exponent clipped to [-700, 50]); T
    cools geometrically from T_hi to T_lo.  By default T_hi is the largest
    |dE| of a flip over 64 states drawn from (seed, 0) and T_lo = 1e-3 T_hi.
    Returns the final states as tuples, run by run.
    """
    dim = model.dim
    Q, q = model.Q.tolist(), model.q.tolist()
    if schedule is None:
        rng = np.random.default_rng([seed, 0])
        sample = rng.integers(0, 2, size=(64, dim)).tolist()
        t_hi = max(abs(_flip_delta_loops(Q, q, x, k)) for x in sample for k in range(dim))
        t_hi = t_hi if t_hi > 0 else 1.0
        t_lo = 1e-3 * t_hi
    else:
        t_hi, t_lo = schedule
    if sweeps == 1:
        temps = [t_hi]
    else:
        temps = [t_hi * (t_lo / t_hi) ** (s / (sweeps - 1)) for s in range(sweeps)]
    finals = []
    for b in range(math.ceil(runs / 64)):
        rng = np.random.default_rng([seed, 1 + b])
        starts = rng.integers(0, 2, size=(64, dim)).tolist()
        uniforms = [rng.random((64, dim)).tolist() for _ in temps]
        for i in range(min(64, runs - 64 * b)):
            x = [int(v) for v in starts[i]]
            energy = energy_loops(Q, q, x)
            for T, u_sweep in zip(temps, uniforms):
                for k in range(dim):
                    u = u_sweep[i][k]
                    # dE from two full loop energies, as in _flip_delta_loops;
                    # the current state's energy is kept from when it was reached
                    y = list(x)
                    y[k] = 1 - y[k]
                    flipped = energy_loops(Q, q, y)
                    dE = flipped - energy
                    if dE <= 0.0 or u < math.exp(min(50.0, max(-700.0, -dE / T))):
                        x, energy = y, flipped
            finals.append(tuple(x))
    return finals


def sample_set_loops(model, states, counts):
    """Per-state reference of ``SampleSet.from_states``: (entries, total, modal).

    Each state is priced by energy_loops plus the offset and decoded by
    decode_loops into an entry dict of ``SampleEntry.to_dict``'s form; the
    entries are sorted with Python by (energy, bits), and the modal entry
    is the minimum of (-count, energy, bits).
    """
    entries = []
    for bits, count in zip(states, counts):
        bits = [int(b) for b in bits]
        assignment = decode_loops(model.formulation, model.n, bits)
        entries.append({
            "bits": bits, "energy": float(energy_loops(model.Q, model.q, bits) + model.offset),
            "count": int(count), "valid": assignment is not None,
            "assignment": None if assignment is None else list(assignment),
        })
    entries.sort(key=lambda e: (e["energy"], e["bits"]))
    modal = min(entries, key=lambda e: (-e["count"], e["energy"], e["bits"]))
    return entries, sum(e["count"] for e in entries), modal


def price_per_entry(samples, inst, f_opt, f_worst):
    """Per-entry pricing: each valid entry through PermutationMatrix, vectorize and qap_energy.

    An entry is optimal when its energy is at most f_opt + 1e-9 * max(1, |f_opt|).
    Returns (modal entry, normalized energy, success, valid, success
    probability); the modal entry has the highest count, ties going to
    lower energy and then to lexicographically smaller bits, and an
    invalid one is charged f_worst.
    """
    from permqubo import PermutationMatrix, qap_energy, vectorize

    tol = 1e-9 * max(1.0, abs(f_opt))

    def energy(entry):
        perm = PermutationMatrix(inst.n, np.asarray(entry.assignment, dtype=int))
        return qap_energy(inst, vectorize(perm))

    hits = 0
    for entry in samples.entries:
        if entry.assignment is not None and energy(entry) <= f_opt + tol:
            hits += entry.count
    modal = min(samples.entries, key=lambda e: (-e.count, e.energy, e.bits))
    if modal.assignment is None:
        return modal, f_worst - f_opt, False, False, hits / samples.total
    normalized = max(0.0, energy(modal) - f_opt)
    return modal, normalized, normalized <= tol, True, hits / samples.total
