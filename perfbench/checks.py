"""Independent output checks for the benchmark workloads.

Everything here recomputes results from the problem data with plain
numpy and itertools, never through permqubo's solvers, so a wrong
answer from the package cannot also pass its own check.  Each check
returns a list of failure messages; an empty list means the output is
correct.  None of this runs inside a timed region.
"""

from __future__ import annotations

import itertools

import numpy as np

# Relative tolerance for energies recomputed from the same coefficients.
ENERGY_RTOL = 1e-9
# Krylov eigenvalues (ARPACK at tol=1e-12) against dense eigvalsh.
EIGEN_ATOL = 1e-8
NORM_ATOL = 1e-9
# Gaps below this are reported as exactly 0 by the package.
DEGENERACY_TOL = 1e-10


def close(a: float, b: float, rtol: float = ENERGY_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def is_optimal(above_opt: float, f_opt: float) -> bool:
    """Whether an energy ``above_opt`` above the optimum f_opt counts as optimal."""
    return above_opt <= ENERGY_RTOL * max(1.0, abs(f_opt))


# -- QAP oracle ---------------------------------------------------------------

def qap_optimum(W, c, n) -> tuple[float, float]:
    """(minimum, maximum) of the QAP objective over all n! permutations.

    Chunked, so the check's own memory stays below the package's and does
    not set the process's peak resident size.
    """
    W, c = np.asarray(W, float), np.asarray(c, float)
    lo, hi = np.inf, -np.inf
    perms = itertools.permutations(range(n))
    while chunk := list(itertools.islice(perms, 2520)):
        P = np.array(chunk, dtype=int)
        X = np.zeros((len(P), n * n))
        X[np.arange(len(P))[:, None], np.arange(n) * n + P] = 1.0
        energies = ((X @ W) * X).sum(axis=1) + X @ c
        lo, hi = min(lo, float(energies.min())), max(hi, float(energies.max()))
    return lo, hi


def assignment_energy(W, c, n, assignment) -> float:
    x = np.zeros(n * n)
    x[np.arange(n) * n + np.asarray(assignment, dtype=int)] = 1.0
    return float(x @ W @ x + c @ x)


# -- model reference ----------------------------------------------------------

def model_energy(Q, q, offset, bits) -> float:
    x = np.asarray(bits, dtype=float)
    return float(x @ Q @ x + q @ x + offset)


def decode_bits(formulation: str, n: int, bits):
    """Column assignment of a model state, or None when it is no permutation.

    ``inserted`` states hold the interior (n-1)x(n-1) block of X; the first
    row and column follow from the unit row and column sums.
    """
    b = np.asarray(bits, dtype=int)
    if formulation == "inserted":
        Y = b.reshape(n - 1, n - 1, order="F")
        X = np.zeros((n, n), dtype=int)
        X[1:, 1:] = Y
        X[0, 1:] = 1 - Y.sum(axis=0)
        X[1:, 0] = 1 - Y.sum(axis=1)
        X[0, 0] = 1 - X[0, 1:].sum()
    else:
        X = b.reshape(n, n, order="F")
    if not np.all((X == 0) | (X == 1)):
        return None
    if np.any(X.sum(axis=0) != 1) or np.any(X.sum(axis=1) != 1):
        return None
    return tuple(int(i) for i in np.argmax(X, axis=0))


def check_entries(entries, model, W, c) -> list[str]:
    """Sample entries (dicts with bits/energy/valid/assignment) against the model.

    Each energy must equal the model energy of its bits, each decoded
    assignment must be the permutation the bits encode, and a feasible
    entry's energy must equal the QAP objective of its assignment (the
    penalties vanish on permutations).
    """
    Q, q, offset = np.asarray(model.Q), np.asarray(model.q), model.offset
    n, formulation = model.n, model.formulation
    failures = []
    for e in entries:
        bits = e["bits"]
        expected = model_energy(Q, q, offset, bits)
        if not close(e["energy"], expected):
            failures.append(f"sample energy {e['energy']!r} != recomputed {expected!r}")
        perm = decode_bits(formulation, n, bits)
        got = None if e["assignment"] is None else tuple(e["assignment"])
        if got != perm or bool(e["valid"]) != (perm is not None):
            failures.append(f"decoded assignment {got} != {perm} for bits {list(bits)}")
        elif perm is not None and not close(expected, assignment_energy(W, c, n, perm)):
            failures.append(f"feasible state energy {expected!r} != QAP objective")
    return failures


def success_fraction(entries, n, W, c, f_opt: float) -> float:
    hits = sum(
        e["count"] for e in entries
        if e["assignment"] is not None and is_optimal(assignment_energy(W, c, n, e["assignment"]) - f_opt, f_opt)
    )
    return hits / sum(e["count"] for e in entries)


def normalized_energy(formulation, n, W, c, bits, f_opt, f_worst) -> float:
    """Energy above the optimum of a returned state; infeasible states pay the worst."""
    perm = decode_bits(formulation, n, bits)
    if perm is None:
        return f_worst - f_opt
    return assignment_energy(W, c, n, perm) - f_opt


def check_result(result: dict, n: int, W, c, f_opt, f_worst) -> list[str]:
    """One (formulation, scale) row of a bench report against the oracle."""
    expected = normalized_energy(
        result["formulation"], n, W, c, result["most_frequent_bits"], f_opt, f_worst
    )
    failures = []
    if not close(result["normalized_energy"], expected, rtol=1e-8):
        failures.append(
            f"{result['formulation']}@{result['scale']}: normalized energy "
            f"{result['normalized_energy']!r} != recomputed {expected!r}"
        )
    if bool(result["success"]) != is_optimal(expected, f_opt):
        failures.append(f"{result['formulation']}@{result['scale']}: success flag disagrees")
    if not 0.0 <= result["success_fraction"] <= 1.0:
        failures.append(f"success fraction {result['success_fraction']!r} outside [0, 1]")
    return failures


# -- spectral reference -------------------------------------------------------

def spin_diagonal(model) -> np.ndarray:
    """Coupling-normalised spin energies of every basis state (bit i = LSB i).

    Binary and spin energies agree state by state; the normalisation divides
    by max(max|Q_s|, max|q_s| / 2) with Q_s = Q/4 and q_s = (Q 1 + q)/2.
    """
    Q = (np.asarray(model.Q) + np.asarray(model.Q).T) / 2.0
    q = np.asarray(model.q)
    m = model.dim
    states = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    energies = ((states @ Q) * states).sum(axis=1) + states @ q + model.offset
    r = max(np.abs(Q / 4.0).max(initial=0.0), np.abs((Q.sum(axis=1) + q) / 2.0).max(initial=0.0) / 2.0)
    return energies / r if r > 0 else energies


def dense_two_lowest(diagonal: np.ndarray, u: float) -> tuple[float, float]:
    """Two lowest eigenvalues of u diag + (1-u)(-sum_i sigma_x^i), densely."""
    dim = diagonal.shape[0]
    m = dim.bit_length() - 1
    z = np.arange(dim)
    H = np.diag(u * diagonal)
    for i in range(m):
        H[z, z ^ (1 << i)] -= 1.0 - u
    vals = np.linalg.eigvalsh(H)
    return float(vals[0]), float(vals[1])


def check_gap(model, profile, reported_min_gap) -> list[str]:
    """A gap profile and the reported min_gap against dense diagonalisation.

    At the profile's argmin and two more grid points, e0/e1 must match the
    dense eigenvalues; the reported min_gap must equal the dense gap at the
    argmin and may not exceed it at the other points.
    """
    failures = []
    diagonal = spin_diagonal(model)
    ts = np.asarray(profile.ts)
    k_min = int(np.argmin(np.asarray(profile.e1) - np.asarray(profile.e0)))
    for k in [k_min, len(ts) // 3, 2 * len(ts) // 3]:
        e0, e1 = dense_two_lowest(diagonal, float(ts[k]))
        if abs(e0 - profile.e0[k]) > EIGEN_ATOL or abs(e1 - profile.e1[k]) > EIGEN_ATOL:
            failures.append(
                f"u={ts[k]:.4g}: eigenvalues ({profile.e0[k]!r}, {profile.e1[k]!r}) "
                f"!= dense ({e0!r}, {e1!r})"
            )
        gap = e1 - e0 if e1 - e0 >= DEGENERACY_TOL else 0.0
        if k == k_min and abs(reported_min_gap - gap) > EIGEN_ATOL:
            failures.append(f"min_gap {reported_min_gap!r} != dense gap {gap!r} at u={ts[k]:.4g}")
        elif reported_min_gap > gap + EIGEN_ATOL:
            failures.append(f"min_gap {reported_min_gap!r} exceeds dense gap {gap!r} at u={ts[k]:.4g}")
    return failures


def check_norm(state) -> list[str]:
    norm = float(np.linalg.norm(state))
    return [] if abs(norm - 1.0) <= NORM_ATOL else [f"final state norm {norm!r} differs from 1"]
