"""Interpolated annealing Hamiltonians and spectral-gap profiles.

The problem Hamiltonian H_P is diagonal in the computational basis and
carries the spin energy of each basis state; the mixer H_B is the
transverse-field operator -sum_i sigma_x^(i), whose unique ground state
is the uniform superposition (eigenvalue -m).  Along the schedule the
system evolves under

    H(u) = u * H_P + (1 - u) * H_B,   u in [0, 1],

and the minimal difference between the two lowest eigenvalues of H(u)
over the path (the spectral gap) governs how slowly the interpolation
must be traversed.

The mixer is stored as a sparse (CSR) matrix, built once per
Hamiltonian pair: m off-diagonal entries of -1 per row, so one product
with H(u) costs O(m 2^m).  The eigensolver and the propagator both
apply H(u) through that one matrix.

Bit convention, shared with the annealing simulators: bit i of the
basis index is the i-th least significant bit and maps to spin -1 when
0 and +1 when 1.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import SizeCapError, SolverError
from .qubo import QuboModel, SpinModel, enumerate_states, normalize_couplings, to_spin

MAX_QUBITS = 16

# Two eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-10

# Below this dimension ARPACK has no room for a Krylov subspace with
# k=2; the operator is diagonalised directly instead.
_DENSE_DIM = 8


@dataclass
class HamiltonianPair:
    """Diagonal problem Hamiltonian plus sparse transverse-field mixer.

    The mixer matrix is built on first use and kept for the lifetime of
    the pair.
    """

    num_qubits: int
    problem_diagonal: np.ndarray

    def __post_init__(self):
        self.num_qubits = int(self.num_qubits)
        self.problem_diagonal = np.asarray(self.problem_diagonal, dtype=float)
        if self.problem_diagonal.shape != (2**self.num_qubits,):
            raise ValueError("problem diagonal length must be 2**num_qubits")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    @cached_property
    def mixer(self) -> csr_array:
        """-sum_i sigma_x^(i) in CSR form: entry (z, z ^ (1 << i)) is -1.

        Within a row the columns run from the highest flipped bit to the
        lowest; that order fixes the rounding of every product.
        """
        m, dim = self.num_qubits, self.dim
        bits = 1 << np.arange(m - 1, -1, -1, dtype=np.int32)
        cols = (np.arange(dim, dtype=np.int32)[:, None] ^ bits).ravel()
        indptr = m * np.arange(dim + 1, dtype=np.int32)
        return csr_array((np.full(dim * m, -1.0), cols, indptr), shape=(dim, dim))

    def apply(self, u: float, v: np.ndarray) -> np.ndarray:
        """Action of H(u) = u H_P + (1-u) H_B on v."""
        v = np.asarray(v)
        out = u * (self.problem_diagonal * v)
        if u != 1.0:
            out = out + (1.0 - u) * (self.mixer @ v)
        return out

    def norm_bound(self, u: float) -> float:
        """Upper bound on ||H(u)||_2 used to pace propagator steps."""
        return u * float(np.abs(self.problem_diagonal).max()) + (1.0 - u) * self.num_qubits


@dataclass
class GapProfile:
    """Two lowest eigenvalues sampled along the interpolation path."""

    ts: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    min_gap: float
    argmin_t: float

    def gaps(self) -> np.ndarray:
        g = self.e1 - self.e0
        g[g < DEGENERACY_TOL] = 0.0
        return g

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "e0", "e1", "gap"])
            for u, a, b, g in zip(self.ts, self.e0, self.e1, self.gaps()):
                writer.writerow([repr(float(u)), repr(float(a)), repr(float(b)), repr(float(g))])

    def summary(self, **extra) -> dict:
        out = {"min_gap": self.min_gap, "argmin_t": self.argmin_t}
        out.update(extra)
        return out

    def save_summary(self, path, **extra) -> None:
        Path(path).write_text(json.dumps(self.summary(**extra), sort_keys=True), encoding="utf-8")


def build_hamiltonians(model: SpinModel) -> HamiltonianPair:
    """Tabulate the spin energy of every basis state as the problem diagonal."""
    m = model.num_variables
    if m > MAX_QUBITS:
        raise SizeCapError(
            f"Hamiltonian construction is limited to {MAX_QUBITS} qubits, got {m}"
        )
    spins = 2.0 * enumerate_states(m) - 1.0
    return HamiltonianPair(num_qubits=m, problem_diagonal=model.energies(spins))


def interpolated_hamiltonian(pair: HamiltonianPair, u: float) -> LinearOperator:
    """H(u) as a scipy LinearOperator; Hermitian by construction."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    return LinearOperator(
        shape=(pair.dim, pair.dim),
        matvec=lambda v: pair.apply(u, np.asarray(v).reshape(-1)),
        dtype=float,
    )


def _dense_matrix(pair: HamiltonianPair, u: float) -> np.ndarray:
    return u * np.diag(pair.problem_diagonal) + (1.0 - u) * pair.mixer.toarray()


def two_lowest_eigenvalues(pair: HamiltonianPair, u: float) -> tuple[float, float]:
    """Two smallest eigenvalues of H(u), counted with multiplicity.

    Uses an iterative Krylov (Lanczos) solver, whose products with H(u)
    go through the pair's sparse mixer matrix, and a deterministic start
    vector.  At u = 1 the operator is diagonal and is read off directly,
    which keeps exact ground-state degeneracies visible (a Krylov space
    built from a single vector cannot resolve multiplicity).
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if u == 1.0:
        two = np.partition(pair.problem_diagonal, 1)[:2]
        return float(two[0]), float(two[1])
    if pair.dim <= _DENSE_DIM:
        vals = np.linalg.eigvalsh(_dense_matrix(pair, u))
        return float(vals[0]), float(vals[1])

    op = interpolated_hamiltonian(pair, u)
    v0 = np.full(pair.dim, 1.0 / np.sqrt(pair.dim))
    ncv = min(pair.dim, 32)
    maxiter = 10 * pair.dim
    for attempt in range(3):
        try:
            vals = eigsh(
                op, k=2, which="SA", v0=v0, ncv=ncv, maxiter=maxiter,
                tol=1e-12, return_eigenvectors=False,
            )
            vals = np.sort(vals)
            return float(vals[0]), float(vals[1])
        except ArpackNoConvergence:
            # Retry policy: restart with a larger subspace and budget.
            ncv = min(pair.dim, ncv * 2)
            maxiter *= 5
    raise SolverError(
        f"eigensolver did not converge at u={u} after retries (dim={pair.dim})"
    )


def spectral_gap(pair: HamiltonianPair, num_samples: int = 64) -> GapProfile:
    """Sample the two lowest eigenvalues on a uniform grid over [0, 1].

    Numerically degenerate pairs (|e1 - e0| < 1e-10) are reported as gap
    zero with a warning: a vanishing gap voids the usual guarantee that
    a slow interpolation tracks the ground state.
    """
    if num_samples < 2:
        raise ValueError(f"num_samples must be at least 2, got {num_samples}")
    ts = np.linspace(0.0, 1.0, num_samples)
    e0 = np.empty(num_samples)
    e1 = np.empty(num_samples)
    for k, u in enumerate(ts):
        e0[k], e1[k] = two_lowest_eigenvalues(pair, float(u))
    gaps = e1 - e0
    degenerate = gaps < DEGENERACY_TOL
    if np.any(degenerate):
        warnings.warn(
            "degenerate levels along the path: gap reported as 0 where "
            f"|e1-e0| < {DEGENERACY_TOL}",
            stacklevel=2,
        )
        gaps = gaps.copy()
        gaps[degenerate] = 0.0
    idx = int(np.argmin(gaps))
    return GapProfile(
        ts=ts, e0=e0, e1=e1, min_gap=float(gaps[idx]), argmin_t=float(ts[idx])
    )


def gap_profile(model: QuboModel, num_samples: int = 64) -> GapProfile:
    """Gap profile of a binary model's annealing Hamiltonian.

    The spin form is coupling-normalised so that profiles of differently
    scaled penalties are comparable (the raw spectrum would simply grow
    with the penalty strength).
    """
    spin, _ = normalize_couplings(to_spin(model))
    return spectral_gap(build_hamiltonians(spin), num_samples=num_samples)
