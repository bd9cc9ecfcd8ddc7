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

The two lowest eigenvalues come from a deterministic Lanczos solver
(Paige 1972; Parlett, The Symmetric Eigenvalue Problem, 1998) with full
reorthogonalisation and a start vector drawn from a fixed seed, so a
repeated eigensolve, and therefore a repeated gap profile, is
bit-identical.

Bit convention, shared with the annealing simulators: bit i of the
basis index is the i-th least significant bit and maps to spin -1 when
0 and +1 when 1.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_array

from .errors import check_count, check_size
from .qubo import QuboModel, SpinModel, enumerate_states, normalize_couplings, to_spin

# Two eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-10

# Lanczos eigensolver: the Ritz pairs are checked every _CHECK_EVERY
# steps and accepted once both residual estimates are below _EIG_TOL.
# A new vector shorter than _BREAKDOWN * ||H(u)|| (bound) marks an
# invariant subspace.  Start and restart vectors come from _START_SEED.
_EIG_TOL = 1e-12
_CHECK_EVERY = 8
_BREAKDOWN = 1e-12
_START_SEED = 2021


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


def _gaps(e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """e1 - e0, with each gap below DEGENERACY_TOL (a degenerate pair) set to 0."""
    g = e1 - e0
    g[g < DEGENERACY_TOL] = 0.0
    return g


@dataclass
class GapProfile:
    """Two lowest eigenvalues sampled along the interpolation path."""

    ts: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    min_gap: float
    argmin_t: float

    def gaps(self) -> np.ndarray:
        return _gaps(self.e0, self.e1)

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


def build_hamiltonians(model: SpinModel) -> HamiltonianPair:
    """Tabulate the spin energy of every basis state as the problem diagonal."""
    m = model.num_variables
    check_size("hamiltonian", m)
    spins = 2.0 * enumerate_states(m) - 1.0
    return HamiltonianPair(num_qubits=m, problem_diagonal=model.energies(spins))


def _orthogonalise(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w minus its projection on the orthonormal rows of V: two classical
    Gram-Schmidt passes, since one loses orthogonality in floating point."""
    for _ in range(2):
        w = w - V.T @ (V @ w)
    return w


def eigsh(pair: HamiltonianPair, u: float) -> tuple[float, float]:
    """Two smallest eigenvalues of H(u) by Lanczos with full reorthogonalisation.

    The start vector is a standard normal draw from a fixed seed, so it
    overlaps every eigenspace (and symmetry sector) and a rerun repeats
    every operation.  Every _CHECK_EVERY steps the lowest two Ritz pairs
    (theta_i, s_i) of the tridiagonal T_m are computed; the run stops
    when both residuals beta_m |s_m,i| are below _EIG_TOL, so that each
    theta_i lies within _EIG_TOL of an eigenvalue, or when the basis
    spans the whole space (m = dim), where T_m holds every eigenvalue
    with its multiplicity.  On breakdown (an invariant subspace before
    m = dim) the run continues from a fresh seeded vector orthogonalised
    against the basis, which can find further copies of a level, and it
    stops early only once that open block's lowest Ritz pair has
    converged too.  All products with H(u) go through
    ``HamiltonianPair.apply``; ``perfbench/spans.py`` traces the solver
    under the name ``eigsh`` and counts those products.
    """
    dim = pair.dim
    rng = np.random.default_rng(_START_SEED)
    tiny = _BREAKDOWN * pair.norm_bound(u)
    V = np.empty((min(dim, 64), dim))  # basis rows; doubled when full
    alphas = np.empty(dim)
    betas = np.zeros(dim)
    v = rng.standard_normal(dim)
    V[0] = v / np.linalg.norm(v)
    m = start = 0  # start: first row of the current Krylov block
    while True:
        w = pair.apply(u, V[m])
        alphas[m] = V[m] @ w
        # Full reorthogonalisation also removes the alpha and beta terms.
        w = _orthogonalise(V[: m + 1], w)
        beta = float(np.linalg.norm(w))
        m += 1
        if m == dim or m % _CHECK_EVERY == 0:
            theta, S = eigh_tridiagonal(
                alphas[:m], betas[: m - 1], select="i", select_range=(0, 1)
            )
            converged = bool(np.all(beta * np.abs(S[-1]) < _EIG_TOL))
            if converged and start:
                # Earlier blocks are invariant, so their Ritz pairs have zero
                # residual; the open block must also have found its lowest
                # level, or a second copy of a low level could still be missed.
                _, s = eigh_tridiagonal(
                    alphas[start:m], betas[start : m - 1], select="i", select_range=(0, 0)
                )
                converged = beta * abs(s[-1, 0]) < _EIG_TOL
            if converged or m == dim:
                return float(theta[0]), float(theta[1])
        if beta < tiny:
            w = _orthogonalise(V[:m], rng.standard_normal(dim))
            beta = float(np.linalg.norm(w))
            start = m
        else:
            betas[m - 1] = beta
        if m == len(V):
            V = np.concatenate((V, np.empty((min(m, dim - m), dim))))
        V[m] = w / beta


def two_lowest_eigenvalues(pair: HamiltonianPair, u: float) -> tuple[float, float]:
    """Two smallest eigenvalues of H(u), counted with multiplicity.

    One call of the deterministic Lanczos solver ``eigsh``, so the result
    is bit-identical from run to run.  At u = 1 the operator is diagonal
    and is read off directly, which keeps exact ground-state
    degeneracies visible.  For u < 1 the ground state is simple (H(u)
    has negative off-diagonal entries on the connected hypercube, so
    Perron-Frobenius applies) and e1 is the next eigenvalue, which the
    seeded start vector reaches in every symmetry sector.  Where the
    Krylov space is exhausted, always so for dim <= _CHECK_EVERY, every
    eigenvalue is counted with its full multiplicity.  Otherwise a level
    within about _EIG_TOL of e0 can go unresolved, as for any Krylov
    solver started from one vector; e1 is then the level above it.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    if u == 1.0:
        two = np.partition(pair.problem_diagonal, 1)[:2]
        return float(two[0]), float(two[1])
    return eigsh(pair, u)


def spectral_gap(pair: HamiltonianPair, num_samples: int = 64) -> GapProfile:
    """Sample the two lowest eigenvalues on a uniform grid over [0, 1].

    Numerically degenerate pairs (see ``_gaps``) are reported as gap
    zero with a warning: a vanishing gap voids the usual guarantee that
    a slow interpolation tracks the ground state.
    """
    num_samples = check_count("num_samples", num_samples, least=2)
    ts = np.linspace(0.0, 1.0, num_samples)
    e0 = np.empty(num_samples)
    e1 = np.empty(num_samples)
    for k, u in enumerate(ts):
        e0[k], e1[k] = two_lowest_eigenvalues(pair, float(u))
    gaps = _gaps(e0, e1)
    if np.any(gaps == 0.0):
        warnings.warn(
            "degenerate levels along the path: gap reported as 0 where "
            f"|e1-e0| < {DEGENERACY_TOL}",
            stacklevel=2,
        )
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
