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

The mixer is never stored as a 2^m x 2^m matrix.  H_B is a sum of one
term per qubit, so with the state viewed as an array over groups of at
most _GROUP_QUBITS qubits each, H_B v = -sum_j A_{k_j} applied along
group axis j, where A_k is the adjacency matrix of the k-bit hypercube
(its entries are 1 where _HAMMING[k] is 1).  A product is a few small
matrix products, one per group.  The eigensolver and the propagator
apply H(u) only through the pair's centred twin (``HamiltonianPair.centred``),
whose ``apply`` keeps u H_P and the scaled group matrices of the last u it saw.

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

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import isfinite

import numpy as np

from .errors import SolverError, check_count, check_size, check_work, write_csv
from .qubo import QuboModel, SpinModel, enumerate_states, normalize_couplings, to_spin

# Two eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-10

# Lanczos eigensolver: the Ritz pairs are checked every _CHECK_EVERY
# steps and accepted once both residual estimates are below _EIG_TOL.
# A new vector shorter than _BREAKDOWN * half_width(u) marks an invariant
# subspace.  Start and restart vectors come from _START_SEED.
_EIG_TOL = 1e-12
_CHECK_EVERY = 8
_BREAKDOWN = 1e-12
_START_SEED = 2021

# The mixer acts on the state's qubits in groups of at most this many: 16
# qubits split 6+5+5, where two groups of 8 made slower products.
_GROUP_QUBITS = 6


def _hamming_table(k: int) -> np.ndarray:
    flips = np.arange(2**k)[:, None] ^ np.arange(2**k)[None, :]
    return sum(((flips >> i) & 1 for i in range(k)), np.zeros_like(flips))


# _HAMMING[k][z, w] is the Hamming distance of the k-bit indices z and w, for
# every group size.
_HAMMING = tuple(_hamming_table(k) for k in range(_GROUP_QUBITS + 1))


@cache  # asked on every Trotter rotation, where computing it cost a tenth of one at 9 qubits
def _qubit_groups(m: int) -> tuple[int, ...]:
    """Sizes of the fewest near-equal groups of at most _GROUP_QUBITS qubits
    that hold m qubits, high bits first: 9 is 5+4, 12 is 6+6, 16 is 6+5+5."""
    count = max(1, -(-m // _GROUP_QUBITS))
    return tuple(m // count + (j < m % count) for j in range(count))


@dataclass
class HamiltonianPair:
    """Diagonal problem Hamiltonian plus transverse-field mixer, applied by groups.

    H_P is held as a read-only copy, so no cache goes stale: its range is
    kept from the check that the pair is made with, the centred twin from
    first use, and the terms of H(u) at the last u that ``apply`` saw until
    it sees another.
    """

    num_qubits: int
    problem_diagonal: np.ndarray
    # (u, u H_P, the group matrices -(1-u) A_k): one entry, replaced when u changes
    _terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.num_qubits = check_count("num_qubits", self.num_qubits)
        self.problem_diagonal = np.array(self.problem_diagonal, dtype=float)
        self.problem_diagonal.flags.writeable = False
        if self.problem_diagonal.shape != (2**self.num_qubits,):
            raise ValueError("problem diagonal length must be 2**num_qubits")
        # A NaN or infinite entry makes the spread NaN or infinite too.  Both Krylov
        # solvers scale by the spread (half_width), so it must be finite as well.
        lo, hi = self._problem_range
        if not isfinite(hi - lo):
            raise ValueError("problem diagonal must be finite, and so must its range max - min")
        # The centred twin's entries reach half the range, and a Krylov vector's norm
        # squares them.
        half = (hi - lo) / 2.0
        if not isfinite(half * half):
            raise ValueError("problem diagonal's half range (max - min) / 2 must have a "
                             "finite square")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def apply(self, u: float, v: np.ndarray) -> np.ndarray:
        """Action of H(u) = u H_P + (1-u) H_B on v.

        v is viewed as an array over the qubit groups of ``_qubit_groups``
        and each group's matrix -(1-u) A_k acts along its axis: from the
        left on every group but the last, which (A_k being symmetric) is
        multiplied from the right.  From 7 to 12 qubits that is
        A_a Psi + Psi A_b for v as a (2^a, 2^b) matrix Psi; up to 6 it is
        one product with A_m.
        """
        v = np.asarray(v)
        terms = self._terms
        if terms is None or terms[0] != u:
            off = -(1.0 - u)
            factors = tuple(np.where(_HAMMING[k] == 1, off, 0.0)
                            for k in _qubit_groups(self.num_qubits))
            terms = self._terms = (u, u * self.problem_diagonal, factors)
        _, scaled, (*lead, last) = terms
        out = scaled * v
        if u != 1.0:
            # A real factor acts alike on the real and imaginary parts, so the
            # left products of a complex v run on float views of twice the width.
            flat_out, flat_v = out, v
            if np.iscomplexobj(out):
                flat_out, flat_v = out.view(float), np.ascontiguousarray(v, complex).view(float)
            rows = 1
            for factor in lead:
                k = len(factor)
                view = flat_out.reshape(rows, k, -1)
                view += factor @ flat_v.reshape(rows, k, -1)
                rows *= k
            view = out.reshape(rows, -1)
            view += v.reshape(rows, -1) @ last
        return out

    @cached_property
    def _problem_range(self) -> tuple[float, float]:
        # min and max H_P entry without an |H_P|-sized temporary, so that the
        # propagator's work check allocates nothing
        return float(self.problem_diagonal.min()), float(self.problem_diagonal.max())

    @cached_property
    def centred(self) -> tuple[float, HamiltonianPair]:
        """(c, the pair over H_P - c), c = (min H_P + max H_P) / 2: its H(u) is
        H(u) - u c, so a Krylov vector's rounding scales with ``half_width(u)``,
        whatever the offset of H_P."""
        lo, hi = self._problem_range
        c = lo / 2.0 + hi / 2.0
        return c, HamiltonianPair(self.num_qubits, self.problem_diagonal - c)

    def half_width(self, u: float) -> float:
        """Upper bound |u| (max H_P - min H_P) / 2 + |1-u| m on the half-width of the
        spectrum of H(u), and so on the centred twin's ||H(u)||, for any real u.

        The one scale of the eigensolver's breakdown test and the propagator's
        substeps.  A CF4 step evaluates H at a mix of two path values with one
        negative weight; on its breakpoint-aligned grid that mix stays in
        [0, 1] but for rounding, and the bound holds anyway.
        """
        lo, hi = self._problem_range
        return abs(u) * (hi - lo) / 2.0 + abs(1.0 - u) * self.num_qubits


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

    def curve(self) -> dict:
        """The curve's columns by name, in CSV order: u, e0, e1, gap."""
        return {"u": self.ts, "e0": self.e0, "e1": self.e1, "gap": self.gaps()}

    def to_csv(self, path) -> None:
        curve = self.curve()
        write_csv(path, list(curve), zip(*curve.values()))

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


def _lowest_ritz(alphas: np.ndarray, betas: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues of the symmetric tridiagonal T with diagonal
    ``alphas`` and off-diagonal ``betas``, ascending, and their eigenvectors
    as columns.

    The same LAPACK calls as ``eigh_tridiagonal(alphas, betas, select="i",
    select_range=(0, k - 1))``, so the same bits: dstebz by index with the
    default tolerance, in block order, then dstein, then a sort into
    ascending order.  Called directly, they skip that wrapper's argument
    checks, which cost several times the arithmetic at these sizes.  They are
    the package's only scipy calls, imported here at the first call: importing
    scipy.linalg costs a process about 0.23 s and 28 MB of peak RSS (medians of
    10 fresh interpreters on a 2-core Xeon, numpy 2.4, scipy 1.17), about ten
    times an n = 8 SA solve, which a command without gap profiles never pays.
    """
    if len(alphas) == 1:
        return alphas[:1].copy(), np.ones((1, 1))
    from scipy.linalg import lapack

    found, theta, block, split, info = lapack.dstebz(alphas, betas, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if not info:
        vectors, info = lapack.dstein(alphas, betas, theta[:found], block, split)
    if info:
        raise SolverError(f"tridiagonal eigensolver failed (LAPACK info {info})")
    order = np.argsort(theta[:found])
    return theta[:found][order], vectors[:, order]


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
    converged too.  The Ritz pairs come from ``_lowest_ritz``, which calls
    LAPACK directly.  All products go through the centred twin's ``apply``
    (``HamiltonianPair.centred``), and u c is added back to the Ritz values;
    ``perfbench/spans.py`` traces the solver under the name ``eigsh`` and
    counts those products.
    """
    dim = pair.dim
    shift, twin = pair.centred
    rng = np.random.default_rng(_START_SEED)
    tiny = _BREAKDOWN * pair.half_width(u)
    V = np.empty((min(dim, 64), dim))  # basis rows; doubled when full
    alphas = np.empty(dim)
    betas = np.zeros(dim)
    v = rng.standard_normal(dim)
    V[0] = v / np.linalg.norm(v)
    m = start = 0  # start: first row of the current Krylov block
    while True:
        w = twin.apply(u, V[m])
        alphas[m] = V[m] @ w
        # Full reorthogonalisation also removes the alpha and beta terms.
        w = _orthogonalise(V[: m + 1], w)
        beta = float(np.linalg.norm(w))
        m += 1
        if m == dim or m % _CHECK_EVERY == 0:
            theta, S = _lowest_ritz(alphas[:m], betas[: m - 1], 2)
            converged = bool(np.all(beta * np.abs(S[-1]) < _EIG_TOL))
            if converged and start:
                # Earlier blocks are invariant, so their Ritz pairs have zero
                # residual; the open block must also have found its lowest
                # level, or a second copy of a low level could still be missed.
                _, s = _lowest_ritz(alphas[start:m], betas[start : m - 1], 1)
                converged = beta * abs(s[-1, 0]) < _EIG_TOL
            if converged or m == dim:
                return float(theta[0]) + u * shift, float(theta[1]) + u * shift
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


def _check_gap_request(num_qubits: int, num_samples: int) -> None:
    """Refuse, before any work, a profile over the annealing Hamiltonian's qubit cap,
    then one over the gap work cap, which charges one eigensolve of 2^m amplitudes
    per grid point."""
    check_size("hamiltonian", num_qubits)
    check_work("gap", num_samples * 2**num_qubits)


def annealing_hamiltonian(model: QuboModel) -> HamiltonianPair:
    """The annealing Hamiltonian of a binary model: the pair built from its
    coupling-normalised spin form.

    Normalising makes gap profiles and anneals of differently scaled
    penalties comparable (the raw spectrum would simply grow with the
    penalty strength).  Every solver and profile of a model goes through
    this one map.
    """
    spin, _ = normalize_couplings(to_spin(model))
    return build_hamiltonians(spin)


def gap_profile(model: QuboModel, num_samples: int = 64) -> GapProfile:
    """The two lowest eigenvalues of a model's annealing Hamiltonian
    (``annealing_hamiltonian``) on a uniform grid over [0, 1].

    The sample count, then the caps (``_check_gap_request``) are checked
    before the Hamiltonian is built.  Numerically degenerate pairs (see
    ``_gaps``) are reported as gap zero with a warning: a vanishing gap
    voids the usual guarantee that a slow interpolation tracks the ground
    state.
    """
    num_samples = check_count("num_samples", num_samples, least=2)
    _check_gap_request(model.dim, num_samples)
    pair = annealing_hamiltonian(model)
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
