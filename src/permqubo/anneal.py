"""Annealing simulators: Schrödinger evolution and classical Metropolis.

The quantum simulators integrate i d/dt |psi> = H(t) |psi| with
H(t) = u(t) H_P + (1 - u(t)) H_B, starting from the uniform
superposition (the mixer ground state).  Time is dimensionless (hbar=1);
tau is the total evolution time and u(t) follows a piecewise-linear
schedule path.  Both simulators and the classical sampler produce
SampleSets: multisets of binary states held as columns (states, counts,
energies, valid, assignments), one row per distinct state, sorted by
(energy, bits), with total = counts.sum().  The modal row is the first
row of the largest count: count ties go to lower energy, then smaller bits.

Pricing lives here too: ``price`` and ``success_probability`` score a
SampleSet against the exact optimum f_opt, all valid rows in one batch.
A row is optimal when its energy is at most f_opt + ENERGY_RTOL *
max(1, |f_opt|); ``price`` charges an invalid modal row f_worst.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import ceil, factorial, isfinite, sqrt

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dstevd

from .errors import SolverError, check_count, check_positive, check_size, check_work
from .qap import QapInstance, permutation_extremes
from .qubo import QuboModel, decode_states
from .spectral import _HAMMING, HamiltonianPair, _qubit_groups

# Optimality comparisons between recomputed permutation energies.
ENERGY_RTOL = 1e-9

# A state whose norm drifted further than this from 1 is renormalised.
_NORM_DRIFT = 1e-10
# The error budget of ``evolve``, in one place.  The integrator is the
# fourth-order commutator-free Magnus step CF4: a step of width dt is two
# exponentials exp(-i dt/2 H(u~)), and halving dt cuts the global error about
# 16x.  By default a schedule takes max(_MIN_STEPS, ceil(_STEPS_PER_TIME * tau))
# steps (dt <= 0.4).  On n = 3 instances at tau = 5 to 100, on linear and
# plateau paths, the final state is then within 8e-6 to 7e-5 (2-norm) of the
# exact one.  Each exponential is split into substeps whose |dt| times the
# half-width of H's spectrum stays within _STEP_BUDGET, and each substep stops
# its Krylov expansion at an error bound of _KRYLOV_TOL and adds at most that
# error.  Measured on n = 3 baseline and row_wise models at tau = 20 and
# 100, on both paths, these stops move the final state by 1e-7 to 8e-7, at
# most 9% of the integrator's error, and its distance from the exact state
# by under 2%.
_MIN_STEPS = 25
_STEPS_PER_TIME = 2.5
_KRYLOV_TOL = 1e-8
# Hard cap on the Krylov basis of one exponential; with |dt| times the
# spectrum's half-width within _STEP_BUDGET the stop above is met within it
# ((4^m / m!) < 1e-8 at m = 23).
_KRYLOV_DIM = 24
# Substep budget: an exponential whose |dt| times the half-width of H's
# spectrum (HamiltonianPair.half_width) exceeds this is split.
_STEP_BUDGET = 4.0
# Gauss nodes of a step, as fractions of it, and the CF4 weights
# alpha_1,2 = (3 -+ 2 sqrt 3) / 12 (Blanes and Moan, Appl. Numer. Math. 56,
# 2006; Alvermann and Fehske, J. Comput. Phys. 230, 2011).
_GAUSS = (0.5 - sqrt(3.0) / 6.0, 0.5 + sqrt(3.0) / 6.0)
_CF4 = ((3.0 - 2.0 * sqrt(3.0)) / 12.0, (3.0 + 2.0 * sqrt(3.0)) / 12.0)
# Equal-width energy bins of a histogram CSV.
HISTOGRAM_BINS = 40
# Simulated annealing draws its random numbers in blocks of this many runs,
# one generator per block; the value is part of the draw contract.
_SA_BLOCK = 64
# Memory budget, in doubles, of one chunk of simulated-annealing runs.
_SA_CHUNK_DOUBLES = 2**21
# Simulated annealing applies the field updates of this many columns with one
# matrix product.
_SA_PANEL = 16


@dataclass
class AnnealSchedule:
    """Total time tau plus a piecewise-linear map s -> u of the path.

    ``path`` lists (s, u) breakpoints with s = t / tau; it must be
    monotone with path(0) = 0 and path(1) = 1.  A plateau breakpoint
    models a mid-anneal break.  ``steps`` asks for that many CF4 steps of
    ``evolve``, two exponentials each; when None, 2.5 steps per unit time
    (at least 25) are used (see the error budget at the top of the module).
    """

    tau: float
    path: tuple = ((0.0, 0.0), (1.0, 1.0))
    steps: int | None = None
    # the breakpoints' s and u as arrays, for path_value
    _ss: np.ndarray = field(init=False, repr=False, compare=False)
    _us: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tau = check_positive("tau", self.tau)
        pts = [(float(s), float(u)) for s, u in self.path]
        if len(pts) < 2:
            raise ValueError("path needs at least two breakpoints")
        if not all(isfinite(v) for p in pts for v in p):
            raise ValueError(f"path breakpoints must be finite, got {pts}")
        ss = [p[0] for p in pts]
        us = [p[1] for p in pts]
        if ss != sorted(ss):
            raise ValueError("path breakpoints must be sorted in s")
        if any(b < a for a, b in zip(us, us[1:])):
            raise ValueError("path must be monotone nondecreasing")
        if pts[0] != (0.0, 0.0) or pts[-1][0] != 1.0 or pts[-1][1] != 1.0:
            raise ValueError("path must start at (0, 0) and end at (1, 1)")
        self.path = tuple(pts)
        self._ss = np.array(ss)
        self._us = np.array(us)
        if self.steps is not None:
            self.steps = check_count("steps", self.steps)

    def path_value(self, s: float) -> float:
        return float(np.interp(s, self._ss, self._us))

    def segments(self) -> list[tuple[float, float, int]]:
        """The step grid of ``evolve``: (s_start, s_end, steps) per linear piece of the path.

        The requested count is spread over the pieces between distinct
        breakpoints by rounding each breakpoint to the nearest of that many
        uniform steps.  Every piece takes at least one step, so no step
        straddles a kink, where a step would lose its order.
        """
        # Exact arithmetic: a tau near the float range must not overflow.
        count = self.steps if self.steps is not None else max(
            _MIN_STEPS, ceil(Fraction(self.tau) * Fraction(_STEPS_PER_TIME)))
        ss = sorted({s for s, _ in self.path})
        marks = [round(count * Fraction(s)) for s in ss]
        return [(a, b, max(1, kb - ka)) for a, b, ka, kb in zip(ss, ss[1:], marks, marks[1:])]

    def effective_steps(self) -> int:
        """The number of steps ``evolve`` takes."""
        return sum(n for _, _, n in self.segments())


def _lanczos_expm(apply_h, v: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) v for a Hermitian matrix-free action.

    Lanczos with full reorthogonalisation and an adaptive basis size: the
    expansion stops once est_m = prod_{i<=m} |dt| beta_i / i falls below
    _KRYLOV_TOL, and at the latest after _KRYLOV_DIM vectors.  For a unit
    start vector est_m bounds the error of the m-vector result.  From
    H V_m = V_m T_m + beta_m v_{m+1} e_m^T, the error has norm at most
    |dt| beta_m int_0^1 |e_m^T exp(-i s dt T_m) e_1| ds, and that entry is
    prod_{i<m} beta_i times a divided difference of the exponential at the
    real eigenvalues of T_m, so at most
    prod_{i<m} beta_i (s |dt|)^(m-1) / (m-1)! (Hochbruck-Lubich 1997).
    est_m also bounds Saad's (1992) a-posteriori estimate from above, so
    that estimate could never overrule the stop.  Each beta_i is an
    off-diagonal entry of a tridiagonal whose eigenvalues lie in H's
    spectrum, so it is at most half the spectrum's width; the caller keeps
    |dt| times that half-width within _STEP_BUDGET, where the stop is met
    before the cap; est_m <= 4^m / m! < 11, so a breakdown (a beta at the
    rounding level of the centred H the caller passes) ends it too.  The
    result, a Hermitian exponential in an orthonormal basis, keeps the norm.
    """
    norm_v = np.linalg.norm(v)
    if norm_v == 0:
        return v
    k = min(_KRYLOV_DIM, v.shape[0])
    V = np.zeros((k, v.shape[0]), dtype=complex)
    alphas = np.zeros(k)
    betas = np.zeros(max(k - 1, 0))
    V[0] = v / norm_v
    used = k
    est = 1.0
    for j in range(k):
        w = apply_h(V[j])
        alphas[j] = np.vdot(V[j], w).real
        w = w - alphas[j] * V[j]
        if j > 0:
            w = w - betas[j - 1] * V[j - 1]
        # Full reorthogonalisation keeps the basis usable in floating point.
        w = w - V[: j + 1].T @ (V[: j + 1].conj() @ w)
        if j == k - 1:
            break
        beta = np.linalg.norm(w)
        est *= abs(dt) * beta / (j + 1)
        if est < _KRYLOV_TOL:
            used = j + 1
            break
        betas[j] = beta
        V[j + 1] = w / beta
    if used == 1:
        evals, evecs = alphas[:1], np.ones((1, 1))
    else:
        # dstevd is the LAPACK routine eigh_tridiagonal calls for every
        # eigenpair; called directly, it skips that wrapper's argument checks.
        evals, evecs, info = dstevd(alphas[:used], betas[: used - 1])
        if info:
            raise SolverError(f"tridiagonal eigensolver failed (LAPACK info {info})")
    coef = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
    return (coef * norm_v) @ V[:used]


def _check_evolution_request(num_qubits: int, steps: int) -> None:
    """Refuse, before any work, a state-vector run over the annealing Hamiltonian's
    qubit cap (both simulators act on the qubit groups of ``HamiltonianPair.apply``),
    then one of ``steps`` steps over the evolution work cap.

    Each step counts max(2^m, 2^10) amplitudes: below 2^10 amplitudes a
    step costs about its fixed overhead, not its size.
    """
    check_size("hamiltonian", num_qubits)
    check_work("evolution", steps * max(2**num_qubits, 2**10))


def _check_sa_request(runs: int, sweeps: int, dim: int) -> None:
    """Refuse, before any work, an SA request over the SA work cap.

    Each sweep attempts dim flips per run, counted over max(runs, 2^10)
    runs: below 2^10 runs a flip column costs about its fixed overhead,
    not its size.
    """
    check_work("sa", sweeps * dim * max(runs, 2**10))


def _s_at(a: float, w: float, k: int, n: int, x: float) -> float:
    """The s at fraction x of step k of n equal steps over [a, a + w].

    On the one piece [0, 1] this is (k + x) / n bit for bit, the midpoint
    rounding ``evolve_trotter`` has always used, so its states do not move.
    """
    return a + w * ((k + x) / n)


def _step_through(pair: HamiltonianPair, sched: AnnealSchedule, segments, step) -> np.ndarray:
    """The stepping loop shared by the state-vector simulators, which check their
    request (``_check_evolution_request``) before they call it.

    Starts from the uniform superposition (the mixer ground state).  Each
    (a, b, n) of ``segments`` is cut into n equal steps; step k maps psi to
    ``step(at, psi, dt)`` with dt = tau (b - a) / n and at(x) the s at
    fraction x of the step.  Non-finite amplitudes raise SolverError, and a
    norm that drifted more than _NORM_DRIFT from 1 is renormalised.
    """
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    done = 0
    for a, b, n in segments:
        w = b - a
        dt = sched.tau * w / n
        for k in range(n):
            at = partial(_s_at, a, w, k, n)
            psi = step(at, psi, dt)
            if not np.all(np.isfinite(psi.view(float))):
                raise SolverError(f"non-finite amplitudes at step {done}")
            norm = float(np.linalg.norm(psi))
            if abs(norm - 1.0) > _NORM_DRIFT:
                psi = psi / norm
            done += 1
    return psi


def _propagate(pair: HamiltonianPair, u: float, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H(u)) psi: the centred twin's, in the fewest equal substeps whose
    |dt| times ``half_width(u)`` stays within _STEP_BUDGET, times exp(-i dt u c)."""
    shift, twin = pair.centred
    nsub = max(1, ceil(abs(dt) * pair.half_width(u) / _STEP_BUDGET))
    sub = dt / nsub
    for _ in range(nsub):
        psi = _lanczos_expm(lambda w: twin.apply(u, w), psi, sub)
    return psi * np.exp(-1j * dt * u * shift)


def _cf4_step(pair: HamiltonianPair, sched: AnnealSchedule, at, psi: np.ndarray,
              dt: float) -> np.ndarray:
    """One CF4 step: H is affine in u, so alpha_2 H(u_1) + alpha_1 H(u_2) = H(u~) / 2
    with u~ = 2 (alpha_2 u_1 + alpha_1 u_2), and likewise with the weights swapped."""
    u1, u2 = (sched.path_value(at(x)) for x in _GAUSS)
    a1, a2 = _CF4
    psi = _propagate(pair, 2.0 * (a2 * u1 + a1 * u2), psi, dt / 2.0)
    return _propagate(pair, 2.0 * (a1 * u1 + a2 * u2), psi, dt / 2.0)


def _cf4_substeps(pair: HamiltonianPair, dt: float) -> int:
    """The most substeps an exponential of a CF4 step of width dt can take.

    u~ lies in [0, 1], where the half-width bound is affine in u, so it is
    at most max(half_width(0), half_width(1)) and each exponential takes at
    most ceil(dt/2 * that / _STEP_BUDGET) substeps; exact arithmetic, so
    that no product overflows.
    """
    top = max(pair.half_width(0.0), pair.half_width(1.0))
    return max(1, ceil(Fraction(dt) * Fraction(top) / Fraction(2.0 * _STEP_BUDGET)))


def evolve(pair: HamiltonianPair, sched: AnnealSchedule) -> np.ndarray:
    """Integrate the schedule and return the final state vector.

    Steps with the fourth-order commutator-free Magnus scheme CF4 on the
    grid of ``sched.segments()``, which puts no step across a breakpoint of
    the path.  A step of width dt applies exp(-i dt/2 H(u~_2)) exp(-i dt/2
    H(u~_1)), where u~_1 = 2 (alpha_2 u_1 + alpha_1 u_2) and u~_2 = 2
    (alpha_1 u_1 + alpha_2 u_2) mix the path values u_1, u_2 at the step's
    two Gauss nodes.  Each exponential is split into substeps whose |dt|
    times the half-width of H(u~)'s spectrum is within _STEP_BUDGET; each
    is a Krylov expansion on the centred H(u~) (the offset is a phase) that
    grows until its error bound falls below _KRYLOV_TOL (at most _KRYLOV_DIM
    vectors), so the stepping is norm-preserving by construction.  Before any
    work, the request is checked (``_check_evolution_request``), with a step
    of width dt charged once per substep its exponentials may take
    (``_cf4_substeps``).
    """
    segments = sched.segments()
    _check_evolution_request(pair.num_qubits, sum(
        n * _cf4_substeps(pair, sched.tau * (b - a) / n) for a, b, n in segments))
    return _step_through(pair, sched, segments, partial(_cf4_step, pair, sched))


def _rotation_matrix(theta: float, k: int) -> np.ndarray:
    """exp(i theta sigma_x) on each of k qubits: entry (z, w) is
    cos(theta)^(k - d) (i sin(theta))^d, with d the Hamming distance of z and w."""
    d = np.arange(k + 1)
    weights = np.cos(theta) ** (k - d) * (1j * np.sin(theta)) ** d
    return weights[_HAMMING[k]]


def _mixer_rotation(psi: np.ndarray, theta: float, m: int) -> np.ndarray:
    """Apply exp(-i theta * (-sum_i sigma_x^(i))) = prod_i exp(i theta sigma_x) over the
    qubit groups of ``HamiltonianPair.apply``: each group's rotation matrix acts along its
    axis, from the left but on the last group, which (symmetric) multiplies from the right.
    """
    if theta == 0.0:
        return psi
    *lead, last = _qubit_groups(m)
    rows = 1
    for k in lead:
        psi = _rotation_matrix(theta, k) @ psi.reshape(rows, 2**k, -1)
        rows *= 2**k
    return (psi.reshape(rows, -1) @ _rotation_matrix(theta, last)).reshape(-1)


def _trotter_slice(pair: HamiltonianPair, sched: AnnealSchedule, at, psi: np.ndarray,
                   dt: float) -> np.ndarray:
    """One slice: exp(-i B dt), then the slice's trailing mixer half-rotation merged with
    the next slice's leading one; the first slice also applies its own leading half."""
    u = sched.path_value(at(0.5))
    theta = (1.0 - u) * dt / 2.0
    if at(0.0) == 0.0:
        psi = _mixer_rotation(psi, theta, pair.num_qubits)
    psi = psi * np.exp(-1j * u * dt * pair.problem_diagonal)
    if at(1.0) < 1.0:
        # at(1.5) is the next slice's at(0.5), bit for bit
        theta += (1.0 - sched.path_value(at(1.5))) * dt / 2.0
    return _mixer_rotation(psi, theta, pair.num_qubits)


def evolve_trotter(pair: HamiltonianPair, sched: AnnealSchedule, slices: int) -> np.ndarray:
    """Piecewise-constant evolution with a symmetric second-order splitting.

    The schedule is frozen on ``slices`` equal segments; each segment
    applies exp(-i A dt/2) exp(-i B dt) exp(-i A dt/2) with
    A = (1-u) H_B and B = u H_P (diagonal, exact).  exp(-i A dt/2) is exact
    too, a tensor product of single-qubit rotations applied as one small
    matrix per qubit group (``_mixer_rotation``).  Adjacent half-rotations
    of two slices both act on sum_i sigma_x, so they commute and are applied
    as one rotation by their summed angle: slices + 1 rotations in all.
    Before any work, the request is checked (``_check_evolution_request``).
    """
    slices = check_count("slices", slices)
    _check_evolution_request(pair.num_qubits, slices)
    return _step_through(pair, sched, [(0.0, 1.0, slices)], partial(_trotter_slice, pair, sched))


def _row_dict(bits: list, energy, count, valid, assignment: list) -> dict:
    """The JSON shape of one sample row; the assignment is null unless the row is valid.
    The lists are kept, not copied: a copy of every row of a large set costs memory."""
    return {"bits": bits, "energy": energy, "count": count, "valid": valid,
            "assignment": assignment if valid else None}


@dataclass
class SampleEntry:
    bits: tuple
    energy: float
    count: int
    valid: bool
    assignment: tuple | None

    def to_dict(self) -> dict:
        return _row_dict(list(self.bits), self.energy, self.count, self.valid,
                         list(self.assignment or ()))


@dataclass(eq=False)
class SampleSet:
    """Multiset of measured/annealed binary states, held as columns.

    Row r is one distinct state ``states[r]`` of the (k, dim) ``states``,
    with ``counts[r]``, ``energies[r]``, and ``valid[r]`` when it encodes
    the permutation ``assignments[r]`` of the (k, n) ``assignments`` (-1
    throughout when not).  The rows are sorted once, by (energy, bits), and
    ``total`` is ``counts.sum()``.  ``metadata`` carries provenance (seed,
    model hash, schedule parameters) into the JSON export.
    """

    states: np.ndarray
    counts: np.ndarray
    energies: np.ndarray
    valid: np.ndarray
    assignments: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        columns = [np.asarray(c) for c in (self.states, self.counts, self.energies, self.valid,
                                           self.assignments)]
        order = np.lexsort((*columns[0].T[::-1], columns[2]))  # the last key sorts first
        self.states, self.counts, self.energies, self.valid, self.assignments = (
            c[order] for c in columns)

    @classmethod
    def from_states(cls, model: QuboModel, states, counts, metadata: dict) -> "SampleSet":
        """Decode and price a (k, dim) batch of distinct states, then sort it, with the
        model's ``content_hash`` stamped into ``metadata`` as ``model_hash``.  The batch is
        priced in the order it arrives, as BLAS may round a reordered batch differently."""
        states = np.asarray(states)
        valid, assignments = decode_states(model, states)
        return cls(states, counts, model.energies(states), valid, assignments,
                   {**metadata, "model_hash": model.content_hash()})

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _entries(self, rows=slice(None)) -> list:
        """The SampleEntry objects of ``rows`` (a slice or index list)."""
        return [
            SampleEntry(tuple(bits), energy, count, ok, tuple(assignment) if ok else None)
            for bits, energy, count, ok, assignment in zip(
                self.states[rows].tolist(), self.energies[rows].tolist(),
                self.counts[rows].tolist(), self.valid[rows].tolist(),
                self.assignments[rows].tolist())
        ]

    @cached_property
    def entries(self) -> list:
        """Every row as a SampleEntry, built once on first use."""
        return self._entries()

    def to_dict(self) -> dict:
        """The JSON export: one ``_row_dict`` per row, written from the columns."""
        entries = list(map(_row_dict, self.states.tolist(), self.energies.tolist(),
                           self.counts.tolist(), self.valid.tolist(), self.assignments.tolist()))
        return {"total": self.total, "entries": entries, "metadata": self.metadata}

    def histogram_csv(self, path) -> None:
        """Energy histogram with per-bin valid counts, ready for plotting."""
        lo, hi = float(self.energies.min()), float(self.energies.max())
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
        idx = np.clip(np.digitize(self.energies, edges) - 1, 0, HISTOGRAM_BINS - 1)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["energy_bin", "count", "valid_count"])
            for b in range(HISTOGRAM_BINS):
                mask = idx == b
                writer.writerow([
                    repr(float(edges[b])),
                    int(self.counts[mask].sum()),
                    int(self.counts[mask & self.valid].sum()),
                ])


def measure(state: np.ndarray, shots: int, seed: int, model: QuboModel) -> SampleSet:
    """Sample basis states from |amplitudes|^2 and attach model energies."""
    shots = check_count("shots", shots)
    seed = check_count("seed", seed, least=0)
    state = np.asarray(state)
    m = state.size.bit_length() - 1
    if state.ndim != 1 or state.size != 2**m:
        raise ValueError(f"state length must be a power of two, got shape {state.shape}")
    if model.dim != m:
        raise ValueError(f"model has {model.dim} variables but the state has {m} qubits")
    if not np.all(np.isfinite(state)):
        raise ValueError("state has non-finite amplitudes")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        probs = np.abs(state) ** 2
        norm2 = probs.sum()
    if not 0.0 < norm2 < np.inf:
        raise ValueError(f"state norm must be positive and finite, got squared norm {norm2}")
    counts = np.random.default_rng(seed).multinomial(shots, probs / norm2)
    hit = np.nonzero(counts)[0]
    states = ((hit[:, None] >> np.arange(m)) & 1).astype(int)
    return SampleSet.from_states(model, states, counts[hit], {"seed": seed, "shots": shots})


def _group_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a (k, dim) 0/1 array in lexicographic order, and their
    counts: ``np.unique(states, axis=0, return_counts=True)``, by one byte key per row.

    A row's big-endian packed bits compare bytewise as the row compares
    lexicographically, so sorting the keys sorts the rows.
    """
    packed = np.packbits(states, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return states[first], counts


def _estimate_t_hi(C: np.ndarray, bias: np.ndarray, seed: int) -> float:
    """Largest |single-flip energy change| over a seeded sample of states.

    With ``simulated_annealing``'s C and bias, flipping bit k of X changes
    the energy by -s_k h_k, where h = X C + bias, so |dE| = |h_k|.
    """
    rng = np.random.default_rng([seed, 0])
    X = rng.integers(0, 2, size=(64, bias.shape[0])).astype(float)
    t_hi = float(np.abs(X @ C + bias).max())
    return t_hi if t_hi > 0 else 1.0


def simulated_annealing(model: QuboModel, sweeps: int, runs: int, seed: int,
                        schedule: tuple[float, float] | None = None) -> SampleSet:
    """Single-bit-flip Metropolis with geometric cooling.

    Runs draw in blocks of _SA_BLOCK: block b owns the generator seeded by
    (seed, 1+b).  It first draws a (_SA_BLOCK, dim) array of initial
    states, then per sweep a (_SA_BLOCK, dim) array of acceptance
    uniforms, one per flip attempt, consumed whether or not the Metropolis
    test needs it.  Row i belongs to run _SA_BLOCK*b + i and column k to
    flip k; rows past ``runs`` are drawn and dropped.  A run's draws thus
    depend only on (seed, r), so any split of whole blocks reproduces the
    same states.  A sweep attempts one flip per variable in index order.
    ``schedule`` overrides the (T_hi, T_lo) pair; by default T_hi is the
    sampled maximum |energy change| of a flip and T_lo = 1e-3 * T_hi.

    Runs are batched in chunks of whole blocks, in spin form: a chunk holds
    its spins S = 2X - 1 and local fields H as (runs, dim) arrays in Fortran
    order, so the column a flip attempt reads and writes is contiguous.
    With C = 2Q off its diagonal (Q is symmetric), H = X C + q + diag(Q),
    so h_k does not depend on x_k and flipping bit k changes the energy by
    dE = -s_k h_k.  Each sweep turns its uniforms U in place into the
    thresholds L = T log U, and flip k is accepted where s_k h_k > L_k:
    in exact arithmetic the rule "dE <= 0 or U < exp(-dE / T)", and a dE
    of exactly 0 is always accepted, since log U < 0 on [0, 1).  Columns
    are visited in panels of _SA_PANEL.  Column k of a panel that starts
    at p0 reads its field as H[:, k] minus the panel's earlier steps times
    C[p0:k, k], stores its step s_k * accept and flips its spins; after the
    panel one matrix product (dgemm) applies H -= steps C[panel, :] in
    place.  Only one sweep's uniforms are held at a time, so memory does
    not grow with ``sweeps``.  A request over the work cap
    (``_check_sa_request``) is refused before any work.
    """
    runs = check_count("runs", runs)
    sweeps = check_count("sweeps", sweeps)
    seed = check_count("seed", seed, least=0)
    dim = model.dim
    _check_sa_request(runs, sweeps, dim)
    bias = model.q + np.diag(model.Q)
    C = 2.0 * model.Q
    np.fill_diagonal(C, 0.0)

    if schedule is None:
        t_hi = _estimate_t_hi(C, bias, seed)
        t_lo = 1e-3 * t_hi
    else:
        t_hi, t_lo = (check_positive("schedule temperature", t) for t in schedule)
    if sweeps == 1:
        temps = np.array([t_hi])
    else:
        temps = t_hi * (t_lo / t_hi) ** (np.arange(sweeps) / (sweeps - 1))

    # A chunk's S, H, one sweep's thresholds and one panel's steps together stay
    # within _SA_CHUNK_DOUBLES (2^21 doubles, 16 MB), but a chunk holds at least one block.
    chunk = _SA_BLOCK * max(1, _SA_CHUNK_DOUBLES // (_SA_BLOCK * (3 * dim + _SA_PANEL)))
    final_states = np.empty((runs, dim), dtype=np.int8)
    for start in range(0, runs, chunk):
        stop = min(runs, start + chunk)
        live = stop - start
        rngs = [np.random.default_rng([seed, 1 + b])
                for b in range(start // _SA_BLOCK, ceil(stop / _SA_BLOCK))]
        X = np.vstack([rng.integers(0, 2, size=(_SA_BLOCK, dim)) for rng in rngs])
        X = X[:live].astype(float)
        # BLAS rounds X @ C differently for a Fortran-order X, so the
        # product takes the row-major X and H does not depend on the layout.
        H = np.empty((live, dim), order="F")
        np.add(X @ C, bias, out=H)
        S = np.empty((live, dim), order="F")
        np.multiply(X, 2.0, out=S)
        S -= 1.0
        del X
        U = np.empty((_SA_BLOCK * len(rngs), dim))
        L = U[:live]
        steps = np.empty((live, _SA_PANEL), order="F")
        gain = np.empty(live)
        accept = np.empty(live, dtype=bool)
        for s in range(sweeps):
            for j, rng in enumerate(rngs):
                rng.random(out=U[_SA_BLOCK * j:_SA_BLOCK * (j + 1)])
            # log 0 = -inf accepts, and so does a threshold that overflows to -inf
            with np.errstate(divide="ignore", over="ignore"):
                np.log(L, out=L)
                L *= temps[s]
            for p0 in range(0, dim, _SA_PANEL):
                p1 = min(dim, p0 + _SA_PANEL)
                for k in range(p0, p1):
                    spin, step = S[:, k], steps[:, k - p0]
                    # s_k h_k, with the panel's earlier flips applied to h_k
                    np.matmul(steps[:, :k - p0], C[k, p0:k], out=gain)
                    np.subtract(H[:, k], gain, out=gain)
                    np.multiply(spin, gain, out=gain)
                    np.greater(gain, L[:, k], out=accept)
                    np.multiply(spin, accept, out=step)
                    spin -= step  # twice: spin = -spin where accepted
                    spin -= step
                # H -= steps C[p0:p1, :], written into the Fortran-order H
                H = dgemm(-1.0, steps[:, :p1 - p0], C[p0:p1].T, beta=1.0, c=H,
                          overwrite_c=True, trans_b=True)
        final_states[start:stop] = S > 0.0

    uniq, counts = _group_rows(final_states)
    return SampleSet.from_states(model, uniq, counts, {
        "seed": seed, "runs": runs, "sweeps": sweeps, "t_hi": t_hi, "t_lo": t_lo})


def most_frequent(samples: SampleSet) -> SampleEntry:
    """Modal row; ties prefer lower energy, then lexicographic bits: with the rows sorted
    by (energy, bits), the first row of the largest count."""
    return samples._entries([int(np.argmax(samples.counts))])[0]


@dataclass
class SuccessReport:
    """Fraction of samples decoding to an optimal permutation.

    ``reference`` is the random-guessing success probability 1/n!,
    kept as an exact rational.
    """

    probability: float
    reference: Fraction
    n: int
    f_opt: float

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "reference": {
                "numerator": self.reference.numerator,
                "denominator": self.reference.denominator,
                "value": float(self.reference),
            },
            "n": self.n,
            "f_opt": self.f_opt,
        }


@dataclass
class Pricing:
    """One solver run priced against the instance's exact optimum."""

    most_frequent: SampleEntry
    normalized_energy: float  # 0 = optimal; the worst permutation's when invalid
    success: bool
    report: SuccessReport


def _above_optimum(inst: QapInstance, assignments, f_opt: float) -> np.ndarray:
    """Energy minus f_opt of each row of a (k, n) batch of column assignments, clamped at 0.

    Row r puts the ones of x at positions j*n + assignments[r, j], so its
    energy x^T W x + c^T x is one gather of W and c.  f_opt is the exact
    minimum, so a few ulps below it are rounding.
    """
    n = inst.n
    A = np.asarray(assignments, dtype=int)
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"assignments must have shape (k, {n}), got {A.shape}")
    if np.any(np.sort(A, axis=1) != np.arange(n)):
        raise ValueError("assignment must be a bijection on {0,...,n-1}")
    idx = np.arange(n) * n + A
    energies = inst.W[idx[:, :, None], idx[:, None, :]].sum(axis=(1, 2)) + inst.c[idx].sum(axis=1)
    return np.maximum(energies - f_opt, 0.0)


def _score(samples: SampleSet, inst: QapInstance, f_opt: float):
    """The valid rows' energies above f_opt (one batch), their optimality, and the report."""
    above = _above_optimum(inst, samples.assignments[samples.valid], f_opt)
    optimal = above <= ENERGY_RTOL * max(1.0, abs(f_opt))  # the one optimality rule
    hits = int(samples.counts[samples.valid][optimal].sum())
    report = SuccessReport(hits / samples.total, Fraction(1, factorial(inst.n)), inst.n, f_opt)
    return above, optimal, report


def success_probability(samples: SampleSet, inst: QapInstance) -> SuccessReport:
    """Score a SampleSet against the instance's exact optimum f_opt, from the exact oracle."""
    _, f_opt, _, _ = permutation_extremes(inst)
    return _score(samples, inst, f_opt)[2]


def price(samples: SampleSet, inst: QapInstance, f_opt: float, f_worst: float) -> Pricing:
    """Price the most frequent row of ``samples``, charging f_worst when invalid."""
    above, optimal, report = _score(samples, inst, f_opt)
    mf = most_frequent(samples)
    if not mf.valid:
        return Pricing(mf, f_worst - f_opt, False, report)
    # the modal row is the first of the largest count; k is its place among the valid rows
    k = int(np.count_nonzero(samples.valid[:np.argmax(samples.counts)]))
    return Pricing(mf, float(above[k]), bool(optimal[k]), report)
