"""Annealing simulators: Schrödinger evolution and classical Metropolis.

The quantum simulators integrate i d/dt |psi> = H(t) |psi| with
H(t) = u(t) H_P + (1 - u(t)) H_B, starting from the uniform
superposition (the mixer ground state).  Time is dimensionless (hbar=1);
tau is the total evolution time and u(t) follows a piecewise-linear
schedule path.  Both simulators and the classical sampler produce
SampleSets: multisets of binary states with energies, counts and
permutation-validity flags.

Pricing lives here too: ``price`` and ``success_probability`` score a
SampleSet against the exact optimum f_opt, all valid entries in one batch.
An entry is optimal when its energy is at most f_opt + ENERGY_RTOL *
max(1, |f_opt|); ``price`` charges an invalid modal entry f_worst.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import ceil, factorial, isfinite

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dger

from .errors import SIZE_CAPS, SolverError, check_count, check_positive, check_size
from .qap import QapInstance, permutation_extremes
from .qubo import QuboModel, decode_states
from .spectral import HamiltonianPair

# Optimality comparisons between recomputed permutation energies.
ENERGY_RTOL = 1e-9

# A state whose norm drifted further than this from 1 is renormalised.
_NORM_DRIFT = 1e-10
# Hard cap on the Krylov basis of one propagator step.
_KRYLOV_DIM = 24
# A Krylov expansion stops once its error bound for a unit start vector
# falls below this.
_KRYLOV_TOL = 1e-13
# Substep budget: keep ||H|| * dt below this so the Krylov exponential
# converges far beyond the requested accuracy.
_STEP_BUDGET = 4.0
# Equal-width energy bins of a histogram CSV.
HISTOGRAM_BINS = 40
# Simulated annealing draws its random numbers in blocks of this many runs,
# one generator per block; the value is part of the draw contract.
_SA_BLOCK = 64
# Memory budget, in doubles, of one chunk of simulated-annealing runs.
_SA_CHUNK_DOUBLES = 2**21


@dataclass
class AnnealSchedule:
    """Total time tau plus a piecewise-linear map s -> u of the path.

    ``path`` lists (s, u) breakpoints with s = t / tau; it must be
    monotone with path(0) = 0 and path(1) = 1.  A plateau breakpoint
    models a mid-anneal break.  ``steps`` is the number of
    frozen-midpoint integration steps; when None a resolution of 10
    steps per unit time (at least 100) is used.
    """

    tau: float
    path: tuple = ((0.0, 0.0), (1.0, 1.0))
    steps: int | None = None

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
        if self.steps is not None:
            self.steps = check_count("steps", self.steps)

    def path_value(self, s: float) -> float:
        ss = [p[0] for p in self.path]
        us = [p[1] for p in self.path]
        return float(np.interp(s, ss, us))

    def effective_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return max(100, ceil(10.0 * self.tau))


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
    that estimate could never overrule the stop.  The caller keeps
    ||H|| dt small enough that the cap is accurate to machine precision.
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
        if beta < 1e-14 * norm_v or est < _KRYLOV_TOL:
            used = j + 1
            break
        betas[j] = beta
        V[j + 1] = w / beta
    evals, evecs = eigh_tridiagonal(alphas[:used], betas[: used - 1])
    coef = evecs @ (np.exp(-1j * dt * evals) * evecs[0])
    return (coef * norm_v) @ V[:used]


def _step_through(pair: HamiltonianPair, sched: AnnealSchedule, steps: int, step,
                  callback=None) -> np.ndarray:
    """The stepping loop shared by the state-vector simulators.

    Starts from the uniform superposition (the mixer ground state) and
    cuts the schedule into ``steps`` equal segments; segment k maps psi
    to ``step(u, psi, dt)`` with u the path at the segment's midpoint.
    Non-finite amplitudes raise SolverError, and a norm that drifted more
    than _NORM_DRIFT from 1 is renormalised.  ``callback(k, u, psi, norm)``
    receives the post-step state and its pre-renormalisation norm.
    """
    check_size("evolution", pair.num_qubits)
    dim = pair.dim
    psi = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    dt = sched.tau / steps
    for k in range(steps):
        u = sched.path_value((k + 0.5) / steps)
        psi = step(u, psi, dt)
        if not np.all(np.isfinite(psi.view(float))):
            raise SolverError(f"non-finite amplitudes at step {k}")
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > _NORM_DRIFT:
            psi = psi / norm
        if callback is not None:
            callback(k, u, psi, norm)
    return psi


def _propagate(pair: HamiltonianPair, u: float, psi: np.ndarray, dt: float) -> np.ndarray:
    nsub = max(1, ceil(abs(dt) * pair.norm_bound(u) / _STEP_BUDGET))
    sub = dt / nsub
    for _ in range(nsub):
        psi = _lanczos_expm(lambda w: pair.apply(u, w), psi, sub)
    return psi


def evolve(pair: HamiltonianPair, sched: AnnealSchedule, callback=None) -> np.ndarray:
    """Integrate the schedule and return the final state vector.

    Each step applies the unitary exp(-i H(u_mid) dt) of the Hamiltonian
    frozen at the step midpoint, split into substeps with ||H|| dt below
    _STEP_BUDGET.  Each substep is a Krylov expansion built from sparse
    products with H(u) that grows only until its error bound falls below
    _KRYLOV_TOL (at most _KRYLOV_DIM vectors); the stepping is
    therefore norm-preserving by construction.
    ``callback(step, u, psi, norm)`` receives the post-step state and its
    pre-renormalisation norm.
    """
    return _step_through(pair, sched, sched.effective_steps(), partial(_propagate, pair),
                         callback)


# _REVERSED_AXIS[ax] indexes the view of an array reversed along axis ax,
# the view np.flip(t, axis=ax) returns, without its argument handling.
_REVERSED_AXIS = tuple((slice(None),) * ax + (slice(None, None, -1),)
                       for ax in range(SIZE_CAPS["evolution"][0]))


def _mixer_rotation(psi: np.ndarray, theta: float, m: int) -> np.ndarray:
    """Apply exp(-i theta * (-sum_i sigma_x^(i))) = prod_i exp(i theta sigma_x)."""
    if theta == 0.0:
        return psi
    t = psi.reshape((2,) * m)
    c = np.cos(theta)
    s = 1j * np.sin(theta)
    for ax in range(m):
        t = c * t + s * t[_REVERSED_AXIS[ax]]
    return t.reshape(-1)


def _trotter_slice(pair: HamiltonianPair, u: float, psi: np.ndarray, dt: float) -> np.ndarray:
    theta = (1.0 - u) * dt / 2.0
    psi = _mixer_rotation(psi, theta, pair.num_qubits)
    psi = psi * np.exp(-1j * u * dt * pair.problem_diagonal)
    return _mixer_rotation(psi, theta, pair.num_qubits)


def evolve_trotter(pair: HamiltonianPair, sched: AnnealSchedule, slices: int) -> np.ndarray:
    """Piecewise-constant evolution with a symmetric second-order splitting.

    The schedule is frozen on ``slices`` equal segments; each segment
    applies exp(-i A dt/2) exp(-i B dt) exp(-i A dt/2) with
    A = (1-u) H_B (a tensor product of single-qubit rotations, exact)
    and B = u H_P (diagonal, exact).
    """
    return _step_through(pair, sched, check_count("slices", slices), partial(_trotter_slice, pair))


@dataclass
class SampleEntry:
    bits: tuple
    energy: float
    count: int
    valid: bool
    assignment: tuple | None

    def to_dict(self) -> dict:
        return {
            "bits": list(self.bits),
            "energy": self.energy,
            "count": self.count,
            "valid": self.valid,
            "assignment": None if self.assignment is None else list(self.assignment),
        }


@dataclass
class SampleSet:
    """Multiset of measured/annealed binary states.

    Entries are kept sorted by (energy, bits); counts add up to
    ``total``.  ``metadata`` carries provenance (seed, model hash,
    schedule parameters) into the JSON export.
    """

    entries: list
    total: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: (e.energy, e.bits))
        if sum(e.count for e in self.entries) != self.total:
            raise ValueError("entry counts must sum to total")

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "entries": [e.to_dict() for e in self.entries],
            "metadata": self.metadata,
        }

    def histogram_csv(self, path) -> None:
        """Energy histogram with per-bin valid counts, ready for plotting."""
        energies = np.array([e.energy for e in self.entries])
        counts = np.array([e.count for e in self.entries])
        valid = np.array([e.valid for e in self.entries])
        lo, hi = float(energies.min()), float(energies.max())
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
        idx = np.clip(np.digitize(energies, edges) - 1, 0, HISTOGRAM_BINS - 1)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["energy_bin", "count", "valid_count"])
            for b in range(HISTOGRAM_BINS):
                mask = idx == b
                writer.writerow([
                    repr(float(edges[b])),
                    int(counts[mask].sum()),
                    int(counts[mask & valid].sum()),
                ])


def _make_entries(states: np.ndarray, counts: np.ndarray, model: QuboModel) -> list:
    valid, assignments = decode_states(model, states)
    return [
        SampleEntry(
            bits=tuple(bits),
            energy=model.energy(row),
            count=count,
            valid=ok,
            assignment=tuple(assignment) if ok else None,
        )
        for row, bits, count, ok, assignment in zip(
            states, states.tolist(), counts.tolist(), valid.tolist(), assignments.tolist()
        )
    ]


def measure(state: np.ndarray, shots: int, seed: int, model: QuboModel) -> SampleSet:
    """Sample basis states from |amplitudes|^2 and attach model energies."""
    shots = check_count("shots", shots)
    seed = check_count("seed", seed, least=0)
    state = np.asarray(state)
    m = int(np.log2(state.shape[0]))
    if 2**m != state.shape[0]:
        raise ValueError("state length must be a power of two")
    if model.dim != m:
        raise ValueError(f"model has {model.dim} variables but the state has {m} qubits")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    hit = np.nonzero(counts)[0]
    states = ((hit[:, None] >> np.arange(m)) & 1).astype(int)
    entries = _make_entries(states, counts[hit], model)
    return SampleSet(
        entries=entries,
        total=shots,
        metadata={"seed": seed, "shots": shots, "model_hash": model.content_hash()},
    )


def _estimate_t_hi(model: QuboModel, seed: int) -> float:
    """Largest |single-flip energy change| over a seeded sample of states."""
    rng = np.random.default_rng([seed, 0])
    S = rng.integers(0, 2, size=(64, model.dim)).astype(float)
    Q = (model.Q + model.Q.T) / 2.0
    G = S @ Q
    delta = 1.0 - 2.0 * S
    dE = 2.0 * delta * G + np.diag(Q)[None, :] + delta * model.q[None, :]
    t_hi = float(np.abs(dE).max())
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

    Runs are batched in chunks of whole blocks.  A chunk's states X and
    local fields G = X Q are (runs, dim) arrays in Fortran order, so the
    column a flip attempt reads and writes is contiguous; an accepted flip
    updates G in place with one BLAS rank-1 update (dger).  Only one
    sweep's uniforms are held at a time, so memory does not grow with
    ``sweeps``.
    """
    runs = check_count("runs", runs)
    sweeps = check_count("sweeps", sweeps)
    seed = check_count("seed", seed, least=0)
    dim = model.dim
    Q = (model.Q + model.Q.T) / 2.0  # flip deltas below assume symmetry
    qlin = model.q
    diag = np.diag(Q).copy()

    if schedule is None:
        t_hi = _estimate_t_hi(model, seed)
        t_lo = 1e-3 * t_hi
    else:
        t_hi, t_lo = (check_positive("schedule temperature", t) for t in schedule)
    if sweeps == 1:
        temps = np.array([t_hi])
    else:
        temps = t_hi * (t_lo / t_hi) ** (np.arange(sweeps) / (sweeps - 1))

    # A chunk's X, G and one sweep's uniforms together stay within
    # _SA_CHUNK_DOUBLES (2^21 doubles, 16 MB), but a chunk holds at least one block.
    chunk = _SA_BLOCK * max(1, _SA_CHUNK_DOUBLES // (3 * _SA_BLOCK * dim))
    final_states = np.empty((runs, dim), dtype=np.int8)
    for start in range(0, runs, chunk):
        stop = min(runs, start + chunk)
        rngs = [np.random.default_rng([seed, 1 + b])
                for b in range(start // _SA_BLOCK, ceil(stop / _SA_BLOCK))]
        X = np.vstack([rng.integers(0, 2, size=(_SA_BLOCK, dim)) for rng in rngs])
        X = X[:stop - start].astype(float)
        # BLAS rounds X @ Q differently for a Fortran-order X, so the
        # product takes the row-major X and G does not depend on the layout.
        G = np.asfortranarray(X @ Q)
        X = np.asfortranarray(X)
        U = np.empty((_SA_BLOCK * len(rngs), dim))
        U_live = U[:stop - start]
        for s in range(sweeps):
            for j, rng in enumerate(rngs):
                rng.random(out=U[_SA_BLOCK * j:_SA_BLOCK * (j + 1)])
            T = temps[s]
            for k in range(dim):
                delta = 1.0 - 2.0 * X[:, k]
                dE = 2.0 * delta * G[:, k] + diag[k] + delta * qlin[k]
                p = np.exp(np.minimum(np.maximum(-dE / T, -700.0), 50.0))
                accept = (dE <= 0.0) | (U_live[:, k] < p)
                if accept.any():
                    step = delta * accept
                    X[:, k] += step
                    # In place G += outer(step, Q[k]); step is in {-1, 0, 1},
                    # so each product is exact and each sum rounds once.
                    G = dger(1.0, step, Q[k], a=G, overwrite_a=True)
        final_states[start:stop] = X.astype(np.int8)

    # Deterministic aggregation: group identical final states.
    uniq, counts = np.unique(final_states, axis=0, return_counts=True)
    entries = _make_entries(uniq, counts, model)
    return SampleSet(
        entries=entries,
        total=runs,
        metadata={
            "seed": seed,
            "runs": runs,
            "sweeps": sweeps,
            "t_hi": t_hi,
            "t_lo": t_lo,
            "model_hash": model.content_hash(),
        },
    )


def most_frequent(samples: SampleSet) -> SampleEntry:
    """Modal entry; ties prefer lower energy, then lexicographic bits."""
    return min(samples.entries, key=lambda e: (-e.count, e.energy, e.bits))


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
    valid: bool
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
    """Valid entries, their energies above f_opt (one batch), their optimality, and the report."""
    valid = [e for e in samples.entries if e.assignment is not None]
    above = _above_optimum(inst, [e.assignment for e in valid], f_opt) if valid else np.zeros(0)
    optimal = above <= ENERGY_RTOL * max(1.0, abs(f_opt))  # the one optimality rule
    hits = sum(e.count for e, ok in zip(valid, optimal.tolist()) if ok)
    report = SuccessReport(hits / samples.total, Fraction(1, factorial(inst.n)), inst.n, f_opt)
    return valid, above, optimal, report


def success_probability(samples: SampleSet, inst: QapInstance,
                        f_opt: float | None = None) -> SuccessReport:
    """Score a SampleSet against the exact optimum f_opt of the instance.

    f_opt comes from the exact oracle when the caller does not pass it.
    """
    if f_opt is None:
        _, f_opt, _, _ = permutation_extremes(inst)
    return _score(samples, inst, f_opt)[3]


def price(samples: SampleSet, inst: QapInstance, f_opt: float, f_worst: float) -> Pricing:
    """Price the most frequent entry of ``samples``, charging f_worst when invalid."""
    valid, above, optimal, report = _score(samples, inst, f_opt)
    mf = most_frequent(samples)
    k = next((k for k, e in enumerate(valid) if e is mf), None)
    if k is None:
        return Pricing(mf, f_worst - f_opt, False, False, report)
    return Pricing(mf, float(above[k]), bool(optimal[k]), True, report)
