"""Unconstrained binary reformulations of permutation-constrained QAPs.

Three formulations are provided, each with a provable penalty bound such
that (strictly above the bound) the unconstrained minimisers coincide
with the constrained ones.  Every penalty has one shape,

    lam_i * (s_i - lo_i) * (s_i - hi_i),   s_i = the bit sum of row i,

which vanishes exactly when s_i takes one of its two roots lo_i, hi_i:

* baseline  -- the rows of A (the row/column sum constraints) with
  (lo, hi) = (1, 1) and one global lam > lam0 = (sum|W_ij| + sum|c_i|) / 2.
* row_wise  -- the same rows and roots with a separate lam_i per row,
  lam_i > D_Ji + D/2 where D_J bounds the largest energy change a single
  bit flip inside constraint J can cause.
* inserted  -- the first row and column of X are eliminated through the
  sum-to-one constraints, leaving (n-1)^2 variables.  The rows of the
  reduced A carry the exclusion penalty, (lo, hi) = (0, 1): no two ones
  in a reduced row/column.  One all-ones row carries the cardinality
  penalty, (lo, hi) = (n-2, n-1).

Energies always include the constant offset, so a model's minimum is
directly comparable to the optimal constrained energy.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import _check_json_types, _json_fields, check_count, check_positive, check_size
from .errors import read_json
from .qap import PermutationMatrix, QapInstance

FORMULATIONS = ("baseline", "row_wise", "inserted")

# Relative inflation above the provable bounds: the guarantees require a
# strict inequality, and a fixed margin makes "at the bound" testable.
BOUND_MARGIN = 1e-6


def build_constraints(n: int) -> np.ndarray:
    """Constraint matrix A = [Id (x) 1^T ; 1^T (x) Id] of A x = 1.

    Under the column-major vec convention the first n rows sum the
    columns of X and the last n rows sum the rows of X; a binary vector
    satisfies A x = 1 exactly when it encodes a permutation matrix.
    """
    n = check_count("n", n)
    k = np.arange(n * n)  # bit k is X[k % n, k // n]
    A = np.zeros((2 * n, n * n))
    A[k // n, k] = 1.0
    A[n + k % n, k] = 1.0
    return A


def _model_dim(formulation: str, n: int) -> int:
    """Number of binary variables of a formulation over an n x n assignment.

    Refuses the inserted formulation below n = 2, where no variable is left.
    """
    if formulation != "inserted":
        return n * n
    if n < 2:
        raise ValueError("the inserted formulation requires n >= 2")
    return (n - 1) ** 2


@dataclass
class PenaltyBounds:
    """Provable penalty lower bounds for the three formulations.

    lambda_baseline is the single global bound; lambda_rows holds one
    bound per constraint row of A (2n entries); lambda1 holds one bound
    per reduced row/column group of the inserted formulation (2(n-1)
    entries) and lambda2 the bound of its cardinality penalty.
    """

    lambda_baseline: float
    lambda_rows: np.ndarray
    lambda1: np.ndarray
    lambda2: float


def _flip_costs(W: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-variable bound on the energy change caused by one bit flip.

    Entry k is sum_i |W_ki + W_ik| + |W_kk| + |c_k|, evaluated literally
    (the i = k term of the sum is included), which can only overestimate
    the true flip cost and therefore stays a valid bound.
    """
    return np.abs(W + W.T).sum(axis=1) + np.abs(np.diag(W)) + np.abs(c)


def _elimination_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine lift x = T y + t from reduced to full coordinates.

    y holds the interior X[1:,1:] column-major; the first row and column
    of X are reconstructed from the sum-to-one constraints:
    X[0,0] = 2 - n + sum(y), X[0,j] = 1 - (column sum), X[i,0] = 1 - (row sum).
    """
    r = n - 1
    k = np.arange(r * r)  # reduced bit k is X[1 + k % r, 1 + k // r]
    row, col = 1 + k % r, 1 + k // r
    T = np.zeros((n * n, r * r))
    T[col * n + row, k] = 1.0
    T[0, :] = 1.0
    T[col * n, k] = -1.0  # first row, columns 1..n-1
    T[row, k] = -1.0  # first column, rows 1..n-1
    t = np.zeros(n * n)
    t[0] = 2.0 - n
    t[n::n] = 1.0
    t[1:n] = 1.0
    return T, t


def _data_part(formulation: str, inst: QapInstance) -> tuple[np.ndarray, np.ndarray, float]:
    """The objective part (Q, q, constant) of a formulation, before any penalty.

    baseline and row_wise keep f(x) with W symmetrised.  inserted takes
    the exact polynomial f(T y + t), with squares reduced through
    y_i^2 = y_i, so its Q has a zero diagonal; W is symmetrised first,
    which leaves all energies untouched and makes that Q symmetric.
    """
    Wsym = (inst.W + inst.W.T) / 2.0
    if formulation != "inserted":
        return Wsym, inst.c.copy(), 0.0
    T, t = _elimination_map(inst.n)
    Q_full = T.T @ Wsym @ T
    Q_full = (Q_full + Q_full.T) / 2.0
    lin = (2.0 * (Wsym @ t) + inst.c) @ T
    const = float(t @ Wsym @ t + inst.c @ t)
    d = np.diag(Q_full).copy()
    return Q_full - np.diag(d), lin + d, const


def penalty_bounds(inst: QapInstance) -> PenaltyBounds:
    """Compute the provable penalty bounds of all three formulations.

    The baseline bound is half the total absolute cost mass; the
    row-wise bounds combine the flip cost inside each constraint with
    half the global flip cost; the inserted bounds apply the analogous
    recipe (with both contributions halved) to the reduced objective.
    """
    n = inst.n
    lam0 = 0.5 * (np.abs(inst.W).sum() + np.abs(inst.c).sum())

    # A row's largest flip cost is max(A * D) over that row, since D >= 0.
    D = _flip_costs(inst.W, inst.c)
    lam_rows = (build_constraints(n) * D).max(axis=1) + 0.5 * float(D.max())

    if n >= 2:
        W_red, c_red, _ = _data_part("inserted", inst)
        D_red = _flip_costs(W_red, c_red)
        lam2 = 0.5 * float(D_red.max())
        lam1 = 0.5 * (build_constraints(n - 1) * D_red).max(axis=1) + lam2
    else:
        lam1, lam2 = np.zeros(0), 0.0
    return PenaltyBounds(float(lam0), lam_rows, lam1, lam2)


# JSON type of each model field, and the fields to_dict writes; other fields (bounds,
# provenance) may ride along.
_MODEL_TYPES = {"dim": int, "formulation": str, "n": int, "Q": [[float]], "q": [float], "offset": float}


def _quadratic_form(states, Q: np.ndarray, q: np.ndarray, offset: float) -> np.ndarray:
    """The one energy formula, x^T Q x + q^T x + offset for each row x of a (k, dim) batch,
    of binary states (``QuboModel``) and spin states (``SpinModel``) alike."""
    S = np.asarray(states, dtype=float)
    return ((S @ Q) * S).sum(axis=1) + S @ q + offset


@dataclass
class QuboModel:
    """Unconstrained binary quadratic model x^T Q x + q^T x + offset.

    Q is stored symmetric, as (Q + Q^T) / 2, which leaves x^T Q x unchanged
    for every Q; the spin form and the samplers assume that symmetry.
    """

    dim: int
    Q: np.ndarray
    q: np.ndarray
    offset: float
    formulation: str
    n: int

    def __post_init__(self):
        self.dim = check_count("dim", self.dim, least=0)
        self.n = check_count("n", self.n)
        self.Q = np.asarray(self.Q, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.offset = float(self.offset)
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        expected = _model_dim(self.formulation, self.n)
        if self.dim != expected:
            raise ValueError(
                f"{self.formulation} models over n={self.n} need dim={expected}, got {self.dim}"
            )
        if self.Q.shape != (self.dim, self.dim):
            raise ValueError(f"Q must have shape ({self.dim}, {self.dim}), got {self.Q.shape}")
        if self.q.shape != (self.dim,):
            raise ValueError(f"q must have shape ({self.dim},), got {self.q.shape}")
        # The mass bounds every energy, SA field and spin coefficient; it is finite
        # only when the symmetrised Q, q and the offset are.
        with np.errstate(over="ignore", invalid="ignore"):
            self.Q = (self.Q + self.Q.T) / 2.0
            mass = 2.0 * np.abs(self.Q).sum() + np.abs(self.q).sum() + abs(self.offset)
        if not np.isfinite(mass):
            raise ValueError("model coefficients and offset must be finite, and so must "
                             "their mass 2 sum|Q| + sum|q| + |offset|")

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Energies of a (k, dim) batch of states."""
        return _quadratic_form(states, self.Q, self.q, self.offset)

    def to_dict(self) -> dict:
        return _json_fields(self, _MODEL_TYPES)

    @classmethod
    def from_dict(cls, data: dict) -> "QuboModel":
        _check_json_types(data, _MODEL_TYPES, "model JSON")
        return cls(**{key: data[key] for key in _MODEL_TYPES})

    @classmethod
    def load(cls, path) -> "QuboModel":
        return read_json(path, cls.from_dict)

    def content_hash(self) -> str:
        """SHA-256 over a JSON of the scalar fields, then the little-endian float64
        bytes of the stored (symmetric) Q and of q."""
        scalars = {"dim": self.dim, "formulation": self.formulation, "n": self.n,
                   "offset": self.offset}
        digest = hashlib.sha256(json.dumps(scalars, sort_keys=True).encode("utf-8"))
        for a in (self.Q, self.q):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        return digest.hexdigest()


@dataclass
class SpinModel:
    """The same quadratic objective over spins s in {-1,+1}^dim.

    For s = 2x - 1 the spin energy s^T Q_s s + q_s^T s + offset_s equals
    the originating binary energy exactly, constants included.
    """

    Q_s: np.ndarray
    q_s: np.ndarray
    offset_s: float

    def __post_init__(self):
        self.Q_s = np.asarray(self.Q_s, dtype=float)
        self.q_s = np.asarray(self.q_s, dtype=float)
        self.offset_s = float(self.offset_s)

    @property
    def num_variables(self) -> int:
        return self.q_s.shape[0]

    def energies(self, spin_states: np.ndarray) -> np.ndarray:
        """Energies of a (k, dim) batch of spin states."""
        return _quadratic_form(spin_states, self.Q_s, self.q_s, self.offset_s)


def _effective_penalties(bounds: np.ndarray, scale: float) -> np.ndarray:
    """The weights scale * (1 + margin) * bounds, warning at the caller of
    ``build_formulation`` when scale is below 1."""
    if scale < 1:
        warnings.warn(
            f"scale={scale} is below 1: the unconstrained problem is no longer "
            "provably equivalent to the constrained one",
            stacklevel=3,
        )
    return scale * (1.0 + BOUND_MARGIN) * bounds


def build_formulation(inst: QapInstance, formulation: str, scale: float = 1.0) -> QuboModel:
    """The objective part plus sum_i lam_i (s_i - lo_i)(s_i - hi_i), s = rows @ x.

    baseline and row_wise penalise the rows of A with roots (1, 1): one
    global lam = scale * lam0 * (1 + margin), or one lam_i per row.
    inserted works over the (n-1)^2 interior bits; the objective is the
    exact polynomial f(T y + t), each reduced row/column group g is
    charged lam1_g * S_g (S_g - 1) and the total bit sum S is charged
    lam2 * (S - (n-1)) (S - (n-2)).  Every penalty vanishes exactly on
    encodings of permutations.

    Expanded, Q gains rows^T diag(lam) rows, q loses rows^T (lam (lo + hi))
    and the offset gains sum_i lam_i lo_i hi_i.
    """
    n = inst.n
    scale = check_positive("scale", scale)
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    dim = _model_dim(formulation, n)
    bounds = penalty_bounds(inst)
    if formulation == "inserted":
        groups = build_constraints(n - 1)
        rows = np.vstack([groups, np.ones((1, groups.shape[1]))])
        raw = np.append(bounds.lambda1, bounds.lambda2)
        lo = np.append(np.zeros(len(groups)), n - 2.0)
        hi = np.append(np.ones(len(groups)), n - 1.0)
    else:
        rows = build_constraints(n)
        lo = hi = np.ones(2 * n)
        raw = (np.full(2 * n, bounds.lambda_baseline) if formulation == "baseline"
               else bounds.lambda_rows)
    lams = _effective_penalties(raw, scale)
    Q, q, const = _data_part(formulation, inst)
    Q = Q + rows.T @ (lams[:, None] * rows)
    q = q - rows.T @ (lams * (lo + hi))
    offset = const + float(lams @ (lo * hi))
    return QuboModel(dim, Q, q, offset, formulation, n)


def decode_states(model: QuboModel, states) -> tuple[np.ndarray, np.ndarray]:
    """Map a (k, dim) batch of model states back to permutations.

    Returns a boolean mask of the states that encode a permutation and a
    (k, n) array whose row s is the assignment of state s (-1 throughout
    when state s is infeasible).  baseline/row_wise states are reshaped
    column-major and checked for 0/1 entries with unit row/column sums.
    inserted states are first lifted to full coordinates, x = T y + t;
    any lifted entry outside {0, 1} marks the state infeasible.
    """
    S = np.asarray(states)
    if S.ndim != 2 or S.shape[1] != model.dim:
        raise ValueError(f"states must have shape (k, {model.dim}), got {S.shape}")
    n, k = model.n, S.shape[0]
    if model.formulation == "inserted":
        T, t = _elimination_map(n)
        S = S @ T.T + t
    X = S.reshape(k, n, n).transpose(0, 2, 1)  # X[s, i, j] = bit j*n + i of state s
    valid = (
        np.all((X == 0) | (X == 1), axis=(1, 2))
        & np.all(X.sum(axis=1) == 1, axis=1)
        & np.all(X.sum(axis=2) == 1, axis=1)
    )
    assignments = np.where(valid[:, None], np.argmax(X, axis=1), -1)
    return valid, assignments


def decode(model: QuboModel, bits) -> PermutationMatrix | None:
    """Map one model state back to a permutation matrix, or None if infeasible.

    A single-state view of ``decode_states``, which holds the rules.
    """
    bits = np.asarray(bits)
    if bits.shape != (model.dim,):
        raise ValueError(f"state must have length {model.dim}, got shape {bits.shape}")
    valid, assignments = decode_states(model, bits[None, :])
    return PermutationMatrix(model.n, assignments[0]) if valid[0] else None


def to_spin(model: QuboModel) -> SpinModel:
    """Change of variables s = 2x - 1.

    Q_s = Q/4 and q_s = (Q 1 + q)/2; the offset absorbs every constant
    so binary and spin energies agree exactly on all states.
    """
    Q = model.Q
    Q_s = Q / 4.0
    q_s = 0.5 * (Q @ np.ones(model.dim) + model.q)
    offset_s = model.offset + 0.25 * float(Q.sum()) + 0.5 * float(model.q.sum())
    return SpinModel(Q_s=Q_s, q_s=q_s, offset_s=offset_s)


def _coupling_scale(Q: np.ndarray, q: np.ndarray) -> float:
    """max(max|Q|, max|q| / 2): the factor that brings couplings within 1 and biases within 2."""
    return max(float(np.abs(Q).max(initial=0.0)), float(np.abs(q).max(initial=0.0)) / 2.0)


def normalize_couplings(spin: SpinModel) -> tuple[SpinModel, float]:
    """Joint rescaling so that max|Q_s| <= 1 and max|q_s| <= 2.

    Mirrors the feasible coupling/bias ranges of annealing hardware; the
    returned factor divides all coefficients (and the offset, keeping
    energies proportional).  Zero models are returned unchanged.
    """
    r = _coupling_scale(spin.Q_s, spin.q_s)
    if r == 0.0:
        return SpinModel(spin.Q_s.copy(), spin.q_s.copy(), spin.offset_s), 1.0
    return SpinModel(spin.Q_s / r, spin.q_s / r, spin.offset_s / r), r


@dataclass
class CouplingReport:
    """Value ranges of the data and penalty parts of a model's coefficients.

    All ranges are reported after the joint hardware-style rescaling
    (max|Q| <= 1, max|q| <= 2).  Ratios are None when the data part is
    identically zero.
    """

    scale_factor: float
    quadratic_problem: tuple[float, float]
    quadratic_penalty: tuple[float, float]
    linear_problem: tuple[float, float]
    linear_penalty: tuple[float, float]
    ratio_quadratic: float | None
    ratio_linear: float | None

    def to_dict(self) -> dict:
        """Every field, each (min, max) range as {"min", "max"}."""
        return {key: {"min": v[0], "max": v[1]} if isinstance(v, tuple) else v
                for key, v in vars(self).items()}


def coupling_report(model: QuboModel, inst: QapInstance) -> CouplingReport:
    """Split coefficients into data and penalty contributions and report ranges.

    The penalty part is Q - Q_data and q - q_data; it yields the same
    energy on every valid permutation, so only the data part can tell
    permutations apart.  Large penalty-to-data ratios mean most of the
    representable coupling range is spent on enforcing feasibility.
    """
    Q_prob, q_prob, _ = _data_part(model.formulation, inst)
    Q_reg = model.Q - Q_prob
    q_reg = model.q - q_prob
    factor = _coupling_scale(model.Q, model.q) or 1.0

    def rng(a):
        a = a / factor
        return (float(a.min()), float(a.max())) if a.size else (0.0, 0.0)

    def ratio(reg, prob):
        top, bottom = float(np.abs(reg).max(initial=0.0)), float(np.abs(prob).max(initial=0.0))
        return (top / bottom) if bottom > 0 else None

    return CouplingReport(
        scale_factor=factor,
        quadratic_problem=rng(Q_prob),
        quadratic_penalty=rng(Q_reg),
        linear_problem=rng(q_prob),
        linear_penalty=rng(q_reg),
        ratio_quadratic=ratio(Q_reg, Q_prob),
        ratio_linear=ratio(q_reg, q_prob),
    )


def _index_bits(indices: np.ndarray, dim: int) -> np.ndarray:
    """The (k, dim) int8 states of k basis indices; bit i of index z is column i."""
    return ((indices[:, None] >> np.arange(dim)) & 1).astype(np.int8)


def enumerate_states(dim: int) -> np.ndarray:
    """All binary states as a (2^dim, dim) array; bit i of index z is column i."""
    check_size("enumeration", dim)
    return _index_bits(np.arange(2**dim, dtype=np.int64), dim)


def exhaustive_minimum(model: QuboModel) -> tuple[np.ndarray, float]:
    """Global minimiser of a model over the full hypercube.

    Ties go to the smallest basis index (lexicographic in LSB-first bit
    order), which keeps the result deterministic.
    """
    states = enumerate_states(model.dim)
    energies = model.energies(states)
    idx = int(np.argmin(energies))
    return states[idx].astype(int), float(energies[idx])


def export_sparse(model: QuboModel, path) -> None:
    """Upper-triangular text export for external annealer tooling.

    Lines are "i j value" with i < j for couplings (Q_ij + Q_ji) and
    "i i value" for linear terms (Q_ii + q_i); the constant is carried
    in a leading "offset value" line.  The representation is
    energy-equivalent to the model on binary states.
    """
    lines = [f"offset {model.offset!r}"]
    for i in range(model.dim):
        d = float(model.Q[i, i] + model.q[i])
        if d != 0.0:
            lines.append(f"{i} {i} {d!r}")
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            v = float(model.Q[i, j] + model.Q[j, i])
            if v != 0.0:
                lines.append(f"{i} {j} {v!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
