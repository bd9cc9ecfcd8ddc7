"""Unconstrained binary reformulations of permutation-constrained QAPs.

Three formulations are provided, each with a provable penalty bound such
that (strictly above the bound) the unconstrained minimisers coincide
with the constrained ones:

* baseline  -- one global penalty lam * ||A x - b||^2 on the row/column
  sum constraints, with lam > lam0 = (sum|W_ij| + sum|c_i|) / 2.
* row_wise  -- a separate penalty lam_i per constraint row of A, with
  lam_i > D_Ji + D/2 where D_J bounds the largest energy change a single
  bit flip inside constraint J can cause.
* inserted  -- the first row and column of X are eliminated through the
  sum-to-one constraints, leaving (n-1)^2 variables plus an exclusion
  penalty (no two ones in a reduced row/column) and a cardinality
  penalty keeping the reduced sum in {n-2, n-1}.

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

from .errors import SizeCapError
from .qap import PermutationMatrix, QapInstance

FORMULATIONS = ("baseline", "row_wise", "inserted")

# Relative inflation above the provable bounds: the guarantees require a
# strict inequality, and a fixed margin makes "at the bound" testable.
BOUND_MARGIN = 1e-6

# Hypercube enumeration guard (2^20 states).
EXHAUSTIVE_MAX_BITS = 20


@dataclass
class ConstraintSystem:
    """Row/column sum constraints A x = b characterising vec'd permutations."""

    n: int
    A: np.ndarray
    b: np.ndarray


def build_constraints(n: int) -> ConstraintSystem:
    """Constraint matrix A = [Id (x) 1^T ; 1^T (x) Id] and b = 1.

    Under the column-major vec convention the first n rows sum the
    columns of X and the last n rows sum the rows of X; a binary vector
    satisfies A x = b exactly when it encodes a permutation matrix.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    eye = np.eye(n)
    ones_row = np.ones((1, n))
    A = np.vstack([np.kron(eye, ones_row), np.kron(ones_row, eye)])
    return ConstraintSystem(n=n, A=A, b=np.ones(2 * n))


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
    if W.size == 0:
        return np.zeros(0)
    return np.abs(W + W.T).sum(axis=1) + np.abs(np.diag(W)) + np.abs(c)


def _constraint_groups(n: int) -> list[np.ndarray]:
    """Index support of each constraint row of A, in A's block order.

    With n - 1 these are the row/column groups of the inserted model's
    reduced grid.
    """
    groups = []
    for i in range(n):
        groups.append(np.arange(i * n, (i + 1) * n))
    for i in range(n):
        groups.append(np.arange(i, n * n, n))
    return groups


def _elimination_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine lift x = T y + t from reduced to full coordinates.

    y holds the interior X[1:,1:] column-major; the first row and column
    of X are reconstructed from the sum-to-one constraints:
    X[0,0] = 2 - n + sum(y), X[0,j] = 1 - (column sum), X[i,0] = 1 - (row sum).
    """
    r = n - 1
    T = np.zeros((n * n, r * r))
    t = np.zeros(n * n)

    def rid(i, j):  # interior cell (i+1, j+1) of X -> reduced index
        return j * r + i

    for i in range(r):
        for j in range(r):
            T[(j + 1) * n + (i + 1), rid(i, j)] = 1.0
    t[0] = 2.0 - n
    T[0, :] = 1.0
    for j in range(r):  # first row, columns 1..n-1
        t[(j + 1) * n] = 1.0
        T[(j + 1) * n, rid(np.arange(r), j)] -= 1.0
    for i in range(r):  # first column, rows 1..n-1
        t[i + 1] = 1.0
        T[i + 1, rid(i, np.arange(r))] -= 1.0
    return T, t


def _reduced_objective(inst: QapInstance) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact polynomial f(T y + t) collected as (W_red, c_red, constant).

    Squares are reduced through y_i^2 = y_i, so W_red has a zero
    diagonal; W is symmetrised first, which leaves all energies
    untouched and makes W_red symmetric.
    """
    Wsym = (inst.W + inst.W.T) / 2.0
    T, t = _elimination_map(inst.n)
    Q_full = T.T @ Wsym @ T
    Q_full = (Q_full + Q_full.T) / 2.0
    lin = (2.0 * (Wsym @ t) + inst.c) @ T
    const = float(t @ Wsym @ t + inst.c @ t)
    d = np.diag(Q_full).copy()
    W_red = Q_full - np.diag(d)
    c_red = lin + d
    return W_red, c_red, const


def penalty_bounds(inst: QapInstance) -> PenaltyBounds:
    """Compute the provable penalty bounds of all three formulations.

    The baseline bound is half the total absolute cost mass; the
    row-wise bounds combine the flip cost inside each constraint with
    half the global flip cost; the inserted bounds apply the analogous
    recipe (with both contributions halved) to the reduced objective.
    """
    n = inst.n
    lam0 = 0.5 * (np.abs(inst.W).sum() + np.abs(inst.c).sum())

    D = _flip_costs(inst.W, inst.c)
    D_all = float(D.max()) if D.size else 0.0
    lam_rows = np.array([float(D[g].max()) + 0.5 * D_all for g in _constraint_groups(n)])

    if n >= 2:
        W_red, c_red, _ = _reduced_objective(inst)
        D_red = _flip_costs(W_red, c_red)
        D_red_all = float(D_red.max()) if D_red.size else 0.0
        lam1 = np.array(
            [0.5 * float(D_red[g].max()) + 0.5 * D_red_all for g in _constraint_groups(n - 1)]
        )
        lam2 = 0.5 * D_red_all
    else:
        lam1 = np.zeros(0)
        lam2 = 0.0
    return PenaltyBounds(
        lambda_baseline=float(lam0), lambda_rows=lam_rows, lambda1=lam1, lambda2=lam2
    )


@dataclass
class QuboModel:
    """Unconstrained binary quadratic model x^T Q x + q^T x + offset."""

    dim: int
    Q: np.ndarray
    q: np.ndarray
    offset: float
    formulation: str
    n: int

    def __post_init__(self):
        self.dim = int(self.dim)
        self.n = int(self.n)
        self.Q = np.asarray(self.Q, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.offset = float(self.offset)
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}")
        expected = (self.n - 1) ** 2 if self.formulation == "inserted" else self.n**2
        if self.dim != expected:
            raise ValueError(
                f"{self.formulation} models over n={self.n} need dim={expected}, got {self.dim}"
            )
        if self.Q.shape != (self.dim, self.dim):
            raise ValueError(f"Q must have shape ({self.dim}, {self.dim}), got {self.Q.shape}")
        if self.q.shape != (self.dim,):
            raise ValueError(f"q must have shape ({self.dim},), got {self.q.shape}")
        if not (np.all(np.isfinite(self.Q)) and np.all(np.isfinite(self.q))):
            raise ValueError("model coefficients must be finite")

    def energy(self, bits) -> float:
        bits = np.asarray(bits, dtype=float)
        if bits.shape != (self.dim,):
            raise ValueError(f"state must have length {self.dim}, got shape {bits.shape}")
        return float(bits @ self.Q @ bits + self.q @ bits + self.offset)

    def energies(self, states: np.ndarray) -> np.ndarray:
        """Energies of a (k, dim) batch of states."""
        S = np.asarray(states, dtype=float)
        return ((S @ self.Q) * S).sum(axis=1) + S @ self.q + self.offset

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "formulation": self.formulation,
            "n": self.n,
            "Q": self.Q.tolist(),
            "q": self.q.tolist(),
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuboModel":
        for key in ("dim", "formulation", "n", "Q", "q", "offset"):
            if key not in data:
                raise ValueError(f"model JSON is missing field {key!r}")
        return cls(
            dim=data["dim"],
            Q=np.asarray(data["Q"]),
            q=np.asarray(data["q"]),
            offset=data["offset"],
            formulation=data["formulation"],
            n=data["n"],
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "QuboModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


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

    def energy(self, spins) -> float:
        s = np.asarray(spins, dtype=float)
        return float(s @ self.Q_s @ s + self.q_s @ s + self.offset_s)

    def energies(self, spin_states: np.ndarray) -> np.ndarray:
        S = np.asarray(spin_states, dtype=float)
        return ((S @ self.Q_s) * S).sum(axis=1) + S @ self.q_s + self.offset_s


def _effective_penalties(bounds: np.ndarray | float, scale: float):
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if scale < 1:
        warnings.warn(
            f"scale={scale} is below 1: the unconstrained problem is no longer "
            "provably equivalent to the constrained one",
            stacklevel=3,
        )
    return scale * (1.0 + BOUND_MARGIN) * bounds


def build_baseline(inst: QapInstance, scale: float = 1.0) -> QuboModel:
    """Single-penalty model: Q = W_sym + lam A^T A, q = c - 2 lam A^T b.

    lam = scale * lam0 * (1 + margin); the offset lam * b^T b makes the
    penalty term exactly ||A x - b||^2 scaled by lam.
    """
    n = inst.n
    cs = build_constraints(n)
    lam = _effective_penalties(penalty_bounds(inst).lambda_baseline, scale)
    Wsym = (inst.W + inst.W.T) / 2.0
    Q = Wsym + lam * (cs.A.T @ cs.A)
    q = inst.c - 2.0 * lam * (cs.A.T @ cs.b)
    offset = lam * float(cs.b @ cs.b)
    return QuboModel(dim=n * n, Q=Q, q=q, offset=offset, formulation="baseline", n=n)


def build_row_wise(inst: QapInstance, scale: float = 1.0) -> QuboModel:
    """Per-constraint penalties: Q = W_sym + sum_i lam_i a_i a_i^T."""
    n = inst.n
    cs = build_constraints(n)
    lams = _effective_penalties(penalty_bounds(inst).lambda_rows, scale)
    Wsym = (inst.W + inst.W.T) / 2.0
    Q = Wsym + cs.A.T @ (lams[:, None] * cs.A)
    q = inst.c - 2.0 * cs.A.T @ (lams * cs.b)
    offset = float(lams @ (cs.b**2))
    return QuboModel(dim=n * n, Q=Q, q=q, offset=offset, formulation="row_wise", n=n)


def build_inserted(inst: QapInstance, scale: float = 1.0) -> QuboModel:
    """Eliminated-variable model over the (n-1)^2 interior bits.

    The objective is the exact polynomial f(T y + t); the exclusion
    penalty charges lam1_g * S_g (S_g - 1) for the bit sum S_g of each
    reduced row/column group g, and the cardinality penalty charges
    lam2 * (S - (n-1)) (S - (n-2)) for the total bit sum S.  Both vanish
    exactly on encodings of permutations.
    """
    n = inst.n
    if n < 2:
        raise ValueError("the inserted formulation requires n >= 2")
    r = n - 1
    dim = r * r
    W_red, c_red, const = _reduced_objective(inst)
    bounds = penalty_bounds(inst)
    lam1 = _effective_penalties(bounds.lambda1, scale)
    lam2 = _effective_penalties(bounds.lambda2, scale)

    Q = W_red.copy()
    q = c_red.copy()
    offset = const
    for g, idx in enumerate(_constraint_groups(n - 1)):
        ind = np.zeros(dim)
        ind[idx] = 1.0
        Q += lam1[g] * np.outer(ind, ind)
        q -= lam1[g] * ind
    Q += lam2 * np.ones((dim, dim))
    q -= lam2 * (2 * n - 3) * np.ones(dim)
    offset += lam2 * (n - 1) * (n - 2)
    return QuboModel(dim=dim, Q=Q, q=q, offset=offset, formulation="inserted", n=n)


def build_formulation(inst: QapInstance, formulation: str, scale: float = 1.0) -> QuboModel:
    """Dispatch to one of the three builders by name."""
    builders = {
        "baseline": build_baseline,
        "row_wise": build_row_wise,
        "inserted": build_inserted,
    }
    if formulation not in builders:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    return builders[formulation](inst, scale)


def decode(model: QuboModel, bits) -> PermutationMatrix | None:
    """Map a model state back to a permutation matrix, or None if infeasible.

    baseline/row_wise states are reshaped column-major and checked for
    unit row/column sums.  inserted states reconstruct the eliminated
    first row and column; any reconstructed entry outside {0, 1} marks
    the state invalid.
    """
    bits = np.asarray(bits)
    if bits.shape != (model.dim,):
        raise ValueError(f"state must have length {model.dim}, got shape {bits.shape}")
    n = model.n
    if model.formulation in ("baseline", "row_wise"):
        X = bits.reshape(n, n, order="F")
    else:
        r = n - 1
        Y = bits.reshape(r, r, order="F")
        X = np.zeros((n, n))
        X[1:, 1:] = Y
        X[0, 0] = 2 - n + Y.sum()
        X[0, 1:] = 1 - Y.sum(axis=0)
        X[1:, 0] = 1 - Y.sum(axis=1)
    if not np.all((X == 0) | (X == 1)):
        return None
    if np.any(X.sum(axis=0) != 1) or np.any(X.sum(axis=1) != 1):
        return None
    return PermutationMatrix(n, np.argmax(X, axis=0))


def reduced_bits(perm: PermutationMatrix) -> np.ndarray:
    """Interior bits X[1:,1:] of a permutation, the inserted-model coordinates."""
    return perm.matrix()[1:, 1:].flatten(order="F").astype(int)


def to_spin(model: QuboModel) -> SpinModel:
    """Change of variables s = 2x - 1.

    Q_s = Q/4 and q_s = (Q 1 + q)/2; the offset absorbs every constant
    so binary and spin energies agree exactly on all states.  Requires a
    symmetric Q (symmetrise first).
    """
    if not np.allclose(model.Q, model.Q.T, rtol=1e-12, atol=1e-12):
        raise ValueError("to_spin requires a symmetric Q; symmetrize the model first")
    Q = (model.Q + model.Q.T) / 2.0
    Q_s = Q / 4.0
    q_s = 0.5 * (Q @ np.ones(model.dim) + model.q)
    offset_s = model.offset + 0.25 * float(Q.sum()) + 0.5 * float(model.q.sum())
    return SpinModel(Q_s=Q_s, q_s=q_s, offset_s=offset_s)


def normalize_couplings(spin: SpinModel) -> tuple[SpinModel, float]:
    """Joint rescaling so that max|Q_s| <= 1 and max|q_s| <= 2.

    Mirrors the feasible coupling/bias ranges of annealing hardware; the
    returned factor divides all coefficients (and the offset, keeping
    energies proportional).  Zero models are returned unchanged.
    """
    r = max(float(np.abs(spin.Q_s).max(initial=0.0)), float(np.abs(spin.q_s).max(initial=0.0)) / 2.0)
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
        def pair(p):
            return {"min": p[0], "max": p[1]}

        return {
            "scale_factor": self.scale_factor,
            "quadratic_problem": pair(self.quadratic_problem),
            "quadratic_penalty": pair(self.quadratic_penalty),
            "linear_problem": pair(self.linear_problem),
            "linear_penalty": pair(self.linear_penalty),
            "ratio_quadratic": self.ratio_quadratic,
            "ratio_linear": self.ratio_linear,
        }


def _data_part(model: QuboModel, inst: QapInstance) -> tuple[np.ndarray, np.ndarray]:
    if model.formulation == "inserted":
        W_red, c_red, _ = _reduced_objective(inst)
        return W_red, c_red
    Wsym = (inst.W + inst.W.T) / 2.0
    return Wsym, inst.c.copy()


def coupling_report(model: QuboModel, inst: QapInstance) -> CouplingReport:
    """Split coefficients into data and penalty contributions and report ranges.

    The penalty part is Q - Q_data and q - q_data; it yields the same
    energy on every valid permutation, so only the data part can tell
    permutations apart.  Large penalty-to-data ratios mean most of the
    representable coupling range is spent on enforcing feasibility.
    """
    Q_prob, q_prob = _data_part(model, inst)
    Q_reg = model.Q - Q_prob
    q_reg = model.q - q_prob
    r = max(float(np.abs(model.Q).max(initial=0.0)), float(np.abs(model.q).max(initial=0.0)) / 2.0)
    factor = r if r > 0 else 1.0

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


def enumerate_states(dim: int) -> np.ndarray:
    """All binary states as a (2^dim, dim) array; bit i of index z is column i."""
    if dim > EXHAUSTIVE_MAX_BITS:
        raise SizeCapError(f"exhaustive enumeration is limited to {EXHAUSTIVE_MAX_BITS} bits")
    z = np.arange(2**dim, dtype=np.int64)
    return ((z[:, None] >> np.arange(dim)) & 1).astype(np.int8)


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


def import_sparse(path, formulation: str, n: int) -> QuboModel:
    """Parse the text export back into an (upper-triangular) model."""
    offset = 0.0
    entries = []
    max_idx = -1
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "offset":
                offset = float(parts[1])
                continue
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            if min(i, j) < 0:
                raise ValueError("negative index")
        except (IndexError, ValueError) as exc:
            raise ValueError(
                f"{path}:{lineno}: expected 'offset value' or 'i j value', got {line!r}"
            ) from exc
        entries.append((i, j, v))
        max_idx = max(max_idx, i, j)
    dim = max_idx + 1
    if formulation == "inserted":
        dim = max(dim, (n - 1) ** 2)
    else:
        dim = max(dim, n * n)
    Q = np.zeros((dim, dim))
    q = np.zeros(dim)
    for i, j, v in entries:
        if i == j:
            q[i] += v
        else:
            Q[i, j] += v
    return QuboModel(dim=dim, Q=Q, q=q, offset=offset, formulation=formulation, n=n)
