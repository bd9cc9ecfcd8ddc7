"""Quadratic assignment problems over permutation matrices.

An instance asks to minimise

    f(x) = x^T W x + c^T x,    x = vec(X),  X an n-by-n permutation matrix,

where vec stacks columns: column j of X occupies positions j*n .. j*n+n-1
of x.  Every module in this package shares that single vectorisation
convention.  Binary vectors are plain integer numpy arrays; validation
happens at the boundaries rather than through a wrapper class.

The exact oracle, :func:`permutation_extremes`, prices all n! permutations
in one prefix-tree pass and returns both extremes: the optimum f_opt and
the worst permutation's energy f_worst, which is charged to solver
outputs that are no permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import _check_json_types, _json_fields, check_count, check_size, read_json

# JSON type of each instance field (see errors._fault), and the fields to_dict writes.
_INSTANCE_TYPES = {"n": int, "W": [[float]], "c": [float]}


def _as_array(a, shape, name):
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass
class QapInstance:
    """Quadratic assignment instance.

    Attributes:
        n: side length of the permutation matrices.
        W: quadratic cost matrix of shape (n^2, n^2), stored exactly as
           given; it is never symmetrised implicitly.
        c: linear cost vector of length n^2.
    """

    n: int
    W: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.n = check_count("n", self.n)
        m = self.n * self.n
        self.W = _as_array(self.W, (m, m), "W")
        self.c = _as_array(self.c, (m,), "c")

    def to_dict(self) -> dict:
        return _json_fields(self, _INSTANCE_TYPES)

    @classmethod
    def from_dict(cls, data: dict) -> "QapInstance":
        _check_json_types(data, _INSTANCE_TYPES, "instance JSON")
        return cls(**{key: data[key] for key in _INSTANCE_TYPES})

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "QapInstance":
        return read_json(path, cls.from_dict)


@dataclass
class PermutationMatrix:
    """Permutation matrix encoded by its column assignment.

    ``assignment[j]`` is the row index i carrying the single one of
    column j, i.e. X[assignment[j], j] = 1.
    """

    n: int
    assignment: np.ndarray

    def __post_init__(self):
        self.n = check_count("n", self.n)
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.assignment.shape != (self.n,):
            raise ValueError(
                f"assignment must have length {self.n}, got shape {self.assignment.shape}"
            )
        if sorted(self.assignment.tolist()) != list(range(self.n)):
            raise ValueError("assignment must be a bijection on {0,...,n-1}")

    def matrix(self) -> np.ndarray:
        X = np.zeros((self.n, self.n))
        X[self.assignment, np.arange(self.n)] = 1.0
        return X

    @classmethod
    def identity(cls, n: int) -> "PermutationMatrix":
        return cls(n, np.arange(n))


@dataclass
class DistanceData:
    """A pair of metric-like matrices defining matching costs.

    d1 holds distances between the nodes of the first structure, d2
    between the nodes of the second.
    """

    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        self.d1 = np.asarray(self.d1, dtype=float)
        self.d2 = np.asarray(self.d2, dtype=float)
        for name, d in (("d1", self.d1), ("d2", self.d2)):
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ValueError(f"{name} must be square, got shape {d.shape}")
            if not np.all(np.isfinite(d)):
                raise ValueError(f"{name} contains non-finite entries")
            if not np.array_equal(d, d.T):
                raise ValueError(f"{name} must be symmetric")
            if np.any(d < 0):
                raise ValueError(f"{name} must be nonnegative")
            if np.any(np.diag(d) != 0):
                raise ValueError(f"{name} must have a zero diagonal")
        if self.d1.shape != self.d2.shape:
            raise ValueError(
                f"d1 and d2 must have the same shape, got {self.d1.shape} and {self.d2.shape}"
            )

    @property
    def n(self) -> int:
        return self.d1.shape[0]


def vectorize(perm: PermutationMatrix) -> np.ndarray:
    """Column-major stacking of a permutation matrix into n^2 bits."""
    n = perm.n
    x = np.zeros(n * n, dtype=int)
    x[np.arange(n) * n + perm.assignment] = 1
    return x


def qap_energy(inst: QapInstance, x) -> float:
    """Evaluate x^T W x + c^T x with W exactly as stored."""
    x = np.asarray(x, dtype=float)
    m = inst.n * inst.n
    if x.shape != (m,):
        raise ValueError(f"x must have length {m}, got shape {x.shape}")
    return float(x @ inst.W @ x + inst.c @ x)


def permutation_extremes(
    inst: QapInstance,
) -> tuple[PermutationMatrix, float, PermutationMatrix, float]:
    """Exact minimiser and maximiser over all n! permutations, from one pass.

    Returns (best, f_opt, worst, f_worst).  The n! energies come from one
    walk down the prefix tree of assignments: column d of every prefix
    takes each of its unused rows in increasing order, so the leaves are
    in lexicographic order.  Each step adds only column d's own cost and
    its couplings with the d columns already placed, O(n) per leaf.  At the
    last column every prefix has one free row left, so its one child keeps
    the prefix's place: that level adds costs in place and gathers nothing.
    np.argmin/np.argmax return the first extreme, so ties go to the
    lexicographically smallest assignment.  n is capped (errors.SIZE_CAPS).
    """
    n = inst.n
    check_size("oracle", n)
    W4 = inst.W.reshape(n, n, n, n)  # W4[j, i, l, k] couples X[i, j] with X[k, l]
    pair = W4 + W4.transpose(2, 3, 0, 1)
    own = np.einsum("jiji->ji", W4) + inst.c.reshape(n, n)
    columns = []  # columns[l][p]: the row that prefix p puts in column l
    free = np.arange(n)[None, :]  # free[p]: the rows prefix p leaves unused, increasing
    energies = np.zeros(1)
    for d in range(n):
        r = n - d
        rows = free.ravel()
        if r > 1:
            parent = np.repeat(np.arange(len(free)), r)
            # The child that takes a prefix's i-th free row keeps the others in order.
            drop = np.array([np.delete(np.arange(r), i) for i in range(r)], dtype=np.intp)
            free = free[:, drop].reshape(len(rows), r - 1)
            columns = [col[parent] for col in columns]
            energies = energies[parent] + own[d, rows]
        else:
            energies += own[d, rows]
        coupling = pair[:, :, d, :].reshape(n, n * n)
        for l, col in enumerate(columns):
            energies += coupling[l][col * n + rows]
        columns.append(rows)
    lo, hi = int(np.argmin(energies)), int(np.argmax(energies))

    def leaf(k):
        return PermutationMatrix(n, np.array([col[k] for col in columns]))

    return leaf(lo), float(energies[lo]), leaf(hi), float(energies[hi])


def brute_force_qap(inst: QapInstance) -> tuple[PermutationMatrix, float]:
    """Exact minimiser over all n! permutations (see :func:`permutation_extremes`)."""
    best, f_opt, _, _ = permutation_extremes(inst)
    return best, f_opt


def worst_permutation(inst: QapInstance) -> tuple[PermutationMatrix, float]:
    """Exact maximiser over all n! permutations (used to price invalid outputs)."""
    _, _, worst, f_worst = permutation_extremes(inst)
    return worst, f_worst


def isometric_cost(dist: DistanceData) -> QapInstance:
    """Matching costs rewarding distance-preserving assignments.

    The quadratic coupling between x_(i,j) and x_(k,l) is
    |d1(i,k) - d2(j,l)|, so the energy of a permutation sums the metric
    distortion over all node pairs.  There is no linear term.
    """
    n = dist.n
    # Axes (i, j, k, l) -> entry at (j*n+i, l*n+k) under column-major vec.
    four = np.abs(dist.d1[:, None, :, None] - dist.d2[None, :, None, :])
    W = four.transpose(1, 0, 3, 2).reshape(n * n, n * n)
    return QapInstance(n=n, W=W, c=np.zeros(n * n))

