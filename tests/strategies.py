"""Hypothesis strategies for adversarial QAP instances shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from permqubo import QapInstance, QuboModel


def _coefficients(draw, k, integer, zero_share):
    """k values from {-2, ..., 2} or +-10^e (|e| <= 6), each zeroed with probability zero_share."""
    if integer:
        value = st.integers(-2, 2).map(float)
    else:
        value = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.integers(-6, 6))
    entries = draw(st.lists(st.tuples(value, st.floats(0.0, 1.0)), min_size=k, max_size=k))
    return np.array([v if keep >= zero_share else 0.0 for v, keep in entries])


@st.composite
def adversarial_instances(draw, sizes=(2, 3)):
    """W and c with exact integer ties or twelve decades of range, mostly zeros and asymmetric."""
    n = draw(st.sampled_from(sizes))
    m = n * n
    integer = draw(st.booleans())
    zero_share = draw(st.sampled_from((0.0, 0.5, 0.9)))
    k = m * m + m
    if n <= 3:
        flat = _coefficients(draw, k, integer, zero_share)
    else:
        # Drawn one by one, n >= 4 overruns hypothesis's input buffer; the
        # same distribution comes from a drawn seed instead.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if integer:
            flat = rng.integers(-2, 3, k).astype(float)
        else:
            flat = rng.choice((-1.0, 1.0), k) * 10.0 ** rng.integers(-6, 7, k)
        flat[rng.random(k) < zero_share] = 0.0
    W, c = flat[: m * m].reshape(m, m), flat[m * m:]
    if draw(st.booleans()):
        W = np.triu(W)  # all couplings on one side of the diagonal
    return QapInstance(n, W, c)


# (formulation, n, dim) of every model shape with at most 9 variables.
SMALL_MODELS = (
    ("baseline", 1, 1), ("inserted", 2, 1), ("baseline", 2, 4),
    ("inserted", 3, 4), ("row_wise", 3, 9), ("inserted", 4, 9),
)


@st.composite
def adversarial_model_coefficients(draw, symmetric=True, integer=None):
    """(formulation, n, Q, q, offset, integer): Q, q and offset drawn like
    adversarial_instances' W and c, for a model shape of SMALL_MODELS.

    ``integer`` tells whether every coefficient is drawn from {-2, ..., 2},
    so that exact arithmetic can be demanded; None draws it.
    """
    formulation, n, dim = draw(st.sampled_from(SMALL_MODELS))
    if integer is None:
        integer = draw(st.booleans())
    zero_share = draw(st.sampled_from((0.0, 0.5, 0.9)))
    flat = _coefficients(draw, dim * dim + dim + 1, integer, zero_share)
    Q = flat[: dim * dim].reshape(dim, dim)
    if symmetric:
        Q = np.triu(Q) + np.triu(Q, 1).T
    return formulation, n, Q, flat[dim * dim:-1], flat[-1], integer


def build_model(formulation, n, Q, q, offset):
    return QuboModel(len(q), Q, q, offset, formulation, n)


def coefficient_mass(Q, q, offset):
    """The scale of a model's energies, for tolerances relative to it."""
    return np.abs(Q).sum() + np.abs(q).sum() + abs(offset)


def adversarial_models(symmetric=True):
    """A (QuboModel, integer) pair built from a draw of adversarial_model_coefficients."""
    return adversarial_model_coefficients(symmetric).map(lambda d: (build_model(*d[:5]), d[5]))
