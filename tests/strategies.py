"""Hypothesis strategies for adversarial QAP instances shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from permqubo import QapInstance


@st.composite
def adversarial_instances(draw, sizes=(2, 3)):
    """W and c with exact integer ties or twelve decades of range, mostly zeros and asymmetric."""
    n = draw(st.sampled_from(sizes))
    m = n * n
    integer = draw(st.booleans())
    if integer:
        value = st.integers(-2, 2).map(float)
    else:
        value = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.integers(-6, 6))
    zero_share = draw(st.sampled_from((0.0, 0.5, 0.9)))
    k = m * m + m
    if n <= 3:
        entries = draw(st.lists(st.tuples(value, st.floats(0.0, 1.0)), min_size=k, max_size=k))
        flat = np.array([v if keep >= zero_share else 0.0 for v, keep in entries])
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
