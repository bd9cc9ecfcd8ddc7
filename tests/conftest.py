"""Hypothesis settings shared by every property test, and shared fixtures.

The "bounded" profile drops the explain phase, which replays a failing
example over and over to report which parts of it mattered: on a property
that calls the loop oracles that took minutes and close to 1 GB.  Each
test's own settings (max_examples, derandomize, deadline, database) still
apply on top of it.
"""

import numpy as np
import pytest
from hypothesis import Phase, settings

from permqubo import anneal

settings.register_profile("bounded", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("bounded")


@pytest.fixture
def step_norms(monkeypatch) -> list:
    """The list that collects the norm of each CF4 step's state before
    ``_step_through`` renormalises it; evolve looks the step up when it is called."""
    norms = []
    step = anneal._cf4_step

    def recording(*args):
        psi = step(*args)
        norms.append(float(np.linalg.norm(psi)))
        return psi

    monkeypatch.setattr(anneal, "_cf4_step", recording)
    return norms
