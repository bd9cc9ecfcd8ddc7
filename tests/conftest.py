"""Hypothesis settings shared by every property test.

The "bounded" profile drops the explain phase, which replays a failing
example over and over to report which parts of it mattered: on a property
that calls the loop oracles that took minutes and close to 1 GB.  Each
test's own settings (max_examples, derandomize, deadline, database) still
apply on top of it.
"""

from hypothesis import Phase, settings

settings.register_profile("bounded", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("bounded")
