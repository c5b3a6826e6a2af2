"""Shared test settings.

Property tests run under one deterministic ``hypothesis`` profile: each
test's examples derive from the test itself rather than a random seed,
their number is bounded, there is no per-example deadline and no example
database, so a slow or noisy host changes how long they take, never whether
they pass.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("deterministic")
