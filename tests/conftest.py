"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so a run
tests the same examples every time, with no deadline, because example
timings vary on a loaded machine, and with no example database, so a run
leaves no files behind.
"""

from hypothesis import settings

settings.register_profile(
    "heckeclifford", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("heckeclifford")
