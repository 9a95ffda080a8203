"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so a run
tests the same examples every time, with no deadline, because example
timings vary on a loaded machine, and with no example database, so no
example is saved between runs.  A failing property test still writes its
reproduction patch under .hypothesis/patches/ in the working directory;
.gitignore keeps it out of the tree.
"""

from hypothesis import settings

settings.register_profile(
    "heckeclifford", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("heckeclifford")
