"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so a run
tests the same examples every time, with no deadline, because example
timings vary on a loaded machine, and with no example database, so no
example is saved between runs.  A failing property test still writes its
reproduction patch under .hypothesis/patches/ in the working directory;
.gitignore keeps it out of the tree.
"""

import pytest
from hypothesis import settings

from heckeclifford import grothendieck

settings.register_profile(
    "heckeclifford", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("heckeclifford")


@pytest.fixture
def non_integral_library(monkeypatch):
    """The character library plus one entry whose e_0^(2) has coefficient 1/2.

    Returns the record divided_power_integrality must report for it, less the
    error text.
    """
    library = grothendieck.character_library
    entry = ((0, 1, 2, 0), grothendieck.WordSum.word((0, 0)))
    monkeypatch.setattr(
        grothendieck, "character_library", lambda l: library(l) + [entry]
    )
    return {"label": (0, 1, 2, 0), "letter": 0, "r": 2}
