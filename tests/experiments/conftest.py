"""The paper suite's rows, computed once per test session."""

from functools import lru_cache

import pytest

from repro.experiments import artefact


@pytest.fixture(scope="session")
def artefact_rows():
    """``artefact_rows(name)``: artefact ``name``'s ``run()`` at its
    defaults, the rows its committed file was rendered from.

    Figures 3 and 13 and the Amdahl analysis share one workload profile
    (``profile_all`` caches it).
    """
    return lru_cache(maxsize=None)(lambda name: artefact(name).run())
