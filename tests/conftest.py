"""Shared fixtures: session-scoped synthetic corpora and the analysis of
``src/repro`` (expensive to build)."""

from pathlib import Path

import pytest

from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="session")
def src_analysis():
    """The static analyzer's result over all of ``src/repro``, run once."""
    from repro.analysis.dataflow import analyze_paths

    return analyze_paths([SRC])


@pytest.fixture(scope="session")
def tiny_dataset():
    """8 subjects x 4 trials; enough for pipeline mechanics tests."""
    return WEMACScenario(WEMACConfig.tiny(seed=0)).materialize()


@pytest.fixture(scope="session")
def small_dataset():
    """16 subjects x 8 trials; enough structure for clustering tests."""
    return WEMACScenario(WEMACConfig.small(seed=0)).materialize()


@pytest.fixture(scope="session")
def tiny_maps_by_subject(tiny_dataset):
    return {s.subject_id: list(s.maps) for s in tiny_dataset.subjects}


@pytest.fixture(scope="session")
def small_maps_by_subject(small_dataset):
    return {s.subject_id: list(s.maps) for s in small_dataset.subjects}
