"""Shared benchmark fixtures: the bench-scale corpus and CLEAR artifacts.

The paper's full scale (44 volunteers, LOSO everywhere, 40-epoch
training) is hours of pure-numpy compute; benches default to a reduced
corpus (20 volunteers, shorter trials) on which every Table I / Table II
ordering still emerges.  Set ``REPRO_BENCH_FOLDS`` to raise the number
of LOSO folds evaluated per protocol (default 5).
"""

import os
from typing import List

import pytest

from repro.core import CLEARConfig, CLEARFold, clear_validation
from repro.datasets import WEMACConfig
from repro.experiments.runner import ExperimentScale
from repro.scenarios import WEMACScenario

BENCH_FOLDS = int(os.environ.get("REPRO_BENCH_FOLDS", "5"))


def bench_dataset_config(seed: int = 2) -> WEMACConfig:
    """The corpus ``python -m repro.experiments --scale bench`` draws."""
    return ExperimentScale.bench(seed).dataset


@pytest.fixture(scope="session")
def bench_dataset():
    return WEMACScenario(bench_dataset_config()).materialize()


@pytest.fixture(scope="session")
def bench_config():
    return CLEARConfig.fast(seed=0)


@pytest.fixture(scope="session")
def bench_clear(bench_dataset, bench_config):
    """The Table I CLEAR LOSO; its folds are the Table II edge folds."""
    return clear_validation(bench_dataset, bench_config, max_folds=BENCH_FOLDS)


@pytest.fixture(scope="session")
def edge_folds(bench_clear) -> List[CLEARFold]:
    """LOSO folds fitted once; Table II benches reuse them per platform."""
    return bench_clear.folds
