"""Property: parallel validation is bit-identical to serial validation.

The determinism contract of :mod:`repro.runtime` — per-unit seeds are
spawned before dispatch, so *where* a fold runs can never change *what*
it computes.  Verified here on the full CLEAR LOSO harness, the deepest
fan-out in the repo (clustering + per-cluster training + fine-tuning
per fold).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    clear_validation,
)
from repro.datasets import WEMACConfig
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.scenarios import WEMACScenario

#: Smallest config that exercises every pipeline stage (4 clusters,
#: training, fine-tuning) while keeping one LOSO fold sub-second.
TINY_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=2,
    model=ModelConfig(conv_filters=(2, 4), lstm_units=4, dropout=0.0),
    training=TrainingConfig(epochs=2, batch_size=8, early_stopping_patience=2),
    fine_tuning=FineTuneConfig(epochs=1),
    seed=0,
)
FOLDS = 2


def canon(result):
    """A CLEARValidationResult reduced to exactly-comparable plain data."""
    def folds(summary):
        return [(f.fold_id, f.accuracy, f.f1) for f in summary.folds]

    return (
        folds(result.without_ft),
        folds(result.rt_clear),
        None if result.with_ft is None else folds(result.with_ft),
        sorted(result.assignments.items()),
        sorted(result.assignment_matches_gc.items()),
    )


@pytest.fixture(scope="module")
def dataset():
    return WEMACScenario(WEMACConfig.tiny(seed=0)).materialize()


@pytest.fixture(scope="module")
def serial_baseline(dataset):
    return canon(
        clear_validation(
            dataset, TINY_CFG, max_folds=FOLDS, executor=SerialExecutor()
        )
    )


class TestParallelEquivalence:
    @given(workers=st.sampled_from([1, 2, 4]))
    @settings(max_examples=3, deadline=None)
    def test_clear_validation_bit_identical(
        self, dataset, serial_baseline, workers
    ):
        result = clear_validation(
            dataset,
            TINY_CFG,
            max_folds=FOLDS,
            executor=ParallelExecutor(workers),
        )
        assert canon(result) == serial_baseline
        assert result.provenance.executor in ("parallel", "serial")
        assert result.provenance.units == FOLDS

    def test_cached_run_bit_identical_and_warm(
        self, dataset, serial_baseline, tmp_path
    ):
        cold = clear_validation(
            dataset, TINY_CFG, max_folds=FOLDS, cache_dir=tmp_path
        )
        warm = clear_validation(
            dataset, TINY_CFG, max_folds=FOLDS, cache_dir=tmp_path
        )
        assert canon(cold) == serial_baseline
        assert canon(warm) == serial_baseline
        # A cold run trains at least once per distinct cluster membership
        # (later folds may already hit checkpoints earlier folds wrote).
        assert cold.provenance.cache_misses > 0
        total_units = cold.provenance.cache_hits + cold.provenance.cache_misses
        # Warm rerun re-trains nothing: every checkpoint lookup hits.
        assert warm.provenance.cache_misses == 0
        assert warm.provenance.cache_hits == total_units

    def test_parallel_generation_bit_identical(self, dataset):
        # Simulation and extraction both fan out per subject.
        twin = WEMACScenario(WEMACConfig.tiny(seed=0)).materialize(
            executor=ParallelExecutor(2)
        )
        assert len(twin.subjects) == len(dataset.subjects)
        for a, b in zip(dataset.subjects, twin.subjects):
            assert a.subject_id == b.subject_id
            for ma, mb in zip(a.maps, b.maps):
                assert (ma.values == mb.values).all()
                assert ma.label == mb.label
