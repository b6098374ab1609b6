"""Tests for the Table II experiment runners (tiny scale)."""

import pytest

from repro.core import CLEAR, clear_validation
from repro.experiments import (
    ExperimentScale,
    run_all,
    run_table2_lower,
    run_table2_upper,
)


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale.tiny(seed=0)


@pytest.fixture(scope="module")
def folds(tiny_scale, tiny_dataset):
    """Table II's folds are Table I's CLEAR LOSO folds."""
    return clear_validation(
        tiny_dataset, tiny_scale.clear, max_folds=tiny_scale.max_folds
    ).folds


class TestEdgeFolds:
    def test_fold_count_respects_max(self, folds):
        assert len(folds) == 2

    def test_fold_contents(self, folds):
        for fold in folds:
            assert fold.checkpoint is not None
            assert fold.tuned is not None
            assert fold.calibration_maps
            assert fold.test_maps
            assert fold.ft_examples >= 1


class TestTable2Runners:
    def test_upper_report(self, tiny_scale, tiny_dataset, folds):
        report = run_table2_upper(tiny_scale, tiny_dataset, folds)
        assert report.experiment_id == "table2_upper"
        assert set(report.measured) == {"gpu", "coral_tpu", "pi_ncs2"}
        for row in report.measured.values():
            assert 0.0 <= row["accuracy"] <= 100.0
        assert "Coral TPU" in report.text

    def test_lower_report(self, tiny_scale, tiny_dataset, folds):
        report = run_table2_lower(tiny_scale, tiny_dataset, folds)
        assert report.experiment_id == "table2_lower"
        costs = report.measured["costs"]
        # The cost-model orderings must hold even at tiny scale.
        assert costs["coral_tpu"]["test_ms"] < costs["pi_ncs2"]["test_ms"]
        assert costs["coral_tpu"]["retrain_s"] < costs["pi_ncs2"]["retrain_s"]
        assert report.checks["tpu_lower_power"]

    def test_reports_carry_paper_values(self, tiny_scale, tiny_dataset, folds):
        report = run_table2_lower(tiny_scale, tiny_dataset, folds)
        assert report.paper["coral_tpu"]["retrain_s"] == 32.48
        assert report.paper["pi_ncs2"]["test_ms"] == 239.70


class TestFoldReuse:
    def test_run_all_fits_each_fold_once(self, tiny_scale, monkeypatch):
        """Table II reuses Table I's folds: one cloud fit per fold + Fig. 1."""
        fits = []
        fit = CLEAR.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(self)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(CLEAR, "fit", counting_fit)
        registry = run_all(tiny_scale)
        assert len(fits) == tiny_scale.max_folds + 1
        assert registry.get("table2_lower").experiment_id == "table2_lower"
