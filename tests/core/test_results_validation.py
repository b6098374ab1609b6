"""Tests for result containers and the Table-I validation harness."""

import pytest

from repro.core import (
    CLEARConfig,
    FineTuneConfig,
    FoldMetrics,
    MetricSummary,
    ModelConfig,
    PAPER_TABLE1_REFERENCES,
    PAPER_TABLE1_RESULTS,
    TrainingConfig,
    cl_validation,
    clear_validation,
    evaluate_general_model,
    render_table,
)

FAST_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=3,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=8, batch_size=8, early_stopping_patience=3),
    fine_tuning=FineTuneConfig(epochs=4),
    seed=0,
)


class TestFoldMetrics:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="accuracy"):
            FoldMetrics(accuracy=1.5, f1=0.5)
        with pytest.raises(ValueError, match="f1"):
            FoldMetrics(accuracy=0.5, f1=-0.1)


class TestMetricSummary:
    def test_mean_std_in_percent(self):
        summary = MetricSummary("x")
        summary.add(FoldMetrics(0.8, 0.7))
        summary.add(FoldMetrics(0.6, 0.9))
        assert summary.accuracy_mean == pytest.approx(70.0)
        assert summary.f1_mean == pytest.approx(80.0)
        assert summary.accuracy_std == pytest.approx(10.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no folds"):
            MetricSummary("x").accuracy_mean

    def test_as_row_rounds(self):
        summary = MetricSummary("x")
        summary.add(FoldMetrics(0.123456, 0.654321))
        row = summary.as_row()
        assert row["accuracy"] == 12.35
        assert row["f1"] == 65.43


class TestPaperConstants:
    def test_reference_rows_present(self):
        assert "Bindi [22]" in PAPER_TABLE1_REFERENCES
        assert "Sun et al. [18]" in PAPER_TABLE1_REFERENCES

    def test_result_rows_match_paper(self):
        assert PAPER_TABLE1_RESULTS["CLEAR w FT"]["accuracy"] == 86.34
        assert PAPER_TABLE1_RESULTS["General Model"]["accuracy"] == 75.00
        assert PAPER_TABLE1_RESULTS["CL validation"]["accuracy"] == 81.90


class TestRenderTable:
    def test_renders_rows_and_paper_columns(self):
        summary = MetricSummary("CLEAR w FT")
        summary.add(FoldMetrics(0.85, 0.84))
        text = render_table(
            [summary], title="Table I", paper_rows=PAPER_TABLE1_RESULTS
        )
        assert "Table I" in text
        assert "CLEAR w FT" in text
        assert "86.34" in text  # paper column


class TestGeneralModel:
    def test_returns_summary_with_folds(self, tiny_dataset):
        summary = evaluate_general_model(
            tiny_dataset, FAST_CFG, group_size=3, max_folds=2
        )
        assert summary.name == "General Model"
        assert summary.num_folds == 2

    def test_group_size_validation(self, tiny_dataset):
        with pytest.raises(ValueError, match="group_size"):
            evaluate_general_model(tiny_dataset, FAST_CFG, group_size=999)


class TestCLValidation:
    def test_produces_cl_and_rt_rows(self, small_dataset):
        result = cl_validation(small_dataset, FAST_CFG, max_folds=4)
        assert result.cl.num_folds >= 1
        assert result.rt_cl.num_folds >= 1
        assert len(result.cluster_sizes) == 4

    def test_cl_beats_rt(self, small_dataset):
        """The robustness test: in-cluster models must not transfer."""
        result = cl_validation(small_dataset, FAST_CFG, max_folds=6)
        assert result.cl.accuracy_mean > result.rt_cl.accuracy_mean


class TestCLEARValidation:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        return clear_validation(small_dataset, FAST_CFG, max_folds=3)

    def test_row_counts(self, result):
        assert result.without_ft.num_folds == 3
        assert result.rt_clear.num_folds == 3
        assert result.with_ft.num_folds == 3

    def test_assignments_recorded(self, result):
        assert len(result.assignments) == 3
        assert all(0 <= c < 4 for c in result.assignments.values())

    def test_clear_beats_robustness_test(self, result):
        assert result.without_ft.accuracy_mean > result.rt_clear.accuracy_mean

    def test_skip_fine_tuning(self, small_dataset):
        result = clear_validation(
            small_dataset, FAST_CFG, with_fine_tuning=False, max_folds=1
        )
        assert result.with_ft is None
