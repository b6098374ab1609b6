"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5

    def test_accepts_logit_rows(self):
        logits = np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert accuracy([0, 1], logits) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy([0, 1], [0, 1, 1])


class TestConfusionMatrix:
    def test_entries(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])

    def test_explicit_num_classes(self):
        cm = confusion_matrix([0, 0], [0, 0], num_classes=3)
        assert cm.shape == (3, 3)
        assert cm[0, 0] == 2

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 4, 100)
        p = rng.integers(0, 4, 100)
        assert confusion_matrix(t, p).sum() == 100


class TestF1:
    def test_textbook_case(self):
        # TP=2 FP=1 FN=1 -> P=2/3, R=2/3, F1=2/3
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        scores = precision_recall_f1(y_true, y_pred)
        assert scores["precision"] == pytest.approx(2 / 3)
        assert scores["recall"] == pytest.approx(2 / 3)
        assert scores["f1"] == pytest.approx(2 / 3)

    def test_zero_division_returns_zero(self):
        # No predicted positives and no true positives.
        scores = precision_recall_f1([0, 0], [0, 0])
        assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_f1_score_shortcut(self):
        assert f1_score([1, 0], [1, 0]) == 1.0

    def test_positive_class_outside_explicit_num_classes_raises(self):
        with pytest.raises(ValueError, match="positive_class"):
            precision_recall_f1([0, 0], [0, 0], positive_class=5, num_classes=2)

    def test_absent_positive_class_scores_zero(self):
        # With no explicit num_classes the matrix expands to cover the
        # requested class, which then has zero support -> all-zero scores.
        scores = precision_recall_f1([0, 0], [0, 0], positive_class=5)
        assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
