"""Tests for the ASCII visualization helpers."""

from repro import viz


class TestSparkline:
    def test_length_matches_input(self):
        assert len(viz.sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_blocks(self):
        line = viz.sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        codes = [viz._BLOCKS.index(ch) for ch in line]
        assert codes == sorted(codes)

    def test_constant_series(self):
        line = viz.sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_empty(self):
        assert viz.sparkline([]) == ""


class TestAssignmentScores:
    def test_renders_all_clusters(self):
        text = viz.assignment_scores({0: 3.2, 1: 1.1, 2: 4.0})
        assert "cluster 0" in text and "cluster 2" in text

    def test_one_row_per_cluster_with_value(self):
        lines = viz.assignment_scores({1: 2.0, 0: 1.0}).splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("cluster 0") and lines[0].endswith("1.00")
        assert lines[1].startswith("cluster 1") and lines[1].endswith("2.00")

    def test_largest_score_longest_bar(self):
        text = viz.assignment_scores({0: 1.0, 1: 4.0})
        bars = [line.count("█") for line in text.splitlines()]
        assert bars[1] > bars[0]

    def test_empty(self):
        assert viz.assignment_scores({}) == ""
