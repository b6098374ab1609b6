"""Tests for corpus generation and fraction splits."""

import numpy as np
import pytest

from repro.datasets import WEMACConfig, split_maps_by_fraction
from repro.scenarios import WEMACScenario

TINY = WEMACConfig.tiny(seed=0)  # the ``tiny_dataset`` fixture's config


class TestWEMACConfig:
    def test_defaults_match_paper_scale(self):
        cfg = WEMACConfig()
        assert cfg.num_subjects == 44
        assert cfg.num_subjects * cfg.trials_per_subject == 792  # ~800 maps

    def test_trial_seconds(self):
        cfg = WEMACConfig(windows_per_map=8, window_seconds=10.0)
        assert cfg.trial_seconds == 80.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least"):
            WEMACConfig(num_subjects=2)
        with pytest.raises(ValueError, match="trials"):
            WEMACConfig(trials_per_subject=1)
        with pytest.raises(ValueError, match="archetype_weights"):
            WEMACConfig(archetype_weights=(1.0, 1.0))


class TestGeneratedCorpus:
    def test_summary_counts(self, tiny_dataset):
        summary = tiny_dataset.summary()
        cfg = TINY
        assert summary["num_subjects"] == cfg.num_subjects
        assert summary["num_maps"] == cfg.num_subjects * cfg.trials_per_subject
        assert summary["num_features"] == 123
        assert {m.num_windows for m in tiny_dataset.all_maps()} == {
            cfg.windows_per_map
        }

    def test_balanced_labels(self, tiny_dataset):
        assert tiny_dataset.summary()["positive_fraction"] == pytest.approx(0.5)

    def test_every_archetype_present(self, tiny_dataset):
        archetypes = set(tiny_dataset.archetype_assignment().values())
        assert archetypes == {0, 1, 2, 3}

    def test_maps_are_finite(self, tiny_dataset):
        for fmap in tiny_dataset.all_maps():
            assert np.isfinite(fmap.values).all()

    def test_subject_lookup(self, tiny_dataset):
        record = tiny_dataset.subject(0)
        assert record.subject_id == 0
        with pytest.raises(KeyError):
            tiny_dataset.subject(999)

    def test_determinism(self):
        cfg = WEMACConfig.tiny(seed=5)
        a = WEMACScenario(cfg).materialize()
        b = WEMACScenario(cfg).materialize()
        np.testing.assert_array_equal(
            a.subjects[0].maps[0].values, b.subjects[0].maps[0].values
        )

    def test_different_seeds_differ(self):
        a = WEMACScenario(WEMACConfig.tiny(seed=1)).materialize()
        b = WEMACScenario(WEMACConfig.tiny(seed=2)).materialize()
        assert not np.array_equal(
            a.subjects[0].maps[0].values, b.subjects[0].maps[0].values
        )

    def test_labels_match_schedule(self, tiny_dataset):
        config = WEMACScenario(TINY).build_config()
        for record in tiny_dataset.subjects:
            draw = WEMACScenario.draw_subject(config, record.subject_id)
            assert draw.profile.archetype_id == record.archetype_id
            np.testing.assert_array_equal(record.labels, draw.schedule.labels())


class TestSplits:
    def _maps(self, tiny_dataset):
        return tiny_dataset.subjects[0].maps

    def test_fraction_split_sizes(self, tiny_dataset):
        maps = self._maps(tiny_dataset)
        rng = np.random.default_rng(0)
        selected, rest = split_maps_by_fraction(maps, 0.25, rng)
        assert len(selected) + len(rest) == len(maps)
        assert 1 <= len(selected) < len(maps)

    def test_stratified_keeps_both_classes(self, tiny_dataset):
        maps = self._maps(tiny_dataset)
        rng = np.random.default_rng(0)
        selected, _ = split_maps_by_fraction(maps, 0.5, rng, stratified=True)
        labels = {m.label for m in selected}
        assert labels == {0, 1}

    def test_remainder_never_empty(self, tiny_dataset):
        maps = self._maps(tiny_dataset)
        rng = np.random.default_rng(0)
        _, rest = split_maps_by_fraction(maps, 0.9, rng)
        assert len(rest) >= 1

    def test_invalid_fraction(self, tiny_dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="fraction"):
            split_maps_by_fraction(self._maps(tiny_dataset), 1.5, rng)

    def test_too_few_maps_raises(self, tiny_dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="at least 2"):
            split_maps_by_fraction(self._maps(tiny_dataset)[:1], 0.5, rng)
