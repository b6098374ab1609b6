"""Tests for stimulus schedules and the physiological simulator."""

import numpy as np
import pytest

from repro.datasets import (
    ARCHETYPES,
    FEAR,
    NON_FEAR,
    NUM_ARCHETYPES,
    PhysiologicalSimulator,
    Trial,
    balanced_schedule,
    sample_subject,
)
from repro.signals import detect_pulse_peaks, ibi_from_peaks


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestTrialsAndSchedules:
    def test_trial_validation(self):
        with pytest.raises(ValueError, match="label"):
            Trial(label=3, duration_seconds=10.0)
        with pytest.raises(ValueError, match="duration"):
            Trial(label=FEAR, duration_seconds=0.0)

    def test_balanced_schedule_half_fear(self, rng):
        schedule = balanced_schedule(10, 30.0, rng)
        assert schedule.num_trials == 10
        assert schedule.labels().sum() == 5

    def test_balanced_schedule_odd_count(self, rng):
        schedule = balanced_schedule(7, 30.0, rng)
        assert schedule.labels().sum() == 3  # extra trial is non-fear

    def test_total_duration(self, rng):
        schedule = balanced_schedule(4, 25.0, rng)
        assert schedule.total_duration == 100.0

    def test_order_randomized(self):
        a = balanced_schedule(12, 10.0, np.random.default_rng(0)).labels()
        b = balanced_schedule(12, 10.0, np.random.default_rng(99)).labels()
        assert not np.array_equal(a, b)

    def test_too_few_trials_raises(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            balanced_schedule(1, 10.0, rng)


class TestArchetypesAndSampling:
    def test_four_archetypes(self):
        assert NUM_ARCHETYPES == 4
        assert len({a.name for a in ARCHETYPES}) == 4

    def test_archetypes_have_distinct_resting_state(self):
        hrs = [a.rest_hr_bpm for a in ARCHETYPES]
        scls = [a.scl_base for a in ARCHETYPES]
        assert len(set(hrs)) == 4
        assert len(set(scls)) == 4

    def test_sample_subject_jitters_params(self, rng):
        a = sample_subject(0, 0, rng)
        b = sample_subject(1, 0, rng)
        assert a.params.rest_hr_bpm != b.params.rest_hr_bpm
        assert a.archetype_id == b.archetype_id == 0

    def test_sample_subject_stays_near_archetype(self, rng):
        base = ARCHETYPES[1]
        subjects = [sample_subject(i, 1, rng, jitter=0.05) for i in range(30)]
        hrs = np.array([s.params.rest_hr_bpm for s in subjects])
        assert abs(hrs.mean() - base.rest_hr_bpm) < 3.0

    def test_invalid_archetype_raises(self, rng):
        with pytest.raises(ValueError, match="archetype_id"):
            sample_subject(0, 99, rng)

    def test_physiological_floors_respected(self, rng):
        # Huge jitter must not produce non-physical parameters.
        for i in range(20):
            s = sample_subject(i, 3, rng, jitter=1.0)
            assert s.params.rest_hr_bpm >= 45.0
            assert s.params.hrv_std > 0
            assert s.params.scl_base > 0


class TestSimulator:
    def test_trace_lengths_match_rates(self, rng):
        sim = PhysiologicalSimulator(fs_bvp=64.0, fs_gsr=4.0, fs_skt=4.0)
        profile = sample_subject(0, 0, rng)
        raw = sim.simulate_trial(profile, NON_FEAR, 30.0, rng)
        assert raw["bvp"].size == 30 * 64
        assert raw["gsr"].size == 30 * 4
        assert raw["skt"].size == 30 * 4

    def test_bvp_heart_rate_matches_profile(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 0, rng, jitter=0.01)
        raw = sim.simulate_trial(profile, NON_FEAR, 60.0, rng)
        peaks = detect_pulse_peaks(raw["bvp"], 64.0)
        ibis = ibi_from_peaks(peaks, 64.0)
        est_hr = 60.0 / ibis.mean()
        assert est_hr == pytest.approx(profile.params.rest_hr_bpm, rel=0.12)

    def test_fear_raises_hr_for_cardiac_responder(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 0, rng, jitter=0.01)  # cardiac_responder
        hr_by_label = {}
        for label in (NON_FEAR, FEAR):
            rates = []
            for trial in range(6):
                raw = sim.simulate_trial(profile, label, 60.0, rng)
                peaks = detect_pulse_peaks(raw["bvp"], 64.0)
                ibis = ibi_from_peaks(peaks, 64.0)
                rates.append(60.0 / ibis.mean())
            hr_by_label[label] = np.mean(rates)
        assert hr_by_label[FEAR] > hr_by_label[NON_FEAR] + 5.0

    def test_fear_raises_gsr_activity_for_electrodermal(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 1, rng, jitter=0.01)  # electrodermal
        stds = {}
        for label in (NON_FEAR, FEAR):
            vals = []
            for _ in range(6):
                raw = sim.simulate_trial(profile, label, 60.0, rng)
                vals.append(raw["gsr"].std())
            stds[label] = np.mean(vals)
        assert stds[FEAR] > stds[NON_FEAR]

    def test_skt_baseline_matches_profile(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 2, rng, jitter=0.01)
        raw = sim.simulate_trial(profile, NON_FEAR, 60.0, rng)
        assert raw["skt"].mean() == pytest.approx(profile.params.skt_base, abs=0.3)

    def test_schedule_simulation_one_per_trial(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 0, rng)
        schedule = balanced_schedule(4, 20.0, rng)
        raws = sim.simulate_schedule(profile, schedule, rng)
        assert len(raws) == 4

    def test_invalid_duration_raises(self, rng):
        sim = PhysiologicalSimulator()
        profile = sample_subject(0, 0, rng)
        with pytest.raises(ValueError, match="duration"):
            sim.simulate_trial(profile, FEAR, -5.0, rng)

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError, match="positive"):
            PhysiologicalSimulator(fs_bvp=0.0)
