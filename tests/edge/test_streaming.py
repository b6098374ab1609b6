"""Tests for the streaming (real-time) edge inference runtime."""

import numpy as np
import pytest

from repro.core import ModelConfig, TrainingConfig, train_on_maps
from repro.datasets import FEAR, NON_FEAR, PhysiologicalSimulator, sample_subject
from repro.edge.streaming import (
    OnlineDetector,
    RingBuffer,
    StreamingFeatureExtractor,
)
from repro.resilience.degradation import MajorityVote
from repro.signals import FeatureExtractor, SensorRates
from repro.signals.feature_map import build_feature_map


class TestRingBuffer:
    def test_fills_and_reports_len(self):
        buf = RingBuffer(5)
        assert len(buf) == 0 and not buf.full
        buf.append([1, 2, 3])
        assert len(buf) == 3
        buf.append([4, 5])
        assert buf.full

    def test_latest_in_time_order(self):
        buf = RingBuffer(4)
        buf.append([1, 2, 3, 4])
        np.testing.assert_array_equal(buf.latest(), [1, 2, 3, 4])
        buf.append([5, 6])
        np.testing.assert_array_equal(buf.latest(), [3, 4, 5, 6])
        np.testing.assert_array_equal(buf.latest(2), [5, 6])

    def test_oversized_append_keeps_newest(self):
        buf = RingBuffer(3)
        buf.append(np.arange(10))
        np.testing.assert_array_equal(buf.latest(), [7, 8, 9])

    def test_wraparound_many_appends(self):
        buf = RingBuffer(4)
        for i in range(25):
            buf.append([float(i)])
        np.testing.assert_array_equal(buf.latest(), [21, 22, 23, 24])

    def test_total_seen_counts_everything(self):
        buf = RingBuffer(2)
        buf.append([1, 2, 3])
        buf.append([4])
        assert buf.total_seen == 4

    def test_read_too_many_raises(self):
        buf = RingBuffer(4)
        buf.append([1])
        with pytest.raises(ValueError, match="cannot read"):
            buf.latest(2)

    def test_zero_read(self):
        buf = RingBuffer(4)
        assert buf.latest(0).size == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RingBuffer(0)


def make_stream_chunks(profile, label, seconds, rng, chunk_seconds=1.0):
    """Simulate a trial and slice it into per-second chunks."""
    sim = PhysiologicalSimulator(fs_bvp=32.0, fs_gsr=4.0, fs_skt=4.0)
    raw = sim.simulate_trial(profile, label, seconds, rng)
    chunks = []
    n_chunks = int(seconds / chunk_seconds)
    for i in range(n_chunks):
        chunks.append(
            {
                "bvp": raw["bvp"][i * 32 : (i + 1) * 32],
                "gsr": raw["gsr"][i * 4 : (i + 1) * 4],
                "skt": raw["skt"][i * 4 : (i + 1) * 4],
            }
        )
    return chunks


RATES = SensorRates(bvp=32.0, gsr=4.0, skt=4.0)


class TestStreamingFeatureExtractor:
    def test_emits_after_first_full_window(self):
        rng = np.random.default_rng(0)
        profile = sample_subject(0, 0, rng)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        chunks = make_stream_chunks(profile, NON_FEAR, 20.0, rng)
        events = []
        for chunk in chunks:
            events.extend(stream.push(**chunk))
        # 20 s of stream, 8 s windows, hop 8 s -> 2 windows ready.
        assert len(events) == 2
        assert events[0].features.shape == (123,)

    def test_overlapping_hop_emits_more(self):
        rng = np.random.default_rng(1)
        profile = sample_subject(0, 0, rng)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0, hop_seconds=4.0)
        chunks = make_stream_chunks(profile, NON_FEAR, 20.0, rng)
        events = []
        for chunk in chunks:
            events.extend(stream.push(**chunk))
        # Windows end at t = 8, 12, 16, 20.
        assert len(events) == 4

        # One bulk push of the same samples emits the same windows.
        bulk = StreamingFeatureExtractor(RATES, window_seconds=8.0, hop_seconds=4.0)
        bulk_events = bulk.push(
            **{ch: np.concatenate([c[ch] for c in chunks]) for ch in chunks[0]}
        )
        assert [e.index for e in bulk_events] == [e.index for e in events]
        for got, want in zip(bulk_events, events):
            np.testing.assert_array_equal(got.features, want.features)

    def test_event_indices_sequential(self):
        rng = np.random.default_rng(2)
        profile = sample_subject(0, 1, rng)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0, hop_seconds=4.0)
        events = []
        for chunk in make_stream_chunks(profile, FEAR, 24.0, rng):
            events.extend(stream.push(**chunk))
        assert [e.index for e in events] == list(range(len(events)))

    def test_matches_offline_extraction(self):
        """The first streamed window must equal the batch extraction."""
        rng = np.random.default_rng(3)
        profile = sample_subject(0, 0, rng)
        sim = PhysiologicalSimulator(fs_bvp=32.0, fs_gsr=4.0, fs_skt=4.0)
        raw = sim.simulate_trial(profile, NON_FEAR, 8.0, rng)

        offline = FeatureExtractor(rates=RATES, window_seconds=8.0).extract_window(
            raw["bvp"], raw["gsr"], raw["skt"]
        )
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        events = stream.push(bvp=raw["bvp"], gsr=raw["gsr"], skt=raw["skt"])
        assert len(events) == 1
        np.testing.assert_allclose(events[0].features, offline, atol=1e-12)

    def test_invalid_hop(self):
        with pytest.raises(ValueError, match="hop_seconds"):
            StreamingFeatureExtractor(RATES, window_seconds=8.0, hop_seconds=0.0)


class TestOnlineDetector:
    @pytest.fixture(scope="class")
    def trained(self):
        """Train a small model on one simulated subject's windows."""
        rng = np.random.default_rng(4)
        profile = sample_subject(0, 0, rng, jitter=0.02)
        sim = PhysiologicalSimulator(fs_bvp=32.0, fs_gsr=4.0, fs_skt=4.0)
        fe = FeatureExtractor(rates=RATES, window_seconds=8.0)
        maps = []
        for label in (NON_FEAR, FEAR) * 8:
            raw = sim.simulate_trial(profile, label, 32.0, rng)
            vectors = fe.extract_recording(raw["bvp"], raw["gsr"], raw["skt"])
            maps.append(build_feature_map(vectors, label=label, subject_id=0))
        model = train_on_maps(
            maps,
            ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
            TrainingConfig(epochs=15, batch_size=8),
            seed=0,
        )
        return model, profile

    def test_detects_after_map_fills(self, trained):
        model, profile = trained
        rng = np.random.default_rng(5)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        detector = OnlineDetector(model, windows_per_map=4, streaming=stream)
        detections = []
        for chunk in make_stream_chunks(profile, FEAR, 48.0, rng):
            detections.extend(detector.push(**chunk))
        # 48 s / 8 s = 6 windows; detections start at the 4th.
        assert len(detections) == 3
        assert all(d.smoothed_prediction in (0, 1) for d in detections)

    def test_stream_time_recorded(self, trained):
        model, profile = trained
        rng = np.random.default_rng(6)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        detector = OnlineDetector(model, windows_per_map=4, streaming=stream)
        for chunk in make_stream_chunks(profile, FEAR, 40.0, rng):
            detector.push(**chunk)
        assert detector.detections
        assert detector.detections[-1].stream_time == pytest.approx(40.0, abs=1.0)

    def test_smoothing_majority_vote(self, trained):
        model, _ = trained
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        detector = OnlineDetector(model, windows_per_map=4, streaming=stream)
        # The detector smooths with the vote serving sessions use.
        assert isinstance(detector._vote, MajorityVote)
        vote = MajorityVote()
        # Tie at {0, 1} goes to class 0.
        assert [vote(raw) for raw in (1, 0, 1, 0)] == [1, 0, 1, 0]

    def test_fear_stream_classified_as_fear(self, trained):
        """End-to-end: a fear stream should mostly produce fear votes."""
        model, profile = trained
        rng = np.random.default_rng(7)
        results = {}
        for label in (NON_FEAR, FEAR):
            stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
            detector = OnlineDetector(model, windows_per_map=4, streaming=stream)
            for chunk in make_stream_chunks(profile, label, 64.0, rng):
                detector.push(**chunk)
            preds = [d.smoothed_prediction for d in detector.detections]
            results[label] = np.mean(preds)
        assert results[FEAR] > results[NON_FEAR]

    def test_reset_clears_state(self, trained):
        model, profile = trained
        rng = np.random.default_rng(8)
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        detector = OnlineDetector(model, windows_per_map=2, streaming=stream)
        for chunk in make_stream_chunks(profile, FEAR, 24.0, rng):
            detector.push(**chunk)
        assert detector.detections
        detector.reset()
        assert not detector.detections

    def test_validation(self, trained):
        model, _ = trained
        stream = StreamingFeatureExtractor(RATES, window_seconds=8.0)
        with pytest.raises(ValueError, match="windows_per_map"):
            OnlineDetector(model, 0, stream)
