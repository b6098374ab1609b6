"""Additional property-based tests for the newer modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.edge.streaming import RingBuffer
from repro.nn.layers import TemporalAttention
from repro.signals.quality import assess_quality, clipping_fraction, flatline_fraction

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestRingBufferProperties:
    @given(
        st.integers(1, 32),
        st.lists(st.lists(finite, min_size=0, max_size=20), min_size=1, max_size=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_latest_equals_tail_of_stream(self, capacity, chunks):
        """After any append sequence, latest() == the stream's tail."""
        buf = RingBuffer(capacity)
        stream = []
        for chunk in chunks:
            buf.append(chunk)
            stream.extend(chunk)
        expected = np.asarray(stream[-min(len(stream), capacity):], dtype=np.float64)
        np.testing.assert_array_equal(buf.latest(), expected)

    @given(st.integers(1, 16), st.lists(finite, min_size=0, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_counters_consistent(self, capacity, samples):
        buf = RingBuffer(capacity)
        buf.append(samples)
        assert buf.total_seen == len(samples)
        assert len(buf) == min(capacity, len(samples))
        assert buf.full == (len(samples) >= capacity)


class TestQualityProperties:
    @given(arrays(np.float64, st.integers(3, 200), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_scores_bounded(self, x):
        report = assess_quality(x)
        for value in (report.flatline, report.clipping, report.spikes, report.overall):
            assert 0.0 <= value <= 1.0

    @given(arrays(np.float64, st.integers(2, 100), elements=finite))
    @settings(max_examples=60, deadline=None)
    def test_fractions_bounded(self, x):
        assert 0.0 <= flatline_fraction(x) <= 1.0
        assert 0.0 <= clipping_fraction(x) <= 1.0

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False), st.integers(3, 50))
    @settings(max_examples=30, deadline=None)
    def test_constant_signal_is_flatline(self, value, n):
        assert flatline_fraction(np.full(n, value)) == 1.0


class TestAttentionProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 6), st.integers(1, 4)),
            elements=st.floats(min_value=-10, max_value=10,
                               allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_attention_output_in_convex_hull(self, x):
        layer = TemporalAttention(4)
        layer.ensure_built(x, np.random.default_rng(0))
        out = layer.forward(x)
        assert np.all(out <= x.max(axis=1) + 1e-9)
        assert np.all(out >= x.min(axis=1) - 1e-9)
        alpha = layer.attention_weights()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


class TestPruningProperties:
    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_sparsity_monotone_in_target(self, sparsity):
        from repro import nn
        from repro.edge.pruning import measure_sparsity, prune_model

        model = nn.Sequential([nn.Dense(16), nn.ReLU(), nn.Dense(2)], seed=0)
        model.build((8,))
        pruned = prune_model(model, sparsity)
        report = measure_sparsity(pruned, prunable=("W",))
        assert report.global_sparsity >= sparsity - 0.15
        # Never prunes more than requested + quantile granularity.
        assert report.global_sparsity <= sparsity + 0.15
