"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.clustering import KMeans, StandardScaler, pairwise_sq_distances
from repro.edge import quantize_dequantize_fp16, quantize_dequantize_int8
from repro.nn.activations import log_softmax, sigmoid, softmax
from repro.nn.layers.conv import col2im, im2col
from repro.nn.metrics import accuracy, confusion_matrix, precision_recall_f1
from repro.clustering.streaming import StreamingKMeans, fit_signature_matrix
from repro.scenarios import (
    PopulationDynamics,
    circumplex_scenario,
    scenario_fingerprint,
)
from repro.signals import FeatureMap, FeatureNormalizer
from repro.signals.feature_map import signature_matrix
from repro.signals.windows import num_windows, sliding_windows

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestActivationProperties:
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(2, 8)),
                  elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, x):
        p = softmax(x)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    @given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_bounded_and_monotone(self, x):
        y = sigmoid(np.sort(x))
        assert np.all((y >= 0) & (y <= 1))
        assert np.all(np.diff(y) >= -1e-12)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 6)),
               elements=finite_floats),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, x, shift):
        np.testing.assert_allclose(softmax(x), softmax(x + shift), atol=1e-9)

    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 6)),
                  elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_never_positive(self, x):
        assert np.all(log_softmax(x) <= 1e-12)


class TestQuantizationProperties:
    @given(arrays(np.float64, st.integers(1, 200), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_int8_idempotent(self, x):
        once = quantize_dequantize_int8(x)
        twice = quantize_dequantize_int8(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(arrays(np.float64, st.integers(1, 200), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_int8_error_bound(self, x):
        q = quantize_dequantize_int8(x)
        max_abs = np.abs(x).max()
        if max_abs > 0:
            assert np.max(np.abs(q - x)) <= max_abs / 127.0 + 1e-12

    @given(arrays(np.float64, st.integers(1, 100),
                  elements=st.floats(min_value=-1e4, max_value=1e4,
                                     allow_nan=False, allow_infinity=False)))
    @settings(max_examples=60, deadline=None)
    def test_fp16_idempotent(self, x):
        once = quantize_dequantize_fp16(x)
        np.testing.assert_array_equal(once, quantize_dequantize_fp16(once))


class TestClusteringProperties:
    @given(
        arrays(np.float64, st.tuples(st.integers(6, 30), st.integers(2, 5)),
               elements=st.floats(min_value=-100, max_value=100,
                                  allow_nan=False, allow_infinity=False)),
        st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_kmeans_partitions_all_points(self, x, k):
        result = KMeans(k, n_init=2, seed=0).fit(x)
        assert result.labels.shape == (x.shape[0],)
        assert np.all((result.labels >= 0) & (result.labels < k))
        assert result.inertia >= 0

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 4)),
               elements=st.floats(min_value=-50, max_value=50,
                                  allow_nan=False, allow_infinity=False))
    )
    @settings(max_examples=40, deadline=None)
    def test_pairwise_distances_symmetric_psd(self, x):
        d = pairwise_sq_distances(x, x)
        assert np.all(d >= 0)
        np.testing.assert_allclose(d, d.T, atol=1e-6)

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 20), st.integers(1, 5)),
               elements=st.floats(min_value=-100, max_value=100,
                                  allow_nan=False, allow_infinity=False))
    )
    @settings(max_examples=40, deadline=None)
    def test_scaler_output_bounded_stats(self, x):
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z).all()
        # atol accommodates catastrophic cancellation when std ~ eps.
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-5)


class TestMetricsProperties:
    labels = arrays(np.int64, st.integers(1, 60), elements=st.integers(0, 3))

    @given(labels, labels)
    @settings(max_examples=60, deadline=None)
    def test_confusion_matrix_total(self, t, p):
        n = min(t.size, p.size)
        t, p = t[:n], p[:n]
        cm = confusion_matrix(t, p, num_classes=4)
        assert cm.sum() == n

    @given(labels)
    @settings(max_examples=40, deadline=None)
    def test_perfect_prediction_accuracy_one(self, t):
        assert accuracy(t, t) == 1.0

    @given(labels, labels)
    @settings(max_examples=60, deadline=None)
    def test_f1_bounds(self, t, p):
        n = min(t.size, p.size)
        scores = precision_recall_f1(t[:n], p[:n], positive_class=1, num_classes=4)
        for value in scores.values():
            assert 0.0 <= value <= 1.0


class TestWindowProperties:
    @given(st.integers(1, 200), st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_window_count_formula(self, n, w, s):
        count = num_windows(n, w, s)
        x = np.arange(n)
        windows = sliding_windows(x, w, s)
        assert windows.shape == (count, w)
        if count > 0:
            # Last window must fit entirely.
            assert (count - 1) * s + w <= n
            # One more window would not fit.
            assert count * s + w > n

    @given(
        arrays(np.float64, st.integers(4, 100), elements=finite_floats),
        st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_windows_preserve_content(self, x, w):
        w = min(w, x.size)
        windows = sliding_windows(x, w, w)
        np.testing.assert_array_equal(np.concatenate(windows), x[: windows.size])


class TestIm2ColProperties:
    @given(
        st.integers(1, 3),  # batch
        st.integers(1, 3),  # channels
        st.integers(4, 9),  # h
        st.integers(4, 9),  # w
        st.integers(1, 3),  # kernel
        st.integers(1, 2),  # stride
    )
    @settings(max_examples=40, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, n, c, h, w, k, s):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c, h, w))
        pad = (k // 2, k // 2)
        try:
            cols, _ = im2col(x, (k, k), (s, s), pad)
        except ValueError:
            return  # geometry invalid; nothing to test
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, (k, k), (s, s), pad)))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestNormalizerProperties:
    @given(st.integers(2, 8), st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_normalizer_roundtrip_statistics(self, n_maps, f, w):
        rng = np.random.default_rng(n_maps * 100 + f * 10 + w)
        maps = [
            FeatureMap(rng.normal(5.0, 3.0, size=(f, w)), label=0, subject_id=i)
            for i in range(n_maps)
        ]
        normalized = FeatureNormalizer().fit_transform(maps)
        stacked = np.concatenate([m.values for m in normalized], axis=1)
        np.testing.assert_allclose(stacked.mean(axis=1), 0.0, atol=1e-8)
        assert np.all(stacked.std(axis=1) < 1.0 + 1e-8)


class TestTrainingInvariantProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_gradient_step_reduces_quadratic_loss(self, seed):
        """One small Adam step on a convex quadratic never increases loss.

        Adam's first step moves every weight by about ``lr`` toward the
        target, which lowers the loss whenever the mean distance exceeds
        ``lr / 2``; at ``lr=0.01`` that holds for any glorot init against
        a standard-normal target.
        """
        rng = np.random.default_rng(seed)
        layer = nn.Dense(3, use_bias=False)
        layer.build((4,), rng)
        target = rng.normal(size=(4, 3))

        def loss():
            return float(np.sum((layer.params["W"] - target) ** 2))

        before = loss()
        layer.grads["W"] = 2.0 * (layer.params["W"] - target)
        nn.Adam(lr=0.01).step([layer])
        assert loss() <= before + 1e-12


class TestScenarioStreamingProperties:
    """The streaming population contract, for *any* seed and chunk size."""

    @staticmethod
    def _scenario(seed, dynamics=None):
        return circumplex_scenario(
            num_subjects=6,
            seed=seed,
            maps_per_subject=3,
            windows_per_map=2,
            dynamics=dynamics,
        )

    @given(st.integers(0, 2**31 - 1), st.integers(1, 7))
    @settings(max_examples=15, deadline=None)
    def test_streamed_equals_materialized(self, seed, chunk):
        scenario = self._scenario(seed)
        streamed = scenario_fingerprint(
            scenario.iter_subjects(chunk_size=chunk)
        )
        materialized = scenario_fingerprint(scenario.materialize().subjects)
        assert streamed == materialized

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 5),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 0.9, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_dynamics_preserve_chunk_invariance(self, seed, chunk, drift, churn):
        dynamics = PopulationDynamics(archetype_drift=drift, churn_rate=churn)
        scenario = self._scenario(seed, dynamics=dynamics)
        streamed = scenario_fingerprint(
            scenario.iter_subjects(chunk_size=chunk)
        )
        one_by_one = scenario_fingerprint(scenario.iter_subjects(chunk_size=1))
        assert streamed == one_by_one

    @given(st.integers(0, 2**31 - 1), st.integers(1, 7))
    @settings(max_examples=10, deadline=None)
    def test_exact_stream_bitwise_equals_batch(self, seed, chunk):
        scenario = self._scenario(seed)
        chunks = (
            signature_matrix(c)
            for c in scenario.iter_chunks(chunk_size=chunk)
        )
        streamed = StreamingKMeans(2, n_init=2, seed=0).fit_chunks(chunks)
        full = signature_matrix(scenario.materialize().subjects)
        batch = fit_signature_matrix(full, 2, n_init=2, seed=0)
        np.testing.assert_array_equal(streamed.centers, batch.centers)
