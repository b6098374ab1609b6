"""Compute-backend contract tests: equivalence, dtypes, pickling, serving.

The load-bearing guarantees pinned here:

* Every model runs on ``optimized``; ``reference`` is the float64
  oracle, pinned through ``set_backend(ReferenceBackend())``.
* ``optimized`` forward passes are bit-identical to ``reference`` for
  equal dtypes (hypothesis sweeps over shapes/strides/paddings);
  backward passes agree to gradcheck tolerance.  The tiny table-1
  fingerprint at the bottom seals the pre-backend numbers end to end
  on the optimized backend.
* The backend owns dtype policy: ``float32`` survives end-to-end on
  ``optimized`` and is promoted to ``float64`` on ``reference``.
* A pickled model carries its parameters, not its layer caches.
"""

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import PaddingError
from repro.nn.backends import OptimizedBackend, ReferenceBackend
from repro.nn.gradcheck import check_model_gradients
from repro.nn.layers.conv import resolve_padding, same_axis_pads

BACKWARD_TOL = dict(rtol=1e-9, atol=1e-11)

BACKENDS = {"reference": ReferenceBackend(), "optimized": OptimizedBackend()}


def both_backends(build_layer, x, grad_fn=None):
    """Run forward+backward on reference then optimized with shared params.

    Returns ((out_ref, dx_ref, grads_ref), (out_opt, dx_opt, grads_opt)).
    """
    rng = np.random.default_rng(0)
    layer = build_layer()
    layer.ensure_built(x, rng)
    results = []
    for backend in BACKENDS.values():
        layer.set_backend(backend)  # clears backend state, keeps params
        out = layer.forward(x)
        grad = np.ones_like(out) if grad_fn is None else grad_fn(out)
        dx = layer.backward(grad)
        results.append((out, dx, {k: v.copy() for k, v in layer.grads.items()}))
    return results


class TestSamePaddingRegression:
    """'same' with even kernels / strides used to silently under-pad."""

    def test_resolve_padding_rejects_even_kernel_same(self):
        with pytest.raises(PaddingError, match="even kernel"):
            resolve_padding("same", (2, 2), (1, 1))
        with pytest.raises(PaddingError):
            resolve_padding("same", (3, 4), (1, 1))

    def test_padding_error_is_a_value_error(self):
        # Callers that caught ValueError from the old code keep working.
        assert issubclass(PaddingError, ValueError)

    def test_resolve_padding_odd_kernels_unchanged(self):
        assert resolve_padding("same", (3, 3), (1, 1)) == (1, 1)
        assert resolve_padding("same", (5, 3), (2, 2)) == (2, 1)
        assert resolve_padding("valid", (4, 4), (1, 1)) == (0, 0)
        assert resolve_padding(2, (3, 3), (1, 1)) == (2, 2)

    def test_unknown_mode_still_rejected(self):
        with pytest.raises(ValueError, match="unknown padding mode"):
            resolve_padding("full", (3, 3), (1, 1))

    @pytest.mark.parametrize("size", [4, 5, 7, 8, 16])
    @pytest.mark.parametrize("kernel", [2, 3, 4, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_same_axis_pads_reach_ceil_outputs(self, size, kernel, stride):
        before, after = same_axis_pads(size, kernel, stride)
        out = (size + before + after - kernel) // stride + 1
        assert out == -(-size // stride), (
            f"size={size} k={kernel} s={stride}: pads ({before},{after}) "
            f"give {out} outputs, want ceil={-(-size // stride)}"
        )

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    @pytest.mark.parametrize(
        "shape,kernel,stride",
        [((6, 8), 2, 1), ((7, 9), 2, 2), ((5, 5), 4, 2), ((8, 6), (2, 4), (2, 1))],
    )
    def test_even_kernel_same_conv_output_shape(self, backend, shape, kernel, stride):
        h, w = shape
        layer = nn.Conv2D(3, kernel, stride=stride, padding="same")
        layer.set_backend(BACKENDS[backend])
        x = np.random.default_rng(1).normal(size=(2, 1, h, w))
        layer.ensure_built(x, np.random.default_rng(2))
        out = layer.forward(x)
        sh, sw = layer.stride
        assert out.shape == (2, 3, -(-h // sh), -(-w // sw))
        assert out.shape[1:] == layer.output_shape((1, h, w))

    def test_even_kernel_same_conv_gradients(self):
        model = nn.Sequential(
            [nn.Conv2D(2, 2, stride=2, padding="same"), nn.Flatten(), nn.Dense(2)],
            seed=3,
        )
        x = np.random.default_rng(4).normal(size=(3, 1, 7, 5))
        y = np.array([0, 1, 0])
        errors = check_model_gradients(model, x, y, nn.SoftmaxCrossEntropy())
        for (layer, key), err in errors.items():
            assert err < 1e-4, f"{layer}.{key}: relative error {err}"


class TestBackendEquivalence:
    """optimized must match reference bit-for-bit on forwards (float64)."""

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(4, 10),
        w=st.integers(4, 10),
        filters=st.integers(1, 4),
        kh=st.integers(1, 4),
        kw=st.integers(1, 4),
        sh=st.integers(1, 3),
        sw=st.integers(1, 3),
        pad=st.sampled_from(["same", "valid", 0, 1, (2, 1)]),
        use_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_conv2d(self, n, c, h, w, filters, kh, kw, sh, sw, pad, use_bias, seed):
        if pad == "valid" and (kh > h or kw > w):
            pad = "same"  # keep the output non-empty
        x = np.random.default_rng(seed).normal(size=(n, c, h, w))
        ref, opt = both_backends(
            lambda: nn.Conv2D(
                filters, (kh, kw), stride=(sh, sw), padding=pad, use_bias=use_bias
            ),
            x,
        )
        assert np.array_equal(ref[0], opt[0]), "conv forward not bit-identical"
        np.testing.assert_allclose(opt[1], ref[1], **BACKWARD_TOL)
        for key in ref[2]:
            np.testing.assert_allclose(opt[2][key], ref[2][key], **BACKWARD_TOL)

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(3, 10),
        w=st.integers(3, 10),
        ph=st.integers(1, 3),
        pw=st.integers(1, 3),
        stride=st.sampled_from([None, 1, 2, (2, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooling(self, n, c, h, w, ph, pw, stride, seed):
        ph, pw = min(ph, h), min(pw, w)
        x = np.random.default_rng(seed).normal(size=(n, c, h, w))
        # grad_fn runs once per backend: re-seed inside so both get the
        # same gradient.
        ref, opt = both_backends(
            lambda: nn.MaxPool2D((ph, pw), stride=stride),
            x,
            grad_fn=lambda out: np.random.default_rng(seed + 1).normal(size=out.shape),
        )
        assert np.array_equal(ref[0], opt[0]), "pool forward not bit-identical"
        # Overlapping windows (stride < pool) can send several
        # contributions to one input cell; the optimized fold adds them
        # in kernel-offset order, so backward agrees to round-off only.
        np.testing.assert_allclose(opt[1], ref[1], **BACKWARD_TOL)

    def test_maxpool_tie_semantics_match(self):
        # Constant plateaus: both backends must route the gradient to the
        # *first* maximum in each window.
        x = np.zeros((1, 1, 4, 4))
        ref, opt = both_backends(lambda: nn.MaxPool2D(2), x)
        assert np.array_equal(ref[1], opt[1])
        assert ref[1].sum() == pytest.approx(4.0)  # one winner per window

    @given(
        n=st.integers(1, 3),
        t=st.integers(1, 6),
        f=st.integers(1, 6),
        units=st.integers(1, 6),
        cls=st.sampled_from([nn.LSTM, nn.GRU, nn.SimpleRNN]),
        return_sequences=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_recurrent(self, n, t, f, units, cls, return_sequences, seed):
        x = np.random.default_rng(seed).normal(size=(n, t, f))
        ref, opt = both_backends(
            lambda: cls(units, return_sequences=return_sequences), x
        )
        assert np.array_equal(ref[0], opt[0]), "recurrent forward not bit-identical"
        np.testing.assert_allclose(opt[1], ref[1], **BACKWARD_TOL)
        for key in ref[2]:
            np.testing.assert_allclose(opt[2][key], ref[2][key], **BACKWARD_TOL)

    @given(
        n=st.integers(1, 4),
        fin=st.integers(1, 6),
        fout=st.integers(1, 6),
        use_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_dense(self, n, fin, fout, use_bias, seed):
        x = np.random.default_rng(seed).normal(size=(n, fin))
        ref, opt = both_backends(lambda: nn.Dense(fout, use_bias=use_bias), x)
        assert np.array_equal(ref[0], opt[0])
        np.testing.assert_allclose(opt[1], ref[1], **BACKWARD_TOL)
        for key in ref[2]:
            np.testing.assert_allclose(opt[2][key], ref[2][key], **BACKWARD_TOL)

    def test_full_cnn_lstm_model(self):
        from repro.core import build_cnn_lstm

        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 1, 32, 8))
        ref_model = build_cnn_lstm((1, 32, 8), seed=0).set_backend(ReferenceBackend())
        out_ref = ref_model.forward(x)
        opt_model = build_cnn_lstm((1, 32, 8), seed=0)
        out_opt = opt_model.forward(x)
        assert np.array_equal(out_ref, out_opt), (
            "full-model float64 forward must be bit-identical across backends"
        )
        # Training parity: one step on each backend moves params together.
        y = np.array([0, 1, 1, 0])
        loss = nn.SoftmaxCrossEntropy()
        for model in (ref_model, opt_model):
            logits = model.forward(x, training=True)
            model.backward(loss.grad(logits, y))
        for lr, lo in zip(ref_model.layers, opt_model.layers):
            for key in lr.grads:
                np.testing.assert_allclose(
                    lo.grads[key], lr.grads[key], rtol=1e-8, atol=1e-10
                )


class TestStackedRecurrentCaches:
    """BPTT state is stacked (N, T, ·) slabs, not O(T) lists of dicts."""

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    @pytest.mark.parametrize("cls", [nn.LSTM, nn.GRU, nn.SimpleRNN])
    def test_no_per_step_python_lists(self, backend, cls):
        layer = cls(5)
        layer.set_backend(BACKENDS[backend])
        x = np.random.default_rng(0).normal(size=(3, 7, 4))
        layer.ensure_built(x, np.random.default_rng(1))
        layer.forward(x)
        state = layer._backend_state
        assert isinstance(state["hs"], np.ndarray)
        assert state["hs"].shape == (3, 7, 5)
        offenders = [k for k, v in state.items() if isinstance(v, (list, dict))]
        assert not offenders, f"per-step python containers in cache: {offenders}"

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    def test_backward_before_forward_raises(self, backend):
        rng = np.random.default_rng(0)
        for layer, x, grad in [
            (nn.LSTM(3), np.ones((2, 4, 5)), np.ones((2, 3))),
            (nn.MaxPool2D(2), np.ones((2, 1, 4, 4)), np.ones((2, 1, 2, 2))),
            (nn.Conv2D(2, 3), np.ones((2, 1, 4, 4)), np.ones((2, 2, 4, 4))),
            (nn.Dense(3), np.ones((2, 5)), np.ones((2, 3))),
        ]:
            layer.set_backend(BACKENDS[backend])
            layer.ensure_built(x, rng)  # built but never run forward
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.backward(grad)

    @pytest.mark.parametrize("cls", [nn.LSTM, nn.GRU])
    def test_gradcheck_parity_on_stacked_caches(self, cls):
        model = nn.Sequential([cls(4, name="cell"), nn.Dense(2)], seed=5)
        x = np.random.default_rng(6).normal(size=(3, 5, 4))
        y = np.array([0, 1, 1])
        errors = check_model_gradients(model, x, y, nn.SoftmaxCrossEntropy())
        for (layer, key), err in errors.items():
            assert err < 1e-4, f"{layer}.{key}: relative error {err}"


class TestDtypePolicy:
    """The backend, not the layers, owns the compute dtype."""

    def test_reference_promotes_everything_to_float64(self):
        ref = ReferenceBackend()
        for dtype in (np.float16, np.float32, np.float64, np.int64):
            assert ref.compute_dtype(np.dtype(dtype)) == np.float64

    def test_optimized_preserves_float32_only(self):
        opt = OptimizedBackend()
        assert opt.compute_dtype(np.dtype(np.float32)) == np.float32
        for dtype in (np.float16, np.float64, np.int32):
            assert opt.compute_dtype(np.dtype(dtype)) == np.float64

    def test_float32_end_to_end_on_optimized(self):
        # Dropout is the layer that historically upcast f32 activations.
        model = nn.Sequential(
            [
                nn.Conv2D(2, 3, padding="same"),
                nn.ReLU(),
                nn.MaxPool2D(2),
                nn.ToSequence(),
                nn.LSTM(4),
                nn.Dropout(0.5, seed=0),
                nn.Dense(2),
                nn.ReLU(),
            ],
            seed=7,
        )
        x32 = np.random.default_rng(8).normal(size=(4, 1, 8, 8)).astype(np.float32)
        assert model.predict(x32).dtype == np.float32
        assert model.forward(x32, training=True).dtype == np.float32
        # Parameters stay float64 regardless of serving dtype.
        assert all(
            p.dtype == np.float64
            for layer in model.layers
            for p in layer.params.values()
        )

    def test_float32_promoted_on_reference(self):
        model = nn.Sequential([nn.Dense(2)], seed=0).set_backend(ReferenceBackend())
        x32 = np.zeros((2, 3), dtype=np.float32)
        assert model.predict(x32).dtype == np.float64

    def test_float32_training_converges_on_optimized(self):
        model = nn.Sequential(
            [nn.Dense(8), nn.ReLU(), nn.Dense(2)], seed=1
        ).compile(nn.SoftmaxCrossEntropy(), nn.Adam(1e-2))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 4)).astype(np.float32)
        y = (x.sum(axis=1) > 0).astype(int)
        first = model.train_batch(x, y)
        for _ in range(30):
            last = model.train_batch(x, y)
        assert np.isfinite(last) and last < first


class TestFloat32FastPaths:
    """The f32 serving kernels (NHWC conv, fused LSTM step) have no
    bit-identity contract — reference promotes to f64 — so pin them
    against the f64 reference at single-precision tolerance instead."""

    F32_TOL = dict(rtol=2e-4, atol=1e-5)

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((3, 1, 9, 8), 3, 1, "same"),
            ((2, 4, 10, 7), (3, 2), (2, 1), "same"),
            ((2, 3, 8, 8), 3, 1, "valid"),
            ((1, 2, 6, 6), (2, 2), 2, 1),
        ],
    )
    def test_conv2d_f32_matches_f64_reference(self, shape, kernel, stride, padding):
        rng = np.random.default_rng(20)
        x = rng.normal(size=shape)
        layer = nn.Conv2D(5, kernel, stride=stride, padding=padding)
        layer.ensure_built(x, np.random.default_rng(21))
        layer.set_backend(ReferenceBackend())
        out_ref = layer.forward(x)
        grad = np.random.default_rng(22).normal(size=out_ref.shape)
        dx_ref = layer.backward(grad)
        grads_ref = {k: v.copy() for k, v in layer.grads.items()}
        layer.set_backend(OptimizedBackend())
        out_32 = layer.forward(x.astype(np.float32))
        assert out_32.dtype == np.float32
        np.testing.assert_allclose(out_32, out_ref, **self.F32_TOL)
        dx_32 = layer.backward(grad.astype(np.float32))
        assert dx_32.dtype == np.float32
        np.testing.assert_allclose(dx_32, dx_ref, **self.F32_TOL)
        for key in grads_ref:
            np.testing.assert_allclose(
                layer.grads[key], grads_ref[key], rtol=2e-3, atol=1e-4
            )

    def test_lstm_f32_matches_f64_reference(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 12, 6))
        layer = nn.LSTM(8, return_sequences=True)
        layer.ensure_built(x, np.random.default_rng(24))
        layer.set_backend(ReferenceBackend())
        out_ref = layer.forward(x)
        layer.set_backend(OptimizedBackend())
        out_32 = layer.forward(x.astype(np.float32))
        assert out_32.dtype == np.float32
        np.testing.assert_allclose(out_32, out_ref, **self.F32_TOL)

    def test_lstm_f32_saturated_gates_stay_finite(self):
        # Large pre-activations overflow exp(-z) in f32; the fused
        # sigmoid must saturate to exactly 0/1, never NaN.
        x = (np.random.default_rng(25).normal(size=(2, 5, 4)) * 200).astype(
            np.float32
        )
        layer = nn.LSTM(3, return_sequences=True)
        layer.ensure_built(x, np.random.default_rng(26))
        out = layer.forward(x)
        assert np.all(np.isfinite(out))
        gates = layer._backend_state["gates"]
        assert np.all(gates[:, :, :] >= -1.0) and np.all(gates[:, :, :] <= 1.0)

    def test_full_model_f32_matches_f64_reference(self):
        from repro.core import build_cnn_lstm

        x = np.random.default_rng(27).normal(size=(4, 1, 32, 8))
        ref = build_cnn_lstm((1, 32, 8), seed=0).set_backend(ReferenceBackend())
        opt = build_cnn_lstm((1, 32, 8), seed=0)
        np.testing.assert_allclose(
            opt.predict(x.astype(np.float32)),
            ref.predict(x),
            rtol=1e-3,
            atol=1e-4,
        )


class TestForwardMany:
    def _model(self):
        return nn.Sequential([nn.Dense(4), nn.ReLU(), nn.Dense(2)], seed=9)

    def test_matches_per_user_predict(self):
        model = self._model()
        rng = np.random.default_rng(10)
        users = [rng.normal(size=(n, 3)) for n in (1, 4, 2, 7)]
        model.forward(np.zeros((1, 3)))  # build once
        fused = model.predict_many(users)
        assert [f.shape for f in fused] == [(1, 2), (4, 2), (2, 2), (7, 2)]
        # Not asserted bit-identical: BLAS picks different GEMM kernels
        # for different batch sizes, so fused-vs-single rows may differ
        # in the last ulp.
        for user_x, fused_out in zip(users, fused):
            np.testing.assert_allclose(
                fused_out, model.predict(user_x), rtol=1e-12, atol=1e-13
            )

    def test_empty_request_list(self):
        assert self._model().predict_many([]) == []

    def test_mismatched_feature_shapes_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="identical feature shapes"):
            model.predict_many([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_shape_error_names_offending_request(self):
        model = self._model()
        with pytest.raises(ValueError, match=r"request 2 has \(5,\)"):
            model.predict_many(
                [np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((2, 5))]
            )

    def test_pad_rows_validated(self):
        model = self._model()
        model.forward(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="pad_rows"):
            model.predict_many([np.zeros((2, 3))], pad_rows=0)

    def test_pad_rows_makes_results_coalescing_invariant(self):
        # The serving guarantee at the backend layer: with canonical
        # fixed-shape slabs, a request's logits are bitwise independent
        # of which other requests shared its fused batch.
        model = self._model()
        rng = np.random.default_rng(11)
        users = [rng.normal(size=(n, 3)) for n in (2, 1, 3, 1)]
        model.forward(np.zeros((1, 3)))  # build once
        fused = model.predict_many(users, pad_rows=4)
        for user_x, fused_out in zip(users, fused):
            (alone,) = model.predict_many([user_x], pad_rows=4)
            np.testing.assert_array_equal(fused_out, alone)

    def test_pad_rows_preserves_per_user_split(self):
        model = self._model()
        rng = np.random.default_rng(12)
        users = [rng.normal(size=(n, 3)) for n in (1, 6, 2)]
        model.forward(np.zeros((1, 3)))
        fused = model.predict_many(users, pad_rows=4)
        assert [f.shape for f in fused] == [(1, 2), (6, 2), (2, 2)]


class TestCheckpointBackendRoundTrip:
    def _build(self):
        model = nn.Sequential(
            [nn.Dense(4, name="d1"), nn.ReLU(), nn.Dense(2, name="d2")],
            seed=12,
        )
        model.forward(np.zeros((1, 3)))
        return model

    def test_save_load_preserves_backend_and_weights(self, tmp_path):
        from repro.nn.checkpoint import load_model, save_model

        model = self._build()
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert isinstance(restored.backend, OptimizedBackend)
        x = np.random.default_rng(13).normal(size=(5, 3))
        assert np.array_equal(restored.predict(x), model.predict(x))

    def test_legacy_bare_list_config_loads(self):
        from repro.nn.checkpoint import model_from_config, model_to_config

        layers = model_to_config(self._build())["layers"]
        # The pre-backend bare list, and the dict older checkpoints
        # wrote with the backend they were saved on.
        for config in (layers, {"backend": "reference", "layers": layers}):
            legacy = model_from_config(config)
            assert [type(a) for a in legacy.layers] == [nn.Dense, nn.ReLU, nn.Dense]
            assert isinstance(legacy.backend, OptimizedBackend)
            assert all(isinstance(a.backend, OptimizedBackend) for a in legacy.layers)


class TestRuntimeBackend:
    """One backend runs every model; the reference is pinned by instance."""

    @pytest.mark.parametrize(
        "model_cfg",
        [{}, {"recurrent_cell": "gru"}, {"recurrent_cell": "rnn"},
         {"attention_readout": True}],
    )
    def test_every_built_model_runs_optimized(self, model_cfg):
        from repro.core import ModelConfig, build_cnn_lstm

        model = build_cnn_lstm((1, 32, 8), ModelConfig(**model_cfg), seed=0)
        assert isinstance(model.backend, OptimizedBackend)
        assert all(isinstance(a.backend, OptimizedBackend) for a in model.layers)

    def test_set_backend_takes_instances_only(self):
        with pytest.raises(TypeError, match="ComputeBackend instance"):
            nn.Dense(2).set_backend("reference")
        with pytest.raises(TypeError, match="ComputeBackend instance"):
            nn.Sequential([nn.Dense(2)]).set_backend("optimized")

    def test_model_config_backend_is_read_only(self):
        from repro.core import ModelConfig

        cfg = ModelConfig()
        assert cfg.backend == OptimizedBackend.name
        assert "backend" not in dataclasses.asdict(cfg)
        with pytest.raises(TypeError):
            ModelConfig(backend="reference")
        with pytest.raises(AttributeError):
            cfg.backend = "reference"


class TestPickledModel:
    def test_round_trip_drops_caches_and_predicts_bit_identically(self):
        from repro.core import build_cnn_lstm

        rng = np.random.default_rng(30)
        x = rng.normal(size=(12, 1, 16, 4))
        y = rng.integers(0, 2, 12)
        model = build_cnn_lstm((1, 16, 4), seed=0).compile(
            nn.SoftmaxCrossEntropy(), nn.Adam(1e-3)
        )
        model.fit(x, y, epochs=2, batch_size=4)
        assert any(layer._backend_state for layer in model.layers)
        restored = pickle.loads(pickle.dumps(model))
        # A pickled model carries its parameters, not its layer caches,
        # and pickling leaves the original's caches alone.
        assert all(layer._backend_state == {} for layer in restored.layers)
        assert any(layer._backend_state for layer in model.layers)
        assert isinstance(restored.backend, OptimizedBackend)
        np.testing.assert_array_equal(restored.predict(x), model.predict(x))

    @pytest.mark.parametrize("attention", [False, True], ids=["last", "attention"])
    @pytest.mark.parametrize("cell", ["lstm", "gru", "rnn"])
    def test_pickle_bytes_independent_of_past_predicts(self, cell, attention):
        """Every layer keeps its per-call caches in ``_backend_state``,
        so the pickle of a model does not depend on the batch size of
        its last forward pass."""
        from repro.core import ModelConfig, build_cnn_lstm

        cfg = ModelConfig(recurrent_cell=cell, attention_readout=attention)
        model = build_cnn_lstm((1, 16, 4), cfg, seed=0)
        rng = np.random.default_rng(31)
        model.predict(rng.normal(size=(3, 1, 16, 4)))
        after_three = pickle.dumps(model)
        model.predict(rng.normal(size=(5, 1, 16, 4)))
        assert pickle.dumps(model) == after_three

    def test_attention_weights_survive_the_cache_move(self):
        layer = nn.TemporalAttention(4)
        assert layer.attention_weights() is None
        x = np.random.default_rng(0).normal(size=(2, 5, 3))
        layer.ensure_built(x, np.random.default_rng(1))
        layer.forward(x)
        alpha = layer.attention_weights()
        assert alpha.shape == (2, 5)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0)
        assert pickle.loads(pickle.dumps(layer)).attention_weights() is None


class TestGoldenFingerprint:
    """End-to-end seal: the optimized backend, which every model runs on,
    reproduces the pre-backend table-1 numbers bit for bit.

    The fingerprint hashes the full tiny-scale table-1 report (losses,
    fold metrics, predictions — everything ``to_dict`` emits) after
    stripping ``provenance`` and ``wall_time_s``, which carry host- and
    timing-dependent noise.  Any change to kernel math, dtype handling,
    padding, initializer threading, or batch order changes this hash.
    """

    PINNED = "960edb4782f1ff2e082b4786234dcae9a9f2ddba38637c3393c52b678813e60d"

    @staticmethod
    def _strip_volatile(obj):
        if isinstance(obj, dict):
            return {
                k: TestGoldenFingerprint._strip_volatile(v)
                for k, v in obj.items()
                if k not in ("provenance", "wall_time_s")
            }
        if isinstance(obj, list):
            return [TestGoldenFingerprint._strip_volatile(v) for v in obj]
        return obj

    def test_table1_tiny_fingerprint_bit_identical(self):
        from repro.experiments.runner import ExperimentScale, run_table1

        assert nn.Sequential().backend.name == OptimizedBackend.name
        report = run_table1(scale=ExperimentScale.tiny())
        payload = json.dumps(self._strip_volatile(report.to_dict()), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == self.PINNED, (
            "table-1 tiny fingerprint drifted: the optimized backend no "
            f"longer reproduces the pinned numerics ({digest})"
        )
