"""Microbenchmarks of the numpy nn substrate (throughput sanity).

Not a paper table; these pin the cost of the primitives every
experiment above is built from, so performance regressions in the
substrate are visible.

``test_backend_speedup_cnn_lstm`` additionally records the optimized
vs. reference backend trajectory on the paper's CNN-LSTM (forward +
backward, batch grid) into ``BENCH_nn.json`` at the repo root.  Each
backend is timed in its own contiguous block — interleaving them makes
the reference backend's float64 working set evict the optimized
backend's float32 workspaces between steps, which benchmarks the cache
thrash instead of the kernels.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.core import build_cnn_lstm
from repro.edge import QuantizedModel
from repro.nn.backends import OptimizedBackend, ReferenceBackend

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_nn.json"

#: (batch, timed iterations) — batch 32 is the headline configuration.
BACKEND_GRID = ((16, 30), (32, 25), (64, 10), (128, 6))
HEADLINE_BATCH = 32
#: CI regression floor for the headline ratio.  Measured speedup on an
#: AVX2 single-core host is ~4.8-5.2x (see BENCH_nn.json); the floor is
#: set well below that so shared-runner noise cannot flake the job,
#: while still catching any real regression of the optimized path.
MIN_HEADLINE_SPEEDUP = 3.5


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="module")
def conv_layer(rng):
    layer = nn.Conv2D(16, 3, padding="same")
    x = rng.normal(size=(8, 8, 32, 32))
    layer.ensure_built(x, rng)
    return layer, x


@pytest.fixture(scope="module")
def lstm_layer(rng):
    layer = nn.LSTM(64)
    x = rng.normal(size=(8, 16, 128))
    layer.ensure_built(x, rng)
    return layer, x


def test_conv2d_forward(conv_layer, benchmark):
    layer, x = conv_layer
    benchmark(layer.forward, x)


def test_conv2d_backward(conv_layer, benchmark):
    layer, x = conv_layer
    out = layer.forward(x)
    grad = np.ones_like(out)
    benchmark(layer.backward, grad)


def test_lstm_forward(lstm_layer, benchmark):
    layer, x = lstm_layer
    benchmark(layer.forward, x)


def test_lstm_backward(lstm_layer, benchmark):
    layer, x = lstm_layer
    layer.forward(x)
    grad = np.ones((8, 64))
    benchmark(layer.backward, grad)


def test_cnn_lstm_train_batch(rng, benchmark):
    model = build_cnn_lstm((1, 123, 8), seed=0).compile(
        nn.SoftmaxCrossEntropy(), nn.Adam(1e-3)
    )
    x = rng.normal(size=(16, 1, 123, 8))
    y = rng.integers(0, 2, 16)
    benchmark(model.train_batch, x, y)


def test_float_vs_int8_inference(rng, benchmark):
    model = build_cnn_lstm((1, 123, 8), seed=0)
    x = rng.normal(size=(8, 1, 123, 8))
    model.forward(x)
    quantized = QuantizedModel(model, scheme="int8", calibration_x=x)
    benchmark(quantized.predict, x)


def _train_step(backend, batch, rng):
    """A forward+backward step closure on the paper CNN-LSTM.

    Input is float32 so each backend applies its own dtype policy
    (reference promotes to float64, optimized stays float32) — the
    comparison is end-to-end serving cost, not like-for-like dtypes.
    """
    model = build_cnn_lstm((1, 123, 8), seed=0)
    model.set_backend(backend)
    loss = nn.SoftmaxCrossEntropy()
    x = rng.normal(size=(batch, 1, 123, 8)).astype(np.float32)
    y = rng.integers(0, 2, batch)

    def step():
        out = model.forward(x, training=True)
        model.backward(loss.grad(out, y))

    return step


def _best_median_ms(step, iters, warmup=5, repeats=3):
    """Best-of-``repeats`` block medians (timeit's repeat+min advice).

    Host noise only ever inflates wall times, so the minimum across
    blocks is the least-perturbed estimate; the median within a block
    discards stragglers.
    """
    for _ in range(warmup):
        step()
    medians = []
    for _ in range(repeats):
        times = []
        for _ in range(iters):
            t0 = time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
        medians.append(np.median(times))
    return float(min(medians) * 1e3)


def _merge_report(section, payload):
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text())
    report[section] = payload
    report["note"] = (
        "single-core wall times; ratios are environment-dependent "
        "(BLAS build, cache sizes) — the asserted invariant is the "
        "headline-batch speedup floor, not the absolute times"
    )
    BENCH_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_backend_speedup_cnn_lstm(rng):
    """Optimized vs reference backend on the CNN-LSTM train step.

    Records the full batch grid into ``BENCH_nn.json`` and asserts the
    headline-batch ratio stays above the regression floor.
    """
    grid = {}
    for batch, iters in BACKEND_GRID:
        ref_ms = _best_median_ms(_train_step(ReferenceBackend(), batch, rng), iters)
        opt_ms = _best_median_ms(_train_step(OptimizedBackend(), batch, rng), iters)
        grid[str(batch)] = {
            "reference_ms": round(ref_ms, 3),
            "optimized_ms": round(opt_ms, 3),
            "speedup": round(ref_ms / opt_ms, 2),
        }
        print(
            f"\n[nn] batch {batch}: reference {ref_ms:.2f}ms, "
            f"optimized {opt_ms:.2f}ms ({ref_ms / opt_ms:.2f}x)"
        )
    headline = grid[str(HEADLINE_BATCH)]["speedup"]
    _merge_report(
        "cnn_lstm_train_step",
        {
            "input_shape": [1, 123, 8],
            "grid": grid,
            "headline_batch": HEADLINE_BATCH,
            "headline_speedup": headline,
            "min_speedup_asserted": MIN_HEADLINE_SPEEDUP,
        },
    )
    assert headline >= MIN_HEADLINE_SPEEDUP, (
        f"optimized backend regressed: {headline:.2f}x < "
        f"{MIN_HEADLINE_SPEEDUP}x at batch {HEADLINE_BATCH}"
    )


@pytest.mark.smoke
def test_backend_equivalence_smoke(rng):
    """The runtime backend's float64 forward equals the reference oracle.

    The CI-fast guarantee check: the CNN-LSTM as built (on the runtime
    backend) and the same model pinned to the reference backend must
    match to the last bit on float64 input (the float32 path is covered
    by tests/nn/test_backends.py).
    """
    x = rng.normal(size=(4, 1, 123, 8))
    runtime = build_cnn_lstm((1, 123, 8), seed=0)
    assert isinstance(runtime.backend, OptimizedBackend)
    oracle = build_cnn_lstm((1, 123, 8), seed=0).set_backend(ReferenceBackend())
    np.testing.assert_array_equal(
        runtime.forward(x, training=False), oracle.forward(x, training=False)
    )
