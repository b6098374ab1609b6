"""Bit-identity of feature extraction.

The golden digests seal every feature map of the tiny and small WEMAC
corpora: any change to extraction numerics (filter design, moment
formulas, entropy counting, batching) that moves one bit of one map
changes a digest.  The property and oracle tests pin the pieces the
batched extractor is built from: a recording extracted in one pass
equals its windows extracted one at a time, the matrix entropies equal
the template-by-template loops, and the direct moments equal
``scipy.stats``.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

from repro.datasets import FEAR, PhysiologicalSimulator, WEMACConfig, sample_subject
from repro.resilience.faults import registered_fault_plans
from repro.scenarios import WEMACScenario
from repro.signals import FeatureExtractor, SensorRates
from repro.signals.filters import butter_bandpass, butter_lowpass
from repro.signals.nonlinear import approximate_entropy, sample_entropy
from repro.signals.spectral import welch_psd
from repro.signals.stats import basic_stats, safe_kurtosis, safe_skew, skew_kurtosis


def maps_digest(population) -> str:
    """SHA-256 over every map's shape, label, subject and raw float64 bytes."""
    h = hashlib.sha256()
    for subject in population.subjects:
        for fmap in subject.maps:
            values = np.ascontiguousarray(fmap.values, dtype=np.float64)
            h.update(repr((values.shape, fmap.label, fmap.subject_id)).encode())
            h.update(values.tobytes())
    return h.hexdigest()


class TestGoldenFeatureMaps:
    TINY = "b0c56f248b517e8fa6444211920769e9dd99272a757dfb454fa4b0e15d2d814a"
    SMALL = "fb58f34663e9472a3dfecaa2a17dbf981e82914fac01b6991e7d72c72bc316ca"
    SMALL_SEED3 = "266f7d526a3fd137d260b883727dff408d272ca55b900253ded49abec9a59d92"

    def test_tiny_corpus_maps_bit_identical(self, tiny_dataset):
        assert maps_digest(tiny_dataset) == self.TINY

    def test_small_corpus_maps_bit_identical(self, small_dataset):
        assert maps_digest(small_dataset) == self.SMALL

    def test_second_small_corpus_maps_bit_identical(self):
        population = WEMACScenario(WEMACConfig.small(seed=3)).materialize()
        assert maps_digest(population) == self.SMALL_SEED3


# ---------------------------------------------------------------------------
# One pass over a recording == one window at a time
# ---------------------------------------------------------------------------

#: Fault plans that corrupt raw signals (NaN bursts, flatlines, dropout,
#: clipping, sample loss, clock skew); the others hit maps or
#: checkpoints.
SIGNAL_PLANS = [
    plan
    for plan in registered_fault_plans()
    if not (plan.targets_checkpoint or plan.targets_feature_map)
]

RATES = SensorRates(bvp=32.0, gsr=4.0, skt=4.0)
FS = {"bvp": RATES.bvp, "gsr": RATES.gsr, "skt": RATES.skt}


def _recording(kind: str, seconds: float, seed: int):
    rng = np.random.default_rng(seed)
    n = {name: int(seconds * fs) for name, fs in FS.items()}
    if kind == "physiology":
        sim = PhysiologicalSimulator(
            fs_bvp=RATES.bvp, fs_gsr=RATES.gsr, fs_skt=RATES.skt
        )
        profile = sample_subject(seed, seed % 4, rng, jitter=0.05)
        return sim.simulate_trial(profile, FEAR, seconds, rng)
    if kind == "random":
        return {name: rng.normal(size=size) for name, size in n.items()}
    if kind == "flat":
        return {name: np.full(size, 2.5) for name, size in n.items()}
    # Peakless: a slow monotone drift, no cardiac pulses or SCRs.
    return {
        name: np.linspace(0.0, 1.0, size) + 1e-3 * rng.normal(size=size)
        for name, size in n.items()
    }


def _window_by_window(fe: FeatureExtractor, signals) -> np.ndarray:
    bvp, gsr, skt = (
        np.asarray(signals[c], dtype=np.float64) for c in ("bvp", "gsr", "skt")
    )
    count = fe.window_counts(bvp.size, gsr.size, skt.size)
    rows = []
    for i in range(count):
        segments = []
        for x, fs in ((bvp, RATES.bvp), (gsr, RATES.gsr), (skt, RATES.skt)):
            w, s = int(fe.window_seconds * fs), int(fe.step_seconds * fs)
            segments.append(x[i * s : i * s + w])
        rows.append(fe.extract_window(*segments))
    return np.stack(rows) if rows else np.empty((0, 123))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


class TestRecordingEqualsStackedWindows:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["physiology", "random", "flat", "peakless"]),
        plan=st.sampled_from([None] + SIGNAL_PLANS),
        windows=st.integers(1, 4),
        step_fraction=st.sampled_from([1.0, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_recording_equals_stacked_windows(
        self, kind, plan, windows, step_fraction, seed
    ):
        fe = FeatureExtractor(
            rates=RATES, window_seconds=8.0, step_seconds=8.0 * step_fraction
        )
        signals = _recording(kind, 8.0 * windows, seed)
        if plan is not None:
            signals = plan.apply_to_signals(signals, FS)
        batched = _outcome(
            lambda: fe.extract_recording(signals["bvp"], signals["gsr"], signals["skt"])
        )
        stacked = _outcome(lambda: _window_by_window(fe, signals))
        if isinstance(batched, np.ndarray) and isinstance(stacked, np.ndarray):
            assert batched.shape == stacked.shape
            assert batched.tobytes() == stacked.tobytes()
        else:
            assert batched == stacked

    def test_nan_burst_window_matches(self):
        # A NaN burst covering whole windows, deterministic coverage of
        # the NaN path whatever hypothesis draws.
        fe = FeatureExtractor(rates=RATES, window_seconds=8.0)
        signals = _recording("physiology", 32.0, seed=5)
        signals["bvp"][40:200] = np.nan
        batched = fe.extract_recording(signals["bvp"], signals["gsr"], signals["skt"])
        assert batched.tobytes() == _window_by_window(fe, signals).tobytes()
        assert np.isfinite(batched).all()


class TestBatchedPrimitives:
    """Row-wise filters and PSDs equal the 1D call on each row."""

    X = np.random.default_rng(7).normal(size=(5, 256))

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: butter_lowpass(x, 2.0, 32.0),
            lambda x: butter_bandpass(x, 0.5, 8.0, 32.0),
        ],
    )
    def test_filter_rows_equal_one_dimensional_calls(self, fn):
        rows = fn(self.X)
        for i, row in enumerate(self.X):
            assert rows[i].tobytes() == fn(row).tobytes()

    def test_psd_rows_equal_one_dimensional_calls(self):
        freqs, rows = welch_psd(self.X, 32.0, batched=True)
        for i, row in enumerate(self.X):
            f, psd = welch_psd(row, 32.0)
            assert f.tobytes() == freqs.tobytes()
            assert rows[i].tobytes() == psd.tobytes()
        with pytest.raises(ValueError, match="1D"):
            welch_psd(self.X, 32.0)


# ---------------------------------------------------------------------------
# Entropy matrices == the template-by-template loops they replaced
# ---------------------------------------------------------------------------


def _embed(x, m):
    n = x.size - m + 1
    idx = np.arange(m)[None, :] + np.arange(n)[:, None]
    return x[idx]


def loop_sample_entropy(x, m=2, r=None):
    x = np.asarray(x, dtype=np.float64)
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def count_matches(mm):
        emb = _embed(x, mm)
        count = 0
        for i in range(emb.shape[0] - 1):
            dist = np.max(np.abs(emb[i + 1 :] - emb[i]), axis=1)
            count += int(np.sum(dist <= r))
        return count

    b = count_matches(m)
    a = count_matches(m + 1)
    if b == 0:
        return 0.0
    if a == 0:
        return 10.0
    return float(-np.log(a / b))


def loop_approximate_entropy(x, m=2, r=None):
    x = np.asarray(x, dtype=np.float64)
    std = x.std()
    if std < 1e-12:
        return 0.0
    if r is None:
        r = 0.2 * std

    def phi(mm):
        emb = _embed(x, mm)
        n = emb.shape[0]
        counts = np.zeros(n)
        for i in range(n):
            dist = np.max(np.abs(emb - emb[i]), axis=1)
            counts[i] = np.sum(dist <= r) / n
        return float(np.mean(np.log(counts)))

    return float(phi(m) - phi(m + 1))


class TestEntropyOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(4, 120),
        m=st.integers(1, 3),
        quantized=st.booleans(),
    )
    def test_matrix_entropies_equal_loops(self, seed, n, m, quantized):
        x = np.random.default_rng(seed).normal(size=n)
        if quantized:  # many exact ties at the tolerance boundary
            x = np.round(x * 2) / 2
        if n >= m + 2:
            assert sample_entropy(x, m) == loop_sample_entropy(x, m)
            with np.errstate(divide="ignore"):
                assert approximate_entropy(x, m) == loop_approximate_entropy(x, m)

    def test_blocked_rows_equal_loops(self):
        # Longer than one 256-row block, so the blocked build is exercised.
        x = np.random.default_rng(3).normal(size=600)
        assert sample_entropy(x) == loop_sample_entropy(x)
        assert approximate_entropy(x) == loop_approximate_entropy(x)

    def test_explicit_tolerance_and_nan(self):
        x = np.random.default_rng(4).normal(size=50)
        assert sample_entropy(x, r=0.5) == loop_sample_entropy(x, r=0.5)
        assert approximate_entropy(x, r=0.5) == loop_approximate_entropy(x, r=0.5)
        x[10] = np.nan
        assert sample_entropy(x) == loop_sample_entropy(x)


# ---------------------------------------------------------------------------
# Direct moments == scipy.stats
# ---------------------------------------------------------------------------


class TestMomentsMatchScipy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 12),
        n=st.integers(4, 300),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, 5.0, -1e4]),
    )
    def test_skew_kurtosis_equal_scipy(self, seed, rows, n, scale, offset):
        x = offset + scale * np.random.default_rng(seed).exponential(size=(rows, n))
        skew, kurtosis = skew_kurtosis(x)
        for i in range(rows):
            assert skew[i] == spstats.skew(x[i])
            assert kurtosis[i] == spstats.kurtosis(x[i])
            one_skew, one_kurtosis = skew_kurtosis(x[i])
            assert one_skew == skew[i] and one_kurtosis == kurtosis[i]

    def test_near_constant_takes_nan_branch(self):
        # Spread below eps * mean: scipy reports nan (its m2 <= (eps*mean)**2
        # rule) and so must the direct formula, in both the batch and
        # the one-signal path.
        x = 1.0 + np.array([0.0, 1e-17, 0.0, 2.2e-16, 0.0, 0.0])
        with pytest.warns(RuntimeWarning):
            expected_skew, expected_kurt = spstats.skew(x), spstats.kurtosis(x)
        assert np.isnan(expected_skew) and np.isnan(expected_kurt)
        skew, kurtosis = skew_kurtosis(np.stack([x, x]))
        assert np.isnan(skew).all() and np.isnan(kurtosis).all()
        one_skew, one_kurtosis = skew_kurtosis(x)
        assert np.isnan(one_skew) and np.isnan(one_kurtosis)

    def test_safe_wrappers_and_basic_stats_per_row(self):
        x = np.random.default_rng(9).gamma(2.0, size=(5, 64))
        x[2] = 3.0  # a constant row takes the zero branch
        stats = basic_stats(x, "s")
        skews, kurts = safe_skew(x), safe_kurtosis(x)
        for i in range(5):
            one = basic_stats(x[i], "s")
            for name, value in one.items():
                assert stats[name][i] == value, name
            assert skews[i] == safe_skew(x[i])
            assert kurts[i] == safe_kurtosis(x[i])
        assert stats["s_skew"][2] == 0.0 and skews[2] == 0.0
