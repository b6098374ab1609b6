#!/usr/bin/env python
"""Real-time streaming detection on a simulated wearable.

Demonstrates the edge runtime: raw BVP/GSR/SKT samples arrive in
1-second chunks, the streaming extractor windows them into 123-feature
vectors, a rolling feature map feeds the CNN-LSTM, and detections are
smoothed over time.  The stream alternates neutral and fear segments;
the detector should follow, with a short lag from windowing + smoothing.

The second half of the demo re-runs the session under a
:class:`DegradationPolicy` and kills the GSR electrode mid-stream: the
detector gates the dead channel, imputes its features from recent clean
windows, keeps every probability finite, and reports what it did in the
machine-readable ``HealthStatus`` attached to each detection.

Run:  python examples/realtime_streaming.py
"""

import numpy as np

from repro.core import ModelConfig, TrainingConfig, train_on_maps
from repro.datasets import FEAR, NON_FEAR, PhysiologicalSimulator, sample_subject
from repro.edge import OnlineDetector, StreamingFeatureExtractor
from repro.resilience import DegradationPolicy
from repro.signals import FeatureExtractor, SensorRates
from repro.signals.feature_map import build_feature_map

FS_BVP, FS_SLOW = 32.0, 4.0
WINDOW_S = 8.0
RATES = SensorRates(bvp=FS_BVP, gsr=FS_SLOW, skt=FS_SLOW)


def train_personal_model(profile, rng):
    """Pre-train a model on the wearer's enrollment data."""
    sim = PhysiologicalSimulator(FS_BVP, FS_SLOW, FS_SLOW)
    fe = FeatureExtractor(rates=RATES, window_seconds=WINDOW_S)
    maps = []
    for label in (NON_FEAR, FEAR) * 8:
        raw = sim.simulate_trial(profile, label, 4 * WINDOW_S, rng)
        vectors = fe.extract_recording(raw["bvp"], raw["gsr"], raw["skt"])
        maps.append(build_feature_map(vectors, label=label, subject_id=0))
    return train_on_maps(
        maps,
        ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
        TrainingConfig(epochs=15, batch_size=8),
        seed=0,
    )


def main() -> None:
    print("=== Real-time streaming fear detection ===\n")
    rng = np.random.default_rng(0)
    profile = sample_subject(0, archetype_id=0, rng=rng, jitter=0.02)
    print("training enrollment model...")
    model = train_personal_model(profile, rng)

    stream = StreamingFeatureExtractor(RATES, window_seconds=WINDOW_S)
    detector = OnlineDetector(model, windows_per_map=4, streaming=stream)

    # Simulate a session: 48 s neutral, 48 s fear, 48 s neutral.
    sim = PhysiologicalSimulator(FS_BVP, FS_SLOW, FS_SLOW)
    segments = [(NON_FEAR, 48.0), (FEAR, 48.0), (NON_FEAR, 48.0)]
    print("streaming session: neutral -> FEAR -> neutral\n")
    print(f"{'time':>6}  {'truth':<8}{'raw':<6}{'smoothed':<9}")

    for label, seconds in segments:
        raw = sim.simulate_trial(profile, label, seconds, rng)
        for i in range(int(seconds)):
            sl_b = slice(int(i * FS_BVP), int((i + 1) * FS_BVP))
            sl_s = slice(int(i * FS_SLOW), int((i + 1) * FS_SLOW))
            detections = detector.push(
                bvp=raw["bvp"][sl_b], gsr=raw["gsr"][sl_s], skt=raw["skt"][sl_s]
            )
            for d in detections:
                truth = "FEAR" if label == FEAR else "neutral"
                print(
                    f"{d.stream_time:>5.0f}s  {truth:<8}"
                    f"{d.raw_prediction:<6}{d.smoothed_prediction:<9}"
                )

    preds = [d.smoothed_prediction for d in detector.detections]
    print(f"\n{len(preds)} detections emitted over the session.")
    print("The detector should flip to 1 during the fear segment and back,")
    print("with a lag of roughly one feature map (windowing + smoothing).")

    degraded_mode_demo(model, profile, rng)


def degraded_mode_demo(model, profile, rng) -> None:
    """Re-run the stream with the GSR electrode dying halfway through."""
    print("\n=== Degraded mode: GSR electrode dies mid-stream ===\n")
    stream = StreamingFeatureExtractor(RATES, window_seconds=WINDOW_S)
    detector = OnlineDetector(
        model,
        windows_per_map=4,
        streaming=stream,
        policy=DegradationPolicy(min_quality=0.5, impute="mean"),
    )

    sim = PhysiologicalSimulator(FS_BVP, FS_SLOW, FS_SLOW)
    seconds = 96.0
    raw = sim.simulate_trial(profile, FEAR, seconds, rng)
    death = seconds / 2.0
    print(f"GSR flatlines at t = {death:.0f}s\n")
    print(f"{'time':>6}  {'state':<10}{'gated':<8}{'imputed':<9}{'p(fear)':<9}reasons")

    for i in range(int(seconds)):
        sl_b = slice(int(i * FS_BVP), int((i + 1) * FS_BVP))
        sl_s = slice(int(i * FS_SLOW), int((i + 1) * FS_SLOW))
        gsr = raw["gsr"][sl_s]
        if i >= death:
            gsr = np.zeros_like(gsr)  # dead electrode
        detections = detector.push(bvp=raw["bvp"][sl_b], gsr=gsr, skt=raw["skt"][sl_s])
        for d in detections:
            h = d.health
            print(
                f"{d.stream_time:>5.0f}s  {h.state:<10}"
                f"{','.join(h.gated_channels) or '-':<8}"
                f"{h.imputed_features:<9}{d.probabilities[1]:<9.3f}"
                f"{'; '.join(h.reasons) or '-'}"
            )

    healthy = sum(d.health.ok for d in detector.detections)
    print(
        f"\n{len(detector.detections)} decisions: {healthy} healthy, "
        f"{len(detector.detections) - healthy} degraded/abstained."
    )
    print("Every probability stayed finite; the dead channel was imputed")
    print("from the running mean of clean windows, and HealthStatus records")
    print("exactly which windows to distrust (h.to_dict() is log-ready).")


if __name__ == "__main__":
    main()
