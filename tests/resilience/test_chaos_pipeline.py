"""The chaos gate: every registered fault plan through the cold-start pipeline.

Acceptance criteria from the issue: each plan must either raise a typed
:class:`~repro.errors.ResilienceError` subclass or yield decisions with a
populated :class:`HealthStatus`; no emitted probability may be NaN/Inf;
and two runs with the same seed must produce identical outcomes.
"""

import numpy as np
import pytest

from repro import nn
from repro.datasets import FEAR
from repro.edge.streaming import OnlineDetector, StreamingFeatureExtractor
from repro.errors import CheckpointError, ResilienceError
from repro.resilience.degradation import (
    ABSTAINED,
    DEGRADED,
    FALLBACK,
    HEALTHY,
    DegradationPolicy,
)
from repro.resilience.faults import FAULT_PLANS, get_fault_plan
from repro.resilience.guards import verify_checkpoint

from .conftest import FS, RATES, WINDOW_SECONDS, make_stream_chunks

PLAN_NAMES = sorted(FAULT_PLANS)
VALID_STATES = {HEALTHY, DEGRADED, FALLBACK, ABSTAINED}


def run_stream_outcome(plan, model, profile):
    """Stream a faulted trial through a policy-guarded OnlineDetector."""
    fault_rng = plan.rng()
    stream = StreamingFeatureExtractor(RATES, window_seconds=WINDOW_SECONDS)
    detector = OnlineDetector(
        model,
        windows_per_map=3,
        streaming=stream,
        policy=DegradationPolicy(),
    )
    chunks = make_stream_chunks(profile, FEAR, 48.0, np.random.default_rng(99))
    for chunk in chunks:
        corrupted = plan.apply_to_signals(chunk, FS, rng=fault_rng)
        detector.push(**corrupted)
    return detector.detections


def run_feature_map_outcome(plan, system, maps):
    """Corrupt a new user's feature maps and predict with health."""
    rng = plan.rng()
    corrupted = [plan.apply_to_feature_map(m, rng=rng) for m in maps]
    return system.predict_with_health(corrupted)


def run_checkpoint_outcome(plan, model, tmp_dir, tag):
    """Ship a corrupted checkpoint and report the typed failure."""
    path = nn.save_model(model.model, tmp_dir / f"{plan.name}-{tag}.npz")
    plan.apply_to_checkpoint(path)
    try:
        verify_checkpoint(path)
    except CheckpointError as exc:
        return type(exc).__name__
    return "no-error"


@pytest.mark.parametrize("plan_name", PLAN_NAMES)
def test_chaos_gate(
    plan_name, stream_model, clear_system, tiny_dataset, tmp_path
):
    plan = get_fault_plan(plan_name)

    if plan.targets_checkpoint:
        # A corrupt checkpoint must surface as a typed ResilienceError —
        # and deterministically so.
        outcomes = [
            run_checkpoint_outcome(plan, stream_model[0], tmp_path, tag)
            for tag in ("a", "b")
        ]
        assert outcomes[0] == outcomes[1] == "CheckpointError"
        assert issubclass(CheckpointError, ResilienceError)
        return

    if plan.targets_feature_map:
        maps = list(tiny_dataset.subjects[0].maps)
        preds_a, health_a = run_feature_map_outcome(plan, clear_system, maps)
        preds_b, health_b = run_feature_map_outcome(plan, clear_system, maps)
        assert health_a.state in VALID_STATES
        assert health_a.imputed_features > 0
        assert health_a.reasons
        np.testing.assert_array_equal(preds_a, preds_b)
        assert health_a.to_dict() == health_b.to_dict()
        return

    # Signal-stream plans: the detector must keep emitting decisions,
    # each carrying health, with strictly finite probabilities.
    runs = [run_stream_outcome(plan, *stream_model) for _ in range(2)]
    for detections in runs:
        assert detections, f"plan {plan.name} starved the detector"
        for d in detections:
            assert d.health is not None
            assert d.health.state in VALID_STATES
            assert d.probabilities is not None
            assert np.isfinite(d.probabilities).all()
            assert d.probabilities.sum() == pytest.approx(1.0)
            assert d.raw_prediction in (0, 1)
    first, second = runs
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.raw_prediction == b.raw_prediction
        assert a.smoothed_prediction == b.smoothed_prediction
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.health.to_dict() == b.health.to_dict()


class TestDegradedStreaming:
    """Targeted behaviour checks on top of the blanket gate."""

    def test_dead_gsr_is_gated_and_reported(self, stream_model):
        detections = run_stream_outcome(
            get_fault_plan("gsr_dead"), *stream_model
        )
        gated = [d for d in detections if "gsr" in d.health.gated_channels]
        assert gated, "dead GSR never showed up in gated_channels"
        assert any(d.health.state != HEALTHY for d in detections)

    def test_clean_stream_stays_healthy(self, stream_model):
        model, profile = stream_model
        stream = StreamingFeatureExtractor(RATES, window_seconds=WINDOW_SECONDS)
        detector = OnlineDetector(
            model, windows_per_map=3, streaming=stream,
            policy=DegradationPolicy(),
        )
        for chunk in make_stream_chunks(
            profile, FEAR, 48.0, np.random.default_rng(99)
        ):
            detector.push(**chunk)
        assert detector.detections
        assert all(d.health.ok for d in detector.detections)
        assert all(d.health.state == HEALTHY for d in detector.detections)

    def test_policy_path_matches_plain_path_on_clean_stream(self, stream_model):
        """The resilient runtime must not change clean-stream decisions."""
        model, profile = stream_model
        results = {}
        for policy in (None, DegradationPolicy()):
            stream = StreamingFeatureExtractor(
                RATES, window_seconds=WINDOW_SECONDS
            )
            detector = OnlineDetector(
                model, windows_per_map=3, streaming=stream, policy=policy
            )
            for chunk in make_stream_chunks(
                profile, FEAR, 48.0, np.random.default_rng(99)
            ):
                detector.push(**chunk)
            results[policy is None] = [
                (d.raw_prediction, d.smoothed_prediction)
                for d in detector.detections
            ]
        assert results[True] == results[False]

    def test_sustained_corruption_triggers_abstention(self, stream_model):
        model, profile = stream_model
        plan = get_fault_plan("bvp_nan_burst")
        fault_rng = plan.rng()
        stream = StreamingFeatureExtractor(RATES, window_seconds=WINDOW_SECONDS)
        detector = OnlineDetector(
            model,
            windows_per_map=2,
            streaming=stream,
            policy=DegradationPolicy(
                max_gated_fraction=0.25, gated_window_memory=4
            ),
        )
        for chunk in make_stream_chunks(
            profile, FEAR, 64.0, np.random.default_rng(98)
        ):
            corrupted = plan.apply_to_signals(chunk, FS, rng=fault_rng)
            detector.push(**corrupted)
        states = [d.health.state for d in detector.detections]
        assert ABSTAINED in states
        held = [d for d in detector.detections if d.health.held_last_decision]
        assert held and all(np.isfinite(d.probabilities).all() for d in held)


class TestColdStartFallback:
    def test_low_margin_uses_population_model(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[2].maps)
        policy = DegradationPolicy(min_assignment_margin=1e9)
        preds, health = clear_system.predict_with_health(maps, policy=policy)
        assert health.used_fallback_model
        assert health.state == FALLBACK
        assert any(r.startswith("low_assignment_confidence") for r in health.reasons)
        assert preds.shape == (len(maps),)

    def test_confident_assignment_stays_healthy(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[2].maps)
        preds, health = clear_system.predict_with_health(maps)
        assert health.state == HEALTHY and health.ok
        assert not health.used_fallback_model
        assert health.assignment_margin is not None

    def test_healthy_path_matches_plain_predict(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[3].maps)
        preds_plain = clear_system.predict(maps)
        preds_health, health = clear_system.predict_with_health(maps)
        if health.state == HEALTHY:
            np.testing.assert_array_equal(preds_plain, preds_health)

    def test_nan_maps_are_imputed_not_fatal(self, clear_system, tiny_dataset):
        maps = list(tiny_dataset.subjects[4].maps)
        values = maps[0].values.copy()
        values[:5, :] = np.nan
        from repro.signals.feature_map import FeatureMap

        dirty = [FeatureMap(values, label=maps[0].label, subject_id=maps[0].subject_id)]
        dirty += maps[1:]
        preds, health = clear_system.predict_with_health(dirty)
        assert health.imputed_features > 0
        assert health.state in (DEGRADED, FALLBACK)
        assert np.isfinite(preds).all()

    def test_empty_maps_rejected(self, clear_system):
        with pytest.raises(ValueError, match="at least one"):
            clear_system.predict_with_health([])
