"""Load generator: deterministic schedules, replays, golden fingerprint."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.backends import OptimizedBackend
from repro.resilience.retry import FakeClock
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceService,
    LoadScenario,
    run_load,
    scenario_events,
)
from repro.serving.loadgen import CONNECT, PERSONALIZE, SUBMIT

TINY = LoadScenario(
    num_users=12,
    seed=7,
    arrival_span_s=20.0,
    decisions_per_user=3,
    decision_interval_s=5.0,
    cold_start_maps=2,
    fine_tune_fraction=0.2,
    perturbation=0.05,
)


def _service(system, sequential=False, **kwargs):
    kwargs.setdefault(
        "batch_policy", BatchPolicy(max_batch=16, max_wait_s=2.0, canonical_rows=8)
    )
    return InferenceService(
        system, clock=FakeClock(), sequential=sequential, **kwargs
    )


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"num_users": 0}, "num_users"),
            ({"decision_interval_s": 0.0}, "time parameters"),
            ({"decisions_per_user": 0}, "decisions_per_user"),
            ({"fine_tune_fraction": 1.5}, "fine_tune_fraction"),
            ({"fine_tune_after": 9, "decisions_per_user": 4}, "fine_tune_after"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LoadScenario(**kwargs)


class TestScenarioEvents:
    def test_deterministic_schedule(self, tiny_maps_by_subject):
        a = scenario_events(TINY, tiny_maps_by_subject)
        b = scenario_events(TINY, tiny_maps_by_subject)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert (ea.time, ea.user_id, ea.kind) == (eb.time, eb.user_id, eb.kind)
            for ma, mb in zip(ea.maps, eb.maps):
                np.testing.assert_array_equal(ma.values, mb.values)

    def test_schedule_shape(self, tiny_maps_by_subject):
        events = scenario_events(TINY, tiny_maps_by_subject)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event.kind, []).append(event)
        assert len(by_kind[CONNECT]) == TINY.num_users
        assert len(by_kind[SUBMIT]) == TINY.num_users * TINY.decisions_per_user
        # fine_tune_fraction=0.2 over 12 users: some but not all tune.
        assert 0 < len(by_kind[PERSONALIZE]) < TINY.num_users
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_users_get_fresh_synthetic_ids(self, tiny_maps_by_subject):
        events = scenario_events(TINY, tiny_maps_by_subject)
        for event in events:
            for fmap in event.maps:
                assert fmap.subject_id == event.user_id

    def test_seed_changes_schedule(self, tiny_maps_by_subject):
        from dataclasses import replace

        a = scenario_events(TINY, tiny_maps_by_subject)
        b = scenario_events(replace(TINY, seed=8), tiny_maps_by_subject)
        assert [e.time for e in a] != [e.time for e in b]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="base corpus"):
            scenario_events(TINY, {})


class TestRunLoad:
    def test_replay_is_byte_identical(self, serving_system, tiny_maps_by_subject):
        first = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        second = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        expected = TINY.num_users * TINY.decisions_per_user
        assert len(first.results) == expected
        assert first.fingerprint() == second.fingerprint()
        assert first.summary()["personalizations"] == second.summary()["personalizations"]

    def test_batched_equals_sequential(self, serving_system, tiny_maps_by_subject):
        batched = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        sequential = run_load(
            _service(serving_system, sequential=True), TINY, tiny_maps_by_subject
        )
        assert len(batched.results) == len(sequential.results)
        assert batched.fingerprint() == sequential.fingerprint()

    def test_open_loop_counts_rejections(self, serving_system, tiny_maps_by_subject):
        from dataclasses import replace

        burst = replace(TINY, arrival_span_s=0.0, fine_tune_fraction=0.0)
        svc = _service(
            serving_system,
            admission=AdmissionPolicy(max_pending=2, hard_limit=4),
            batch_policy=BatchPolicy(max_batch=4, max_wait_s=50.0, canonical_rows=4),
        )
        report = run_load(svc, burst, tiny_maps_by_subject)
        assert report.rejections > 0
        assert report.shed_count() > 0
        assert (
            len(report.results) + report.rejections
            == burst.num_users * burst.decisions_per_user
        )

    def test_latency_percentiles_shape(self, serving_system, tiny_maps_by_subject):
        report = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        stats = report.latency_percentiles()
        assert set(stats) == {"p50", "p99"}
        assert 0.0 <= stats["p50"] <= stats["p99"]
        # No wall timer was injected, so wall percentiles are empty-safe.
        assert report.latency_percentiles(wall=True) == {"p50": 0.0, "p99": 0.0}


class TestBitIdentityProperty:
    """Property satellite: coalescing never changes the decision stream."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_users=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**16),
        max_batch=st.integers(min_value=2, max_value=16),
        arrival_span=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_batched_equals_sequential(
        self, serving_system, tiny_maps_by_subject, num_users, seed, max_batch, arrival_span
    ):
        scenario = LoadScenario(
            num_users=num_users,
            seed=seed,
            arrival_span_s=arrival_span,
            decisions_per_user=2,
            decision_interval_s=3.0,
            fine_tune_fraction=0.0,
            perturbation=0.1,
        )
        policy = BatchPolicy(max_batch=max_batch, max_wait_s=2.0, canonical_rows=4)
        events = scenario_events(scenario, tiny_maps_by_subject)
        batched = run_load(
            _service(serving_system, batch_policy=policy),
            scenario,
            tiny_maps_by_subject,
            events=events,
        )
        sequential = run_load(
            _service(serving_system, sequential=True, batch_policy=policy),
            scenario,
            tiny_maps_by_subject,
            events=events,
        )
        assert len(batched.results) == num_users * 2
        assert batched.fingerprint() == sequential.fingerprint()


class TestGoldenScenarioFingerprint:
    """Pinned seal for one load-gen scenario on the optimized backend,
    which every served model runs on.

    Any change to kernel math, normalization, batching slab layout,
    smoothing, scheduling order, or the synthetic-user generator moves
    this digest.  Recompute deliberately (and say why in the diff) via:

        PYTHONPATH=src python -m pytest tests/serving/test_loadgen.py -k golden -q
    """

    PINNED = "3b5f6bdf21f558079ab8f6558b96f96ae434512e5017fe37bfe0103766a41df4"

    def test_tiny_scenario_fingerprint_bit_identical(
        self, serving_system, tiny_maps_by_subject
    ):
        assert isinstance(
            serving_system.cluster_models[0].model.backend, OptimizedBackend
        )
        report = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        assert report.fingerprint() == self.PINNED


class TestScenarioFingerprintDomain:
    """Named populations domain-separate the fingerprint; unnamed don't."""

    def test_unnamed_scenario_digest_unchanged(
        self, serving_system, tiny_maps_by_subject
    ):
        from repro.serving.service import results_fingerprint

        report = run_load(_service(serving_system), TINY, tiny_maps_by_subject)
        assert report.scenario == ""
        # An empty scenario name must hash exactly like the pre-scenario
        # code path, or every pinned golden digest silently moves.
        assert report.fingerprint() == results_fingerprint(report.results)

    def test_named_scenarios_cannot_collide(
        self, serving_system, tiny_maps_by_subject
    ):
        from dataclasses import replace

        from repro.serving.service import results_fingerprint

        named = replace(TINY, name="wemac")
        report = run_load(_service(serving_system), named, tiny_maps_by_subject)
        assert report.scenario == "wemac"
        assert report.summary()["scenario"] == "wemac"
        anonymous = results_fingerprint(report.results)
        assert report.fingerprint() != anonymous
        assert report.fingerprint() != results_fingerprint(
            report.results, scenario="stress"
        )
        # Same decisions, same name -> same digest.
        assert report.fingerprint() == results_fingerprint(
            report.results, scenario="wemac"
        )

    def test_base_corpus_feeds_the_load_generator(self, serving_system):
        from repro.scenarios import base_corpus, wemac_scenario

        corpus = base_corpus(
            wemac_scenario(scale="tiny", seed=0), max_subjects=4
        )
        scenario = LoadScenario(
            num_users=4,
            seed=3,
            arrival_span_s=5.0,
            decisions_per_user=2,
            name="wemac_tiny",
        )
        report = run_load(_service(serving_system), scenario, corpus)
        assert len(report.results) == 8
        assert report.scenario == "wemac_tiny"
