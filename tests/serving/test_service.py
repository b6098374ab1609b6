"""InferenceService end-to-end: lifecycle, shedding, bit-identity."""

import numpy as np
import pytest

from repro.errors import AdmissionError, ServingError
from repro.resilience.degradation import FALLBACK, HEALTHY
from repro.resilience.retry import FakeClock
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceService,
    results_fingerprint,
)


def _service(system, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    kwargs.setdefault(
        "batch_policy",
        BatchPolicy(max_batch=8, max_wait_s=0.05, canonical_rows=4),
    )
    return InferenceService(system, **kwargs)


class TestLifecycle:
    def test_connect_assigns_cluster(self, serving_system, some_maps):
        svc = _service(serving_system)
        session = svc.connect(1, some_maps[:2])
        assert session.cluster in serving_system.cluster_models
        assert session.margin >= 0.0
        assert len(svc.sessions) == 1

    def test_submit_unknown_user_typed(self, serving_system, some_maps):
        svc = _service(serving_system)
        with pytest.raises(ServingError, match="no session for user 42"):
            svc.submit(42, some_maps[0])

    def test_duplicate_connect_typed(self, serving_system, some_maps):
        svc = _service(serving_system)
        svc.connect(1, some_maps[:2])
        with pytest.raises(ServingError, match="already connected"):
            svc.connect(1, some_maps[:2])

    def test_healthy_decision_roundtrip(self, serving_system, some_maps):
        svc = _service(serving_system)
        svc.connect(1, some_maps[:2])
        index = svc.submit(1, some_maps[2])
        assert index == 0
        assert svc.pump() == []  # neither full nor past max_wait yet
        svc.clock.advance(0.1)
        (result,) = svc.pump()
        assert result.user_id == 1 and result.request_index == 0
        assert result.health.state == HEALTHY
        assert result.health.assignment_margin is not None
        assert result.probabilities.shape == (2,)
        assert np.isclose(result.probabilities.sum(), 1.0)
        assert result.latency_s == pytest.approx(0.1)
        assert result.raw in (0, 1) and result.smoothed in (0, 1)


class TestOverload:
    def test_shed_routes_to_population_fallback(self, serving_system, some_maps):
        svc = _service(
            serving_system,
            admission=AdmissionPolicy(max_pending=1, hard_limit=10),
        )
        svc.connect(1, some_maps[:2])
        svc.submit(1, some_maps[0])  # accepted, depth now 1
        svc.submit(1, some_maps[1])  # shed
        results = svc.drain()
        assert len(results) == 2
        shed = [r for r in results if r.health.used_fallback_model]
        assert len(shed) == 1
        assert shed[0].health.state == FALLBACK
        assert any(
            reason.startswith("overload_shed:")
            for reason in shed[0].health.reasons
        )
        assert svc.admission.shed == 1

    def test_hard_limit_rejects_typed(self, serving_system, some_maps):
        svc = _service(
            serving_system,
            admission=AdmissionPolicy(max_pending=1, hard_limit=2),
        )
        svc.connect(1, some_maps[:2])
        svc.submit(1, some_maps[0])
        svc.submit(1, some_maps[1])
        with pytest.raises(AdmissionError) as exc_info:
            svc.submit(1, some_maps[2])
        assert exc_info.value.queue_depth == 2
        assert exc_info.value.limit == 2
        # AdmissionError sits in the typed serving hierarchy.
        assert isinstance(exc_info.value, ServingError)
        # The rejected request consumed no request index.
        assert svc.sessions.get(1)._issued == 2

    def test_shed_decisions_still_released_in_request_order(
        self, serving_system, some_maps
    ):
        # A shed request rides the population bucket while its
        # neighbours ride the cluster bucket; the reorder buffer must
        # still emit the user's stream in request order.
        svc = _service(
            serving_system,
            admission=AdmissionPolicy(max_pending=2, hard_limit=100),
        )
        svc.connect(1, some_maps[:2])
        for i in range(4):
            svc.submit(1, some_maps[i % len(some_maps)])
        results = svc.drain()
        assert [r.request_index for r in results if r.user_id == 1] == [
            0,
            1,
            2,
            3,
        ]


class TestPersonalization:
    def test_personalize_reroutes_user(self, serving_system, some_maps):
        svc = _service(serving_system)
        session = svc.connect(1, some_maps[:2])
        svc.submit(1, some_maps[0])
        tuned = svc.personalize(1, some_maps)
        # Pre-personalize work was quiesced, the route flipped, and the
        # tuned checkpoint is registered under the private group.
        assert len(svc.results) == 1
        assert session.group_key() == ("user", 1)
        assert svc.registry.model_for(("user", 1)) is tuned
        svc.submit(1, some_maps[1])
        (result,) = svc.drain()
        assert result.request_index == 1

    def test_personalize_unknown_user_typed(self, serving_system, some_maps):
        svc = _service(serving_system)
        with pytest.raises(ServingError, match="no session"):
            svc.personalize(9, some_maps)


class TestBitIdentity:
    def _run(self, system, maps, sequential):
        svc = _service(
            system,
            sequential=sequential,
            batch_policy=BatchPolicy(
                max_batch=16, max_wait_s=0.5, canonical_rows=4
            ),
        )
        for uid in range(6):
            svc.connect(uid, maps[uid % 2 : uid % 2 + 2])
        for step in range(3):
            for uid in range(6):
                svc.submit(uid, maps[(uid + step) % len(maps)])
            svc.clock.advance(0.2)
            svc.pump()
        svc.drain()
        return svc

    def test_batched_equals_sequential_bitwise(self, serving_system, some_maps):
        batched = self._run(serving_system, some_maps, sequential=False)
        sequential = self._run(serving_system, some_maps, sequential=True)
        assert len(batched.results) == len(sequential.results) == 18
        assert results_fingerprint(batched.results) == results_fingerprint(
            sequential.results
        )
        # And not merely the digest: every probability vector bitwise.
        key = lambda r: (r.user_id, r.request_index)
        for b, s in zip(
            sorted(batched.results, key=key),
            sorted(sequential.results, key=key),
        ):
            assert (b.raw, b.smoothed) == (s.raw, s.smoothed)
            np.testing.assert_array_equal(b.probabilities, s.probabilities)
        # The batched run actually batched.
        assert batched.metrics()["mean_batch_size"] > 1.0
        assert sequential.metrics()["mean_batch_size"] == 1.0


class TestFingerprint:
    def test_order_invariant(self, serving_system, some_maps):
        svc = _service(serving_system)
        svc.connect(1, some_maps[:2])
        for fmap in some_maps[:3]:
            svc.submit(1, fmap)
        results = svc.drain()
        shuffled = list(reversed(results))
        assert results_fingerprint(results) == results_fingerprint(shuffled)

    def test_sensitive_to_decisions(self, serving_system, some_maps):
        svc = _service(serving_system)
        svc.connect(1, some_maps[:2])
        svc.submit(1, some_maps[0])
        (result,) = svc.drain()
        fp = results_fingerprint([result])
        result.raw = 1 - result.raw
        assert results_fingerprint([result]) != fp


class TestMetrics:
    def test_metrics_shape(self, serving_system, some_maps):
        svc = _service(serving_system)
        svc.connect(1, some_maps[:2])
        svc.submit(1, some_maps[0])
        svc.drain()
        metrics = svc.metrics()
        assert metrics["decisions"] == 1
        assert metrics["sessions"] == 1
        assert metrics["pending"] == 0
        assert metrics["batches_flushed"] == 1
        assert metrics["admission"]["accepted"] == 1
