#!/usr/bin/env python
"""Fleet serving: micro-batched inference for a population of users.

Fits a small CLEAR system on a synthetic WEMAC corpus, then serves a
48-user fleet through :class:`repro.serving.InferenceService`: users
arrive over virtual time, cold-start onto cluster checkpoints, stream
decisions that the micro-batcher coalesces into canonical-slab
``predict_many`` calls, and a few personalize mid-stream.  The run is
repeated sequentially (batch size 1) to show the decision streams are
**bit-identical** — batching is pure throughput, never a behaviour
change.

The second half replays a burst arrival against a tight admission
policy: excess requests shed to the population fallback (answered with
``FALLBACK`` health naming the queue depth) and the overflow beyond the
hard limit is rejected with a typed ``AdmissionError`` — every submit
accounted for.

Run:  python examples/fleet_serving.py
"""

from dataclasses import replace

from repro.core import (
    CLEAR,
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
)
from repro.datasets import WEMACConfig
from repro.resilience.retry import FakeClock
from repro.scenarios import WEMACScenario
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceService,
    LoadScenario,
    run_load,
    scenario_events,
)

CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=3,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=6, batch_size=8, early_stopping_patience=3),
    fine_tuning=FineTuneConfig(epochs=2),
    seed=0,
)

SCENARIO = LoadScenario(
    num_users=48,
    seed=7,
    arrival_span_s=10.0,
    decisions_per_user=3,
    decision_interval_s=5.0,
    cold_start_maps=2,
    fine_tune_fraction=0.1,
    fine_tune_after=1,
    fine_tune_maps=2,
    perturbation=0.05,
)

POLICY = BatchPolicy(max_batch=16, max_wait_s=2.0, canonical_rows=4)


def build_service(system, sequential=False, admission=None):
    return InferenceService(
        system,
        clock=FakeClock(),
        batch_policy=POLICY,
        admission=admission,
        sequential=sequential,
    )


def main():
    print("== Fit: cloud stage on the synthetic corpus ==")
    dataset = WEMACScenario(WEMACConfig.tiny(seed=0)).materialize()
    base_maps = {s.subject_id: list(s.maps) for s in dataset.subjects}
    system = CLEAR(CFG).fit(base_maps)
    print(f"clusters: {sorted(system.cluster_models)}")

    print(f"\n== Serve: {SCENARIO.num_users} synthetic users on virtual time ==")
    events = scenario_events(SCENARIO, base_maps)
    service = build_service(system)
    report = run_load(service, SCENARIO, base_maps, events=events)
    metrics = service.metrics()
    latency = report.latency_percentiles()
    print(f"decisions        : {len(report.results)}")
    print(f"personalizations : {report.personalizations}")
    print(f"mean batch size  : {metrics['mean_batch_size']:.1f}")
    print(f"virtual latency  : p50 {latency['p50']:.2f}s  p99 {latency['p99']:.2f}s")
    print(f"registry         : {metrics['registry']}")

    print("\n== Replay sequentially (batch size 1): bit-identity ==")
    sequential = run_load(
        build_service(system, sequential=True), SCENARIO, base_maps, events=events
    )
    assert report.fingerprint() == sequential.fingerprint()
    print(f"batched    fingerprint: {report.fingerprint()[:32]}…")
    print(f"sequential fingerprint: {sequential.fingerprint()[:32]}…  (identical)")

    print("\n== Burst arrival vs tight admission: graceful degradation ==")
    burst = replace(SCENARIO, arrival_span_s=0.0, fine_tune_fraction=0.0, seed=11)
    service = build_service(
        system, admission=AdmissionPolicy(max_pending=4, hard_limit=16)
    )
    overloaded = run_load(service, burst, base_maps)
    shed = [r for r in overloaded.results if r.health.used_fallback_model]
    print(f"decisions : {len(overloaded.results)}")
    print(f"shed      : {len(shed)} (answered by population fallback)")
    print(f"rejected  : {overloaded.rejections} (typed AdmissionError)")
    submitted = burst.num_users * burst.decisions_per_user
    assert len(overloaded.results) + overloaded.rejections == submitted
    if shed:
        print(f"example shed health: {shed[0].health.reasons[0]}")


if __name__ == "__main__":
    main()
