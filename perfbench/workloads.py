"""The three benchmark workloads and the layer wrappers a traced run installs.

Each workload runs in its own fresh process (see ``worker.py``) as:

``setup()``
    inputs generated from the seed, plus an untimed warm-up that pays
    lazy first-call costs; all of it counts toward ``setup_s``.
``cloud()``
    the first timed phase (cloud-side population fit).
``body(seconds)``
    the repeated, timed part; returns one record per unit of work.
``check()``
    untimed correctness checks; returns ``(attempted, failed)``.

Sizes are constants here; only ``--seed`` and ``--seconds`` vary.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import itertools
import math
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.signals.feature_map as feature_map
from repro.clustering.streaming import StreamingKMeans
from repro.core import CLEAR, CLEARConfig
from repro.core import pipeline as core_pipeline
from repro.core.trainer import fine_tune, train_on_maps
from repro.datasets.stimuli import balanced_schedule
from repro.datasets.subject import (
    NUM_ARCHETYPES,
    PhysiologicalSimulator,
    sample_subject,
)
from repro.datasets.wemac import WEMACConfig
from repro.nn.backends.base import ComputeBackend
from repro.orchestration.graph import PipelineGraph
from repro.resilience.retry import FakeClock
from repro.runtime.executor import make_executor
from repro.scenarios import (
    base_corpus,
    nmi_from_contingency,
    run_scenario_stream,
    scenario_fingerprint,
    stress_scenario,
)
from repro.scenarios import devices as scenario_devices
from repro.scenarios import pipeline as scenario_pipeline
from repro.scenarios.synthetic import FeatureSpaceScenario
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    InferenceService,
    LoadScenario,
    run_load,
    scenario_events,
)
from repro.serving.registry import ClusterModelRegistry

from common import cpu_seconds, median, peak_rss_mb, tail
from spans import Tracer

#: The serving bench's documented headline policy (benchmarks/
#: test_serving_load.py): 64-row buckets on 8-row canonical slabs.
HEADLINE_POLICY = BatchPolicy(max_batch=64, max_wait_s=2.0, canonical_rows=8)
#: Admission wide enough that nothing sheds or is rejected.
WIDE_OPEN = AdmissionPolicy(max_pending=10**6, hard_limit=2 * 10**6)

#: Every PipelineGraph stage the workloads run (CLEAR fit + scenario stream).
STAGES = (
    "global_clustering",
    "subclusters",
    "cluster_models",
    "signature_model",
    "centers",
    "scores",
)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def nn_warmup(maps) -> None:
    """Train, fine-tune and batch-predict once on a few maps (untimed)."""
    cfg = CLEARConfig.fast(seed=0)
    small = list(maps)[:4]
    trained = train_on_maps(
        small,
        cfg.model,
        dataclasses.replace(cfg.training, epochs=1),
        seed=0,
    )
    tuned = fine_tune(
        trained, small[:2], dataclasses.replace(cfg.fine_tuning, epochs=1)
    )
    x, _ = feature_map.maps_to_arrays(tuned.normalizer.transform_all(small))
    tuned.model.predict_many([x], pad_rows=HEADLINE_POLICY.canonical_rows)
    tuned.predict_classes(small[:1])


def _cluster_quality(
    assignments: Dict[int, int], archetypes: Dict[int, int], k: int
) -> Tuple[float, float]:
    """(NMI vs archetype, smallest cluster share) of a subject clustering."""
    contingency = np.zeros((max(archetypes.values()) + 1, k), dtype=np.int64)
    for subject, cluster in assignments.items():
        contingency[archetypes[subject], cluster] += 1
    sizes = contingency.sum(axis=0)
    return nmi_from_contingency(contingency), float(sizes.min() / sizes.sum())


class Workload:
    """Shared bookkeeping: scratch directories, cloud accounting."""

    name = ""
    #: Whether ``cloud()`` is a timed phase of its own before the body.
    TIMED_CLOUD = True

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.cloud_info: Dict[str, float] = {}
        self.units: List[Dict] = []
        #: Set by a traced run before ``setup``.
        self.tracer: Optional[Tracer] = None

    def fresh_dir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=f"{tag}-", dir=self.workdir)

    def cloud(self) -> float:
        """Run the timed cloud phase; records wall, CPU and cache counters."""
        gc.collect()
        cpu_self = cpu_seconds(resource.RUSAGE_SELF)
        cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        hits, misses, workers = self._cloud()
        wall = time.perf_counter() - start
        cpu = (
            cpu_seconds(resource.RUSAGE_SELF)
            - cpu_self
            + cpu_seconds(resource.RUSAGE_CHILDREN)
            - cpu_children
        )
        self.cloud_info = {
            "wall_s": wall,
            "cpu_s": cpu,
            "workers": workers,
            "cache_hits": hits,
            "cache_misses": misses,
            "worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)
            if workers > 1
            else 0.0,
        }
        return wall

    def _cloud(self) -> Tuple[int, int, int]:
        raise NotImplementedError

    def body(self, seconds: float, traced: bool = False) -> List[Dict]:
        raise NotImplementedError

    def cluster_quality(self) -> Tuple[float, float]:
        """(NMI, smallest cluster share) of the workload's clustering."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
class ColdStartJourney(Workload):
    """Paper Fig. 1: cloud fit on raw recordings, then users one at a time."""

    name = "cold_start_journey"
    POPULATION = 16
    TRIALS_PER_USER = 5  # 20 % labelled = 1 map, 4 served
    JOURNEYS_PER_SECOND = 1.6  # sizes the user count from --seconds
    CLOUD_WORKERS = 2

    def setup(self) -> None:
        base = WEMACConfig.small(seed=self.seed)
        rates = (base.fs_bvp, base.fs_gsr, base.fs_skt)
        rng = np.random.default_rng(self.seed)
        simulator = PhysiologicalSimulator(*rates)
        population = self.POPULATION if self.seconds >= 8 else 8
        self.archetypes: Dict[int, int] = {}

        def unit(subject_id: int, archetype: int, trials: int):
            profile = sample_subject(
                subject_id, archetype, rng, jitter=base.subject_jitter
            )
            schedule = balanced_schedule(trials, base.trial_seconds, rng)
            raw = simulator.simulate_schedule(profile, schedule, rng)
            self.archetypes[subject_id] = archetype
            return feature_map.SubjectExtractionUnit(
                subject_id=subject_id,
                trials=list(raw),
                labels=[t.label for t in schedule.trials],
                windows_per_map=base.windows_per_map,
                rates=rates,
                window_seconds=base.window_seconds,
            )

        plan = rng.permutation(
            [i % NUM_ARCHETYPES for i in range(population)]
        )
        self.population_units = [
            unit(sid, int(a), base.trials_per_subject)
            for sid, a in enumerate(plan)
        ]
        num_users = max(20, int(round(self.seconds * self.JOURNEYS_PER_SECOND)))
        self.user_units = [
            unit(
                1000 + u,
                int(rng.integers(NUM_ARCHETYPES)),
                self.TRIALS_PER_USER,
            )
            for u in range(num_users)
        ]
        labelled = max(1, math.ceil(0.2 * self.TRIALS_PER_USER))
        self.splits = [
            (order[:labelled], order[labelled:])
            for order in (
                rng.permutation(self.TRIALS_PER_USER) for _ in range(num_users)
            )
        ]
        self.next_user = 0
        self.services: List[InferenceService] = []
        # Warm-up: one trial through extraction, and the nn paths.
        warm = dataclasses.replace(
            self.user_units[0],
            trials=self.user_units[0].trials[:2],
            labels=self.user_units[0].labels[:2],
        )
        nn_warmup(_EXTRACT(warm).maps * 2)

    def _cloud(self) -> Tuple[int, int, int]:
        cache = self.fresh_dir("cloud-cache")
        executor = make_executor(self.CLOUD_WORKERS)
        units = [
            dataclasses.replace(u, cache_dir=cache) for u in self.population_units
        ]
        # Pickled by reference, so a traced run ships the wrapper; spans
        # recorded in the children are discarded (rusage covers them).
        extracted = executor.map(feature_map.extract_subject_maps, units)
        maps = {r.subject_id: r.maps for r in extracted}
        self.system = CLEAR(
            CLEARConfig.fast(seed=self.seed), executor=executor, cache_dir=cache
        ).fit(maps)
        self.service = InferenceService(
            self.system,
            cache_dir=self.fresh_dir("serving-cache"),
            wall_timer=time.perf_counter,
        )
        self.services.append(self.service)
        hits = sum(r.cache_hits for r in extracted) + self.system.runtime.cache_hits
        misses = (
            sum(r.cache_misses for r in extracted) + self.system.runtime.cache_misses
        )
        return hits, misses, executor.workers

    def body(self, seconds: float, traced: bool = False) -> List[Dict]:
        """Journeys for ``seconds`` worth of the planned users (closed loop)."""
        share = int(round(len(self.user_units) * seconds / self.seconds))
        stop = min(len(self.user_units), self.next_user + max(1, share))
        records = []
        gc.collect()
        for index in range(self.next_user, stop):
            record, tuned, held = self._journey(index)
            # Checked untimed, between journeys, so no model outlives it.
            record["ok"], record["accuracy"] = self._check(record, tuned, held)
            records.append(record)
        self.next_user = stop
        self.units.extend(records)
        return records

    def _journey(self, index: int):
        unit = self.user_units[index]
        labelled_idx, held_idx = self.splits[index]
        service = self.service
        before = len(service.results)
        start = time.perf_counter()
        maps = feature_map.extract_subject_maps(unit).maps
        labelled = [maps[i] for i in labelled_idx]
        held = [maps[i] for i in held_idx]
        service.connect(unit.subject_id, held)
        tuned = service.personalize(unit.subject_id, labelled)
        for fmap in held:
            service.submit(unit.subject_id, fmap)
            service.pump()
        service.drain()
        wall = time.perf_counter() - start
        record = {
            "wall_s": wall,
            "user": unit.subject_id,
            "results": service.results[before:],
        }
        return record, tuned, held

    @staticmethod
    def _check(record: Dict, tuned, held) -> Tuple[bool, float]:
        """One decision per served map, each equal to the tuned model's."""
        results = sorted(record["results"], key=lambda r: r.request_index)
        ok = len(results) == len(held) and all(
            r.user_id == record["user"] for r in results
        )
        if not ok:
            return False, 0.0
        expected = tuned.predict_classes(held)
        ok = all(int(r.raw) == int(e) for r, e in zip(results, expected))
        accuracy = float(np.mean([r.raw == m.label for r, m in zip(results, held)]))
        return ok, accuracy

    def check(self) -> Tuple[int, int]:
        return len(self.units), sum(0 if r["ok"] else 1 for r in self.units)

    def end_to_end(self) -> Dict[str, float]:
        walls = [r["wall_s"] for r in self.units]
        t = tail([w * 1000.0 for w in walls])
        return {
            "cloud_s": self.cloud_info["wall_s"],
            "throughput_per_s": self.rate(self.units),
            "latency_p50_ms": median(walls) * 1000.0,
            "latency_tail_ms": t["value"],
            "quality": float(np.mean([r["accuracy"] for r in self.units])),
            "_tail": t,
        }

    def rate(self, units: List[Dict]) -> float:
        return len(units) / sum(r["wall_s"] for r in units)

    def nn_backend(self) -> str:
        return self.system.config.model.backend

    def executor_shape(self) -> str:
        return f"cloud: make_executor({self.CLOUD_WORKERS}); journeys: serial"

    def digest_results(self) -> List:
        return [r for record in self.units for r in record["results"]]

    def cluster_quality(self) -> Tuple[float, float]:
        assignments = self.system.gc.assignments
        return _cluster_quality(
            assignments, self.archetypes, self.system.gc.k
        )


_EXTRACT = feature_map.extract_subject_maps


# ---------------------------------------------------------------------------
class FleetPersonalize(Workload):
    """A feature-space stress fleet replayed through one serving stack."""

    name = "fleet_personalize"
    BASE_SUBJECTS = 16
    USERS = 300
    #: This share of users personalize (30 private models, more than the
    #: 8 spare warm-pool slots, so the pool evicts and rehydrates).
    FINE_TUNE_FRACTION = 0.1
    MIN_REPLAYS = 3

    def setup(self) -> None:
        users = self.USERS if self.seconds >= 8 else 60
        scenario = stress_scenario(num_subjects=self.BASE_SUBJECTS, seed=self.seed)
        self.corpus = base_corpus(scenario)
        self.archetypes = {
            sid: scenario.subject(sid).archetype_id for sid in self.corpus
        }
        self.load = LoadScenario(
            num_users=users,
            seed=self.seed,
            arrival_span_s=20.0,
            decisions_per_user=6,
            decision_interval_s=5.0,
            cold_start_maps=2,
            fine_tune_fraction=1.0,
            fine_tune_after=2,
            fine_tune_maps=2,
            perturbation=0.05,
            name="stress",
        )
        # LoadScenario draws each user's fine-tune with probability p, so
        # the count and its timing vary by seed, and each fine-tune stalls
        # the decisions queued around it.  Schedule every user's fine-tune
        # (the other draws are unchanged) and keep every 10th user by
        # arrival, from a seeded offset: the same count every seed, spread
        # evenly over the replay.
        events = scenario_events(self.load, self.corpus)
        arrivals = [e.user_id for e in events if e.kind == "connect"]
        stride = int(round(1.0 / self.FINE_TUNE_FRACTION))
        keep = set(arrivals[self.seed % stride :: stride])
        self.events = [
            e for e in events if e.kind != "personalize" or e.user_id in keep
        ]
        self.labels: Dict[Tuple[int, int], int] = {}
        counters: Dict[int, int] = {}
        for event in self.events:
            if event.kind == "submit":
                index = counters.get(event.user_id, 0)
                counters[event.user_id] = index + 1
                self.labels[(event.user_id, index)] = int(event.maps[0].label)
        nn_warmup(next(iter(self.corpus.values())))

    def _cloud(self) -> Tuple[int, int, int]:
        # One cluster per response archetype, as the paper sets K to the
        # population's structure; the training work is then seed-stable.
        config = dataclasses.replace(CLEARConfig.fast(seed=self.seed), num_clusters=3)
        self.system = CLEAR(config).fit(self.corpus)
        runtime = self.system.runtime
        return runtime.cache_hits, runtime.cache_misses, 1

    def _service(self, cache_dir: str, sequential: bool = False) -> InferenceService:
        return InferenceService(
            self.system,
            batch_policy=HEADLINE_POLICY,
            admission=WIDE_OPEN,
            clock=FakeClock(),
            cache_dir=cache_dir,
            sequential=sequential,
            wall_timer=time.perf_counter,
        )

    def body(self, seconds: float, traced: bool = False) -> List[Dict]:
        """Replay the fixed schedule until ``seconds`` have passed (>= 3x)."""
        records = []
        deadline = time.perf_counter() + seconds
        while len(records) < self.MIN_REPLAYS or time.perf_counter() < deadline:
            cache_dir = self.fresh_dir("serving-cache")
            service = self._service(cache_dir)
            gc.collect()
            report, wall = _timed(run_load, service, self.load, self.corpus, self.events)
            record = {
                "wall_s": wall,
                "decisions": len(report.results),
                "submits": report.submits,
                "bad": report.rejections + report.shed_count(),
                "latencies_ms": [r.wall_latency_s * 1000.0 for r in report.results],
                "fingerprint": report.fingerprint(),
            }
            # Replays repeat one schedule: keep the first one's decisions
            # for the checks, and a traced replay's service for its
            # counters; drop the rest so memory does not grow per replay.
            if not self.units and not records:
                record["report"] = report
            if traced:
                record["service"] = service
            records.append(record)
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.units.extend(records)
        return records

    def check(self) -> Tuple[int, int]:
        expected = self.load.num_users * self.load.decisions_per_user
        attempted = 0
        failed = 0
        reference = self.units[0]["fingerprint"]
        for record in self.units:
            attempted += record["submits"]
            released = record["decisions"]
            bad = record["submits"] - released + record["bad"]
            if record["fingerprint"] != reference or released != expected:
                bad = max(bad, released)
            failed += bad
        # A seeded sample of users, replayed one request per flush.
        rng = np.random.default_rng(self.seed)
        sample = set(
            int(u)
            for u in rng.choice(
                self.load.num_users, size=max(1, self.load.num_users // 10), replace=False
            )
        )
        events = [e for e in self.events if e.user_id in sample]
        sequential = self._service(self.fresh_dir("serving-cache"), sequential=True)
        reference_report = run_load(sequential, self.load, self.corpus, events=events)
        mine = _streams(self.units[0]["report"].results, sample)
        theirs = _streams(reference_report.results, sample)
        attempted += sum(len(v) for v in theirs.values())
        for user in sample:
            a, b = mine.get(user, []), theirs.get(user, [])
            if a != b:
                failed += max(len(a), len(b))
        return attempted, failed

    def end_to_end(self) -> Dict[str, float]:
        latencies = [x for r in self.units for x in r["latencies_ms"]]
        correct = [
            self.labels[(res.user_id, res.request_index)] == res.raw
            for res in self.units[0]["report"].results
        ]
        t = tail(latencies)
        return {
            "cloud_s": self.cloud_info["wall_s"],
            "throughput_per_s": self.rate(self.units),
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": t["value"],
            "quality": float(np.mean(correct)),
            "_tail": t,
        }

    def rate(self, units: List[Dict]) -> float:
        return median([r["decisions"] / r["wall_s"] for r in units])

    def nn_backend(self) -> str:
        return self.system.config.model.backend

    def executor_shape(self) -> str:
        return "serial"

    def digest_results(self) -> List:
        return self.units[0]["report"].results

    def cluster_quality(self) -> Tuple[float, float]:
        return _cluster_quality(
            self.system.gc.assignments, self.archetypes, self.system.gc.k
        )


def _streams(results, users) -> Dict[int, List]:
    out: Dict[int, List] = {}
    for r in sorted(results, key=lambda r: (r.user_id, r.request_index)):
        if r.user_id in users:
            out.setdefault(r.user_id, []).append(
                (
                    r.request_index,
                    r.raw,
                    r.smoothed,
                    np.asarray(r.probabilities, dtype=np.float64).tobytes(),
                )
            )
    return out


# ---------------------------------------------------------------------------
class PopulationStream(Workload):
    """``run_scenario_stream`` over stress fleets in minibatch mode.

    The run cycles over ``POPULATIONS`` fleets of one size, each seeded
    from ``--seed``.  Whether a minibatch fit collapses depends on the
    fleet's seed, so ``quality`` is the mean purity over several fleets
    rather than one fleet's yes-or-no outcome.
    """

    name = "population_stream"
    #: The stream's cloud step is pass 1 of each streamed run.
    TIMED_CLOUD = False
    SUBJECTS = 3000
    POPULATIONS = 6
    PREFIX = 300

    def setup(self) -> None:
        self.num_subjects = self.SUBJECTS if self.seconds >= 8 else 600
        self.chunk_latencies: List[float] = []
        self.scenarios = [
            self._timed_scenario(self.seed * self.POPULATIONS + j)
            for j in range(self.POPULATIONS)
        ]
        self.next_population = 0
        warm = stress_scenario(num_subjects=128, seed=self.seed + 1)
        run_scenario_stream(warm, mode="minibatch")

    def _timed_scenario(self, seed: int):
        scenario = stress_scenario(num_subjects=self.num_subjects, seed=seed)
        original = scenario.iter_chunks

        def timed_chunks(*args, **kwargs):
            # Latency of one chunk: from the request for it until the
            # consumer asks for the next (generation + fit or scoring).
            start = time.perf_counter()
            for index, chunk in enumerate(original(*args, **kwargs)):
                if self.tracer is not None:
                    self.tracer.request = index
                yield chunk
                now = time.perf_counter()
                self.chunk_latencies.append(now - start)
                start = now
            if self.tracer is not None:
                self.tracer.request = None

        scenario.iter_chunks = timed_chunks
        return scenario

    def body(self, seconds: float, traced: bool = False) -> List[Dict]:
        """Stream fleets in turn until ``seconds`` have passed (each >= once)."""
        records = []
        deadline = time.perf_counter() + seconds
        while len(records) < self.POPULATIONS or time.perf_counter() < deadline:
            population = self.next_population % self.POPULATIONS
            self.next_population += 1
            gc.collect()
            first = len(self.chunk_latencies)
            report, wall = _timed(
                run_scenario_stream, self.scenarios[population], mode="minibatch"
            )
            records.append(
                {
                    "wall_s": wall,
                    "population": population,
                    "report": report,
                    "chunks": self.chunk_latencies[first:],
                    "digest": report.provenance[2].digest,
                }
            )
        self.units.extend(records)
        return records

    def _first_runs(self) -> Dict[int, Dict]:
        first: Dict[int, Dict] = {}
        for record in self.units:
            first.setdefault(record["population"], record)
        return first

    def check(self) -> Tuple[int, int]:
        n = self.num_subjects
        config = self.scenarios[0].config
        classes = config.label_space.num_classes
        per_subject = np.tile(
            np.arange(classes), -(-config.maps_per_subject // classes)
        )[: config.maps_per_subject]
        expected_labels = n * np.bincount(per_subject, minlength=classes)
        attempted = 0
        failed = 0
        # A repeated fleet must score to the same digest as its first run.
        reference = {p: r["digest"] for p, r in self._first_runs().items()}
        for record in self.units:
            score = record["report"].score
            attempted += n
            ok = (
                int(score.cluster_sizes.sum()) == n
                and int(score.contingency.sum()) == n
                and np.array_equal(score.label_counts, expected_labels)
                and record["digest"] == reference[record["population"]]
            )
            failed += 0 if ok else n
        twin = stress_scenario(num_subjects=n, seed=self.scenarios[0].seed)
        prefix = min(self.PREFIX, n)
        a = scenario_fingerprint(
            itertools.islice(twin.iter_subjects(chunk_size=64), prefix)
        )
        b = scenario_fingerprint(
            itertools.islice(twin.iter_subjects(chunk_size=100), prefix)
        )
        attempted += prefix
        failed += 0 if a == b else prefix
        return attempted, failed

    def end_to_end(self) -> Dict[str, float]:
        chunks = [c * 1000.0 for r in self.units for c in r["chunks"]]
        t = tail(chunks)
        purities = [
            r["report"].score.archetype_purity for r in self._first_runs().values()
        ]
        return {
            "cloud_s": median(
                [r["report"].provenance[0].wall_time_s for r in self.units]
            ),
            "throughput_per_s": self.rate(self.units),
            "latency_p50_ms": median(chunks),
            "latency_tail_ms": t["value"],
            "quality": float(np.mean(purities)),
            "_tail": t,
        }

    def rate(self, units: List[Dict]) -> float:
        return median([self.num_subjects / r["wall_s"] for r in units])

    def nn_backend(self) -> str:
        return "none (bypasses nn)"

    def executor_shape(self) -> str:
        return "serial"

    def digest_results(self) -> List:
        first = self._first_runs()
        joined = "+".join(str(first[p]["digest"]) for p in sorted(first))
        return [hashlib.sha256(joined.encode()).hexdigest()[:32]]

    def cluster_quality(self) -> Tuple[float, float]:
        score = self.units[-1]["report"].score
        sizes = score.cluster_sizes
        return float(score.nmi), float(sizes.min() / sizes.sum())


WORKLOADS = {
    cls.name: cls for cls in (ColdStartJourney, FleetPersonalize, PopulationStream)
}


# ---------------------------------------------------------------------------
# Traced runs: wrappers around the program's public calls.
def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""

    def rows(result, backend, model, inputs, pad_rows=None):
        n = sum(int(np.shape(x)[0]) for x in inputs)
        tracer.count("nn.rows", n)
        tracer.count(
            "nn.computed_rows", -(-n // pad_rows) * pad_rows if pad_rows else n
        )

    def imputed(report, *args, **kwargs):
        tracer.count("resilience.imputed_features", len(report.bad_indices))

    def stages(run, graph, *args, **kwargs):
        for artifact in run.artifacts.values():
            provenance = artifact.provenance
            if provenance.stage != "input":
                tracer.count(f"orchestration.stage_s.{provenance.stage}", provenance.wall_time_s)
                tracer.count("orchestration.stage_sum_s", provenance.wall_time_s)

    tracer.wrap(feature_map, "extract_subject_maps", "signals.extract",
                request=lambda unit: unit.subject_id)
    tracer.wrap(scenario_pipeline, "signature_matrix", "signals.signature")
    tracer.wrap(scenario_devices, "screen_features", "resilience.screen", after=imputed)
    tracer.wrap(core_pipeline.CLEARSystem, "assign_new_user", "clustering.assign")
    tracer.wrap(StreamingKMeans, "fit_chunks", "clustering.stream_fit")
    tracer.wrap(core_pipeline, "fine_tune", "core.fine_tune")
    tracer.wrap(PipelineGraph, "run", "orchestration.graph", after=stages)
    tracer.wrap(FeatureSpaceScenario, "build_subject", "scenarios.generate",
                kind="classmethod")
    tracer.wrap(ComputeBackend, "forward_many", "nn.forward_many", after=rows)
    tracer.wrap(InferenceService, "connect", "serving.connect",
                request=lambda self, user, *a, **k: user)
    tracer.wrap(InferenceService, "personalize", "serving.personalize",
                request=lambda self, user, *a, **k: user)
    tracer.wrap(InferenceService, "pump", "serving.pump")
    tracer.wrap(InferenceService, "drain", "serving.drain")
    tracer.wrap(ClusterModelRegistry, "model_for", "serving.model_for")
    tracer.wrap(PhysiologicalSimulator, "simulate_schedule", "datasets.simulate")


def per_layer(
    tracer: Tracer,
    workload: Workload,
    traced_units: List[Dict],
    import_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    counters = tracer.counters
    self_time = tracer.self_times()

    def p50_ms(name: str) -> float:
        values = tracer.durations(name)
        return median(values) * 1000.0 if values else 0.0

    def total(name: str) -> float:
        return float(sum(tracer.durations(name)))

    cloud = workload.cloud_info
    m: Dict[str, float] = {
        "signals.extract_ms": p50_ms("signals.extract"),
        "signals.signature_s": total("signals.signature"),
        "runtime.cloud_cpu_s": cloud.get("cpu_s", 0.0),
        "runtime.fanout_efficiency": (
            cloud["cpu_s"] / (cloud["workers"] * cloud["wall_s"]) if cloud else 0.0
        ),
        "runtime.cache_hits": float(cloud.get("cache_hits", 0)),
        "runtime.cache_misses": float(cloud.get("cache_misses", 0)),
        "runtime.worker_peak_rss_mb": cloud.get("worker_peak_rss_mb", 0.0),
    }
    for stage in STAGES:
        m[f"orchestration.stage_s.{stage}"] = counters.get(
            f"orchestration.stage_s.{stage}", 0.0
        )
    m["orchestration.graph_overhead_s"] = total("orchestration.graph") - counters.get(
        "orchestration.stage_sum_s", 0.0
    )
    nmi, smallest = workload.cluster_quality()
    m.update(
        {
            "clustering.assign_ms": p50_ms("clustering.assign"),
            "clustering.gc_s": counters.get("orchestration.stage_s.global_clustering", 0.0),
            "clustering.stream_self_s": self_time.get("clustering.stream_fit", 0.0),
            "clustering.nmi": nmi,
            "clustering.min_cluster_frac": smallest,
        }
    )
    scored = sum(
        r["report"].score.num_subjects
        for r in traced_units
        if hasattr(r.get("report"), "score")
    )
    generated = sum(
        1 for span in tracer.spans[tracer.body_start :] if span[0] == "scenarios.generate"
    )
    m.update(
        {
            "scenarios.generate_s": self_time.get("scenarios.generate", 0.0),
            "scenarios.regen_ratio": generated / scored if scored else 0.0,
            "resilience.screen_s": total("resilience.screen"),
            "resilience.imputed_features": counters.get("resilience.imputed_features", 0.0),
            "core.pretrain_s": counters.get("orchestration.stage_s.cluster_models", 0.0),
            "core.fine_tune_ms": p50_ms("core.fine_tune"),
            "nn.forward_many_ms": p50_ms("nn.forward_many"),
            "nn.useful_row_frac": (
                counters["nn.rows"] / counters["nn.computed_rows"]
                if counters.get("nn.computed_rows")
                else 0.0
            ),
        }
    )
    services = [r["service"] for r in traced_units if "service" in r]
    services += getattr(workload, "services", [])
    decisions = sum(len(s.results) for s in services)
    batch_weighted = sum(sum(r.batch_size for r in s.results) for s in services)
    hits = sum(s.registry.stats.hits for s in services)
    misses = sum(s.registry.stats.misses for s in services)
    shed = sum(
        sum(1 for r in s.results if r.health.used_fallback_model) for s in services
    )
    rejected = sum(s.admission.rejected for s in services)
    m.update(
        {
            "serving.mean_batch_size": batch_weighted / decisions if decisions else 0.0,
            "serving.registry_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serving.evictions": float(sum(s.registry.stats.evictions for s in services)),
            "serving.rehydrations": float(
                sum(s.registry.stats.rehydrations for s in services)
            ),
            "serving.model_for_ms": p50_ms("serving.model_for"),
            "serving.pump_self_s": self_time.get("serving.pump", 0.0),
            "serving.shed_frac": shed / decisions if decisions else 0.0,
            "serving.rejected": float(rejected),
            "datasets.simulate_s": total("datasets.simulate"),
            "import_s": import_s,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return m
