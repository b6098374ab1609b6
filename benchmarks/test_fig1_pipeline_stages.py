"""Fig. 1: the CLEAR architecture, stage by stage, with wall-clock cost.

Fig. 1 of the paper is the two-stage system diagram (cloud CL stage,
edge cold-start + fine-tuning stage).  This bench walks one new user
through every box of that diagram and times each stage, demonstrating
the paper's asymmetry claim: the expensive work (clustering, per-
cluster pre-training) happens once on the cloud, while the edge stages
(assignment, fine-tuning) stay lightweight.
"""

import time

import numpy as np
import pytest

from repro.clustering import GlobalClustering, build_subclusters, ColdStartAssigner
from repro.core import CLEAR, fine_tune, split_new_user
from repro.core.trainer import train_on_maps


@pytest.fixture(scope="module")
def pipeline_run(bench_dataset, bench_config):
    record = bench_dataset.subjects[0]
    population = {
        s.subject_id: list(s.maps)
        for s in bench_dataset.subjects
        if s.subject_id != record.subject_id
    }
    timings = {}

    t0 = time.perf_counter()
    gc = GlobalClustering(
        k=bench_config.num_clusters,
        n_refinements=bench_config.gc_refinements,
        subsample_fraction=bench_config.gc_subsample_fraction,
        seed=bench_config.seed,
    ).fit(population)
    timings["cloud: global clustering (GC)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    subclusters = build_subclusters(
        gc, population, bench_config.subclusters_per_cluster, bench_config.seed
    )
    timings["cloud: sub-cluster hierarchy"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    models = {}
    for cluster in range(bench_config.num_clusters):
        maps = [m for sid in gc.members(cluster) for m in population[sid]]
        models[cluster] = train_on_maps(
            maps, bench_config.model, bench_config.training, seed=bench_config.seed
        )
    timings["cloud: per-cluster pre-training"] = time.perf_counter() - t0

    split = split_new_user(record.maps, bench_config, np.random.default_rng(0))
    assigner = ColdStartAssigner(gc, subclusters)
    t0 = time.perf_counter()
    assignment = assigner.assign(split.ca_maps)
    timings["edge: cold-start assignment (CA)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tuned = fine_tune(
        models[assignment.cluster],
        split.ft_maps,
        bench_config.fine_tuning,
        seed=bench_config.seed,
    )
    timings["edge: fine-tuning (FT)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    metrics = tuned.evaluate(split.test_maps)
    timings["edge: inference"] = time.perf_counter() - t0

    return timings, assignment, metrics


def test_fig1_stage_walkthrough(pipeline_run, benchmark):
    timings, assignment, metrics = pipeline_run

    def assemble():
        lines = ["Fig. 1 -- CLEAR stage walkthrough (one new user)"]
        for stage, seconds in timings.items():
            lines.append(f"  {stage:<38} {seconds * 1e3:10.1f} ms")
        lines.append(
            f"  -> assigned cluster {assignment.cluster}, "
            f"final accuracy {metrics['accuracy']:.2%}"
        )
        return "\n".join(lines)

    print("\n" + benchmark.pedantic(assemble, rounds=1, iterations=1))

    # Fig. 1's asymmetry claims: the expensive work lives on the cloud.
    cloud = timings["cloud: per-cluster pre-training"]
    for stage, seconds in timings.items():
        if stage.startswith("edge"):
            assert seconds < cloud
    # CA is distance arithmetic: milliseconds, no training.
    assert timings["edge: cold-start assignment (CA)"] < 1.0
    assert timings["edge: fine-tuning (FT)"] < cloud
    print("cloud/edge cost asymmetry holds")


def test_end_to_end_facade(bench_dataset, bench_config, benchmark):
    """The CLEAR facade must reproduce the manual stage composition."""
    record = bench_dataset.subjects[0]
    population = {
        s.subject_id: list(s.maps)
        for s in bench_dataset.subjects
        if s.subject_id != record.subject_id
    }

    def run():
        system = CLEAR(bench_config).fit(population)
        return system.assign_new_user(record.maps[:1])

    assignment = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 <= assignment.cluster < bench_config.num_clusters
