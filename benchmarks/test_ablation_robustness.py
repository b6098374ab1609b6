"""Ablations: signal-artifact robustness and the GC algorithm choice.

Wearable deployments see corrupted signals; this bench measures how
classification degrades with artifact severity and how much a quality
gate recovers.  A second bench swaps the GC clustering algorithm
(k-means refinement vs scipy's agglomerative Ward and average
linkage) and compares archetype purity — a design choice DESIGN.md
calls out.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage

from repro.clustering import GlobalClustering, StandardScaler, subject_matrix
from repro.signals import (
    FeatureExtractor,
    SensorRates,
    assess_quality,
    inject_dropout,
    inject_motion_spikes,
)
from repro.scenarios import WEMACScenario
from repro.signals.feature_map import build_feature_map

from conftest import bench_dataset_config


@pytest.fixture(scope="module")
def subject_and_model(bench_dataset, bench_config):
    """A trained cluster model + a held-out subject's draw to corrupt."""
    from repro.core import train_on_maps

    maps_by = {s.subject_id: list(s.maps) for s in bench_dataset.subjects}
    gc = GlobalClustering(k=bench_config.num_clusters, seed=0).fit(maps_by)
    largest = int(np.argmax(gc.cluster_sizes()))
    members = gc.members(largest)
    test_subject = members[0]
    train_maps = [m for sid in members[1:] for m in maps_by[sid]]
    model = train_on_maps(
        train_maps, bench_config.model, bench_config.training, seed=0
    )
    draw = WEMACScenario.draw_subject(
        WEMACScenario(bench_dataset_config()).build_config(), test_subject
    )
    return model, draw


def _corrupted_maps(draw, dataset_cfg, severity, rng):
    """Re-simulate the subject's trials with artifact injection."""
    from repro.datasets import PhysiologicalSimulator

    sim = PhysiologicalSimulator(
        dataset_cfg.fs_bvp, dataset_cfg.fs_gsr, dataset_cfg.fs_skt
    )
    fe = FeatureExtractor(
        rates=SensorRates(
            bvp=dataset_cfg.fs_bvp, gsr=dataset_cfg.fs_gsr, skt=dataset_cfg.fs_skt
        ),
        window_seconds=dataset_cfg.window_seconds,
    )
    maps = []
    qualities = []
    for trial in draw.schedule.trials:
        raw = sim.simulate_trial(draw.profile, trial.label, trial.duration_seconds, rng)
        bvp = raw["bvp"]
        if severity > 0:
            bvp = inject_motion_spikes(
                bvp, rng, rate_per_minute=20.0 * severity, fs=dataset_cfg.fs_bvp
            )
            bvp = inject_dropout(bvp, rng, 0.15 * severity, dataset_cfg.fs_bvp)
        qualities.append(assess_quality(bvp).overall)
        vectors = fe.extract_recording(bvp, raw["gsr"], raw["skt"])
        maps.append(
            build_feature_map(
                vectors[: dataset_cfg.windows_per_map],
                label=trial.label,
                subject_id=draw.profile.subject_id,
            )
        )
    return maps, qualities


def test_ablation_artifact_robustness(subject_and_model, benchmark):
    model, draw = subject_and_model
    cfg = bench_dataset_config()

    def run():
        rng = np.random.default_rng(0)
        lines = ["Ablation -- accuracy vs signal-artifact severity"]
        lines.append(f"{'severity':>9}{'mean quality':>14}{'accuracy':>10}")
        series = {}
        for severity in (0.0, 0.5, 1.0, 2.0):
            maps, qualities = _corrupted_maps(draw, cfg, severity, rng)
            acc = model.evaluate(maps)["accuracy"]
            lines.append(
                f"{severity:>9.1f}{np.mean(qualities):>14.2f}{acc * 100:>10.2f}"
            )
            series[severity] = (acc, float(np.mean(qualities)))
        return "\n".join(lines), series

    text, series = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)

    # Quality index must fall monotonically with severity.
    qualities = [series[s][1] for s in sorted(series)]
    assert all(a >= b - 0.05 for a, b in zip(qualities, qualities[1:]))
    # The pipeline must never crash and should retain better-than-random
    # behaviour at mild severity.
    assert series[0.5][0] >= 0.3


def _maps_with_channel_dropout(draw, dataset_cfg, channel, rate, rng):
    """Re-simulate the subject's trials with one channel partially dropped."""
    from repro.datasets import PhysiologicalSimulator
    from repro.resilience.faults import ChannelDropout, FaultPlan

    sim = PhysiologicalSimulator(
        dataset_cfg.fs_bvp, dataset_cfg.fs_gsr, dataset_cfg.fs_skt
    )
    fs = {
        "bvp": dataset_cfg.fs_bvp,
        "gsr": dataset_cfg.fs_gsr,
        "skt": dataset_cfg.fs_skt,
    }
    fe = FeatureExtractor(
        rates=SensorRates(bvp=fs["bvp"], gsr=fs["gsr"], skt=fs["skt"]),
        window_seconds=dataset_cfg.window_seconds,
    )
    plan = FaultPlan(
        f"sweep_{channel}_{rate}",
        (ChannelDropout(channel, fraction=rate),) if rate > 0 else (),
        seed=0,
    )
    maps = []
    for trial in draw.schedule.trials:
        raw = sim.simulate_trial(
            draw.profile, trial.label, trial.duration_seconds, rng
        )
        corrupted = plan.apply_to_signals(raw, fs, rng=rng)
        vectors = fe.extract_recording(
            corrupted["bvp"], corrupted["gsr"], corrupted["skt"]
        )
        maps.append(
            build_feature_map(
                vectors[: dataset_cfg.windows_per_map],
                label=trial.label,
                subject_id=draw.profile.subject_id,
            )
        )
    return maps


def test_ablation_fault_severity_sweep(subject_and_model, benchmark):
    """Accuracy vs channel-dropout severity, per modality.

    The degradation curve behind the resilience runtime: how much
    accuracy each modality's loss costs, and that a fully-dead channel
    degrades the classifier instead of crashing it.
    """
    model, draw = subject_and_model
    cfg = bench_dataset_config()
    rates = (0.0, 0.25, 0.5, 0.75)
    channels = ("bvp", "gsr", "skt")

    def run():
        series = {}
        for channel in channels:
            rng = np.random.default_rng(1)
            for rate in rates:
                maps = _maps_with_channel_dropout(draw, cfg, channel, rate, rng)
                series[(channel, rate)] = model.evaluate(maps)["accuracy"]
        lines = ["Ablation -- accuracy vs channel-dropout severity"]
        header = f"{'channel':>9}" + "".join(f"{r:>8.2f}" for r in rates)
        lines.append(header)
        for channel in channels:
            lines.append(
                f"{channel:>9}"
                + "".join(f"{series[(channel, r)] * 100:>8.1f}" for r in rates)
            )
        return "\n".join(lines), series

    text, series = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)

    # Sweep must complete for every (modality, rate) cell without a
    # crash and yield valid accuracies.
    assert len(series) == len(rates) * len(channels)
    assert all(0.0 <= acc <= 1.0 for acc in series.values())
    # The uncorrupted column is the same stream regardless of channel.
    baseline = {series[(c, 0.0)] for c in channels}
    assert len(baseline) == 1
    assert baseline.pop() >= 0.5


def test_ablation_gc_algorithm(bench_dataset, benchmark):
    """k-means GC refinement vs agglomerative Ward on archetype purity."""
    maps_by = {s.subject_id: list(s.maps) for s in bench_dataset.subjects}
    truth = bench_dataset.archetype_assignment()
    ordered_ids = sorted(maps_by)

    def purity(labels):
        total = 0
        for c in np.unique(labels):
            members = [truth[ordered_ids[i]] for i in np.flatnonzero(labels == c)]
            total += Counter(members).most_common(1)[0][1]
        return total / len(ordered_ids)

    def agglomerative(x, method):
        return fcluster(linkage(x, method), 4, "maxclust")

    def run():
        signatures = StandardScaler().fit_transform(subject_matrix(maps_by))
        gc = GlobalClustering(k=4, seed=0).fit(maps_by)
        km_labels = np.array([gc.assignments[sid] for sid in ordered_ids])
        results = {
            "kmeans+refinement": purity(km_labels),
            "agglomerative/ward": purity(agglomerative(signatures, "ward")),
            "agglomerative/avg": purity(agglomerative(signatures, "average")),
        }
        lines = ["Ablation -- GC clustering algorithm (archetype purity)"]
        for name, value in results.items():
            lines.append(f"  {name:<22} {value:.2f}")
        return "\n".join(lines), results

    text, results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)
    assert all(v >= 0.5 for v in results.values())
