"""Section IV-A setup statistics: corpus shape, feature split, clusters.

The paper reports ~800 feature maps from the WEMAC corpus, 123 features
(34 GSR + 84 BVP + 5 SKT), K = 4 clusters of sizes 17/13/7/7.  This
bench regenerates those statistics for the synthetic corpus at both the
bench scale and (structurally) the paper scale.
"""

from repro.clustering import GlobalClustering
from repro.datasets import WEMACConfig
from repro.signals import (
    BVP_FEATURE_NAMES,
    GSR_FEATURE_NAMES,
    NUM_FEATURES,
    SKT_FEATURE_NAMES,
)


def test_setup_statistics(bench_dataset, bench_config, benchmark):
    def assemble():
        summary = bench_dataset.summary()
        maps_by = {s.subject_id: list(s.maps) for s in bench_dataset.subjects}
        gc = GlobalClustering(k=bench_config.num_clusters, seed=0).fit(maps_by)
        lines = ["Section IV-A -- experimental setup statistics"]
        lines.append(
            f"  volunteers: {int(summary['num_subjects'])} "
            "(paper: 44-47)"
        )
        lines.append(
            f"  feature maps: {int(summary['num_maps'])} at bench scale "
            f"({WEMACConfig().num_subjects * WEMACConfig().trials_per_subject} "
            "at paper scale; paper: ~800)"
        )
        lines.append(
            f"  features: {int(summary['num_features'])} "
            f"= {len(BVP_FEATURE_NAMES)} BVP + {len(GSR_FEATURE_NAMES)} GSR "
            f"+ {len(SKT_FEATURE_NAMES)} SKT (paper: 123 = 84 + 34 + 5)"
        )
        sizes = sorted(gc.cluster_sizes(), reverse=True)
        lines.append(
            f"  K = {bench_config.num_clusters} cluster sizes: {sizes} "
            "(paper: [17, 13, 7, 7])"
        )
        lines.append(
            f"  fear fraction: {summary['positive_fraction']:.2f} (binary task)"
        )
        return "\n".join(lines)

    print("\n" + benchmark.pedantic(assemble, rounds=1, iterations=1))

    # Setup invariants from §IV-A.
    assert NUM_FEATURES == 123
    assert len(BVP_FEATURE_NAMES) == 84
    assert len(GSR_FEATURE_NAMES) == 34
    assert len(SKT_FEATURE_NAMES) == 5
    cfg = WEMACConfig()
    assert 700 <= cfg.num_subjects * cfg.trials_per_subject <= 900
    # Cluster sizes are skewed like the paper's 17/13/7/7, not uniform.
    maps_by = {s.subject_id: list(s.maps) for s in bench_dataset.subjects}
    gc = GlobalClustering(k=bench_config.num_clusters, seed=0).fit(maps_by)
    sizes = sorted(gc.cluster_sizes(), reverse=True)
    assert sizes[0] >= 2 * sizes[-1] or sizes[0] - sizes[-1] >= 3
    for fmap in bench_dataset.all_maps()[:20]:
        assert fmap.num_features == 123
    print("setup invariants hold")
