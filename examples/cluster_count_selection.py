#!/usr/bin/env python
"""Choosing K: the internal-index analysis behind the paper's K = 4.

The paper selects K = 4 clusters from a preliminary analysis balancing
intra-cluster similarity and inter-cluster separation.  This example
reruns that analysis on the synthetic corpus: silhouette,
Davies-Bouldin, Calinski-Harabasz and the inertia elbow across
candidate K, plus the resulting cluster sizes.

Run:  python examples/cluster_count_selection.py
"""

from collections import Counter

from repro.clustering import (
    GlobalClustering,
    StandardScaler,
    select_k,
    subject_matrix,
)
from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== Selecting the number of clusters K ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    maps_by = {s.subject_id: list(s.maps) for s in dataset.subjects}

    signatures = StandardScaler().fit_transform(subject_matrix(maps_by))
    report = select_k(signatures, k_min=2, k_max=7, method="silhouette")

    header = f"{'K':>3}{'inertia':>12}{'silhouette':>12}{'DB':>8}{'CH':>10}"
    print(header)
    print("-" * len(header))
    for k in report.candidates:
        print(
            f"{k:>3}{report.inertias[k]:>12.1f}{report.silhouettes[k]:>12.3f}"
            f"{report.davies_bouldin[k]:>8.3f}{report.calinski_harabasz[k]:>10.1f}"
        )
    print(f"\nselected K = {report.selected_k} (method: {report.method})")

    # Fit GC at the selected K and compare against the latent archetypes.
    gc = GlobalClustering(k=report.selected_k, seed=0).fit(maps_by)
    truth = dataset.archetype_assignment()
    print(f"cluster sizes: {gc.cluster_sizes()}")
    print("cluster composition vs latent archetypes:")
    for cluster in range(gc.k):
        members = gc.members(cluster)
        counts = Counter(truth[m] for m in members)
        breakdown = ", ".join(
            f"archetype {a}: {c}" for a, c in sorted(counts.items())
        )
        print(f"  cluster {cluster} ({len(members)} users): {breakdown}")


if __name__ == "__main__":
    main()
