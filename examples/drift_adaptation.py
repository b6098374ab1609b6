#!/usr/bin/env python
"""Adaptive re-assignment when a user's physiology drifts.

A deployed user starts in the cluster their cold-start assignment
picked.  Months later their physiology has changed (new medication,
fitness change, chronic stress) and another cluster fits better.  The
drift monitor notices from *unlabeled* data alone and recommends a
re-assignment — the adaptive-deep-learning loop the paper motivates.

The drift is simulated by switching the monitored data stream from one
volunteer to another volunteer of a different archetype.

Run:  python examples/drift_adaptation.py
"""

import numpy as np

from repro import viz
from repro.core import CLEAR, CLEARConfig, DriftDetector
from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== Drift detection and adaptive re-assignment ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    maps_by = {s.subject_id: list(s.maps) for s in dataset.subjects}
    system = CLEAR(CLEARConfig.fast(seed=0)).fit(maps_by)

    # Two volunteers from different clusters play "before" and "after".
    sizes = system.gc.cluster_sizes()
    ordered = np.argsort(sizes)[::-1]
    home_cluster, away_cluster = int(ordered[0]), int(ordered[1])
    home_user = system.gc.members(home_cluster)[0]
    away_user = system.gc.members(away_cluster)[0]
    print(
        f"user starts in cluster {home_cluster} "
        f"(their own data: subject {home_user});"
    )
    print(
        f"after the 'life change' their physiology looks like subject "
        f"{away_user} (cluster {away_cluster})\n"
    )

    detector = DriftDetector(
        system.assigner, home_cluster, window_maps=4, patience=2
    )

    stream = maps_by[home_user][:8] + maps_by[away_user][:8]
    print(f"{'check':>6}{'assigned score':>16}{'best other':>12}{'drift?':>8}")
    for i in range(0, len(stream), 2):
        obs = detector.update(stream[i : i + 2])
        if obs is None:
            continue
        print(
            f"{obs.check_index:>6}{obs.assigned_score:>16.3f}"
            f"{obs.best_other_score:>12.3f}{'YES' if obs.drifted else 'no':>8}"
        )
        if detector.reassignment_recommended:
            target = detector.recommended_cluster()
            print(
                f"\n-> sustained drift: re-assigning from cluster "
                f"{detector.assigned_cluster} to cluster {target}"
            )
            detector.reset(new_cluster=target)

    final = detector.assigned_cluster
    print(f"\nfinal cluster: {final} (expected {away_cluster})")

    # Show the final CA score profile.
    result = system.assigner.assign(stream[-4:])
    print("\nfinal cold-start score profile (lower = better fit):")
    print(viz.assignment_scores(result.scores))


if __name__ == "__main__":
    main()
