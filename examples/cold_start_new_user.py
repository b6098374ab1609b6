#!/usr/bin/env python
"""Cold-start deep dive: how unsupervised cluster assignment behaves.

For every volunteer in turn (LOSO): fit CLEAR without them, then assign
them from progressively larger *unlabeled* data slices and report (a)
how often the assignment matches where GC would place them with full
data, and (b) the accuracy gap between the assigned cluster's model and
the other clusters' models (the paper's RT CLEAR contrast).

The demo ends with the degradation-aware path: when the assignment
margin is too small to trust any single cluster checkpoint,
``predict_with_health`` falls back to the population-average model and
says so in its ``HealthStatus``.

Run:  python examples/cold_start_new_user.py
"""

import numpy as np

from repro.core import CLEAR, CLEARConfig
from repro.datasets import WEMACConfig
from repro.resilience import DegradationPolicy
from repro.scenarios import WEMACScenario
from repro.signals import subject_signature


def main() -> None:
    print("=== Cold-start cluster assignment study ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    config = CLEARConfig.fast(seed=0)

    # Keep the demo quick: LOSO over the first few volunteers.
    volunteers = dataset.subjects[:4]
    slice_sizes = (1, 2, 4)
    match_counts = {n: 0 for n in slice_sizes}
    assigned_accs, foreign_accs = [], []

    for record in volunteers:
        population = {
            s.subject_id: list(s.maps)
            for s in dataset.subjects
            if s.subject_id != record.subject_id
        }
        system = CLEAR(config).fit(population)

        # Where would GC place this user given all their data?
        reference = system.gc.assign_signature(subject_signature(record.maps))

        print(f"new user {record.subject_id} (GC reference cluster {reference}):")
        for n in slice_sizes:
            result = system.assign_new_user(record.maps[:n])
            match = result.cluster == reference
            match_counts[n] += match
            scores = ", ".join(
                f"c{c}={s:.2f}" for c, s in sorted(result.scores.items())
            )
            print(
                f"  {n} unlabeled map(s): cluster {result.cluster} "
                f"({'match' if match else 'MISS'}; scores {scores})"
            )

        # Accuracy contrast: assigned cluster vs the other clusters.
        assignment = system.assign_new_user(record.maps[:1])
        test_maps = record.maps[1:]
        own = system.model_for(assignment.cluster).evaluate(test_maps)["accuracy"]
        others = [
            system.model_for(c).evaluate(test_maps)["accuracy"]
            for c in range(config.num_clusters)
            if c != assignment.cluster
        ]
        assigned_accs.append(own)
        foreign_accs.append(float(np.mean(others)))
        print(
            f"  accuracy: assigned model {own:.2%} vs "
            f"other clusters {np.mean(others):.2%}\n"
        )

    print("--- summary ---")
    for n in slice_sizes:
        print(
            f"assignment consistency with {n} map(s): "
            f"{match_counts[n]}/{len(volunteers)}"
        )
    print(
        f"mean accuracy: assigned {np.mean(assigned_accs):.2%} "
        f"vs foreign {np.mean(foreign_accs):.2%} "
        "(the RT CLEAR contrast from Table I)"
    )

    fallback_demo(system, record)


def fallback_demo(system, record) -> None:
    """Low-confidence assignment -> population-average fallback model."""
    print("\n--- degradation-aware cold start ---")
    maps = list(record.maps)

    # Normal confidence: the cluster checkpoint is trusted.
    preds, health = system.predict_with_health(maps)
    print(
        f"default policy:   state={health.state:<9} "
        f"fallback={health.used_fallback_model} "
        f"margin={health.assignment_margin:.3f}"
    )

    # Paranoid policy: demand an unattainable margin, forcing the
    # population-average fallback (nobody's best model, everybody's
    # safest) -- the HealthStatus says exactly why.
    policy = DegradationPolicy(min_assignment_margin=1e6)
    preds, health = system.predict_with_health(maps, policy=policy)
    print(
        f"paranoid policy:  state={health.state:<9} "
        f"fallback={health.used_fallback_model} "
        f"reasons={list(health.reasons)}"
    )
    print(
        f"fallback predictions still valid: "
        f"{np.bincount(preds, minlength=2)} (non-fear/fear counts)"
    )


if __name__ == "__main__":
    main()
