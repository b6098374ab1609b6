#!/usr/bin/env python
"""Quickstart: the full CLEAR story in one script.

1. Generate a synthetic WEMAC-like corpus (virtual volunteers drawn
   from physiological archetypes).
2. Fit the CLEAR cloud stage: global clustering + one CNN-LSTM per
   cluster.
3. Cold-start a brand-new user from a small slice of *unlabeled* data.
4. Fine-tune the assigned cluster checkpoint with a few labelled maps.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import CLEAR, CLEARConfig
from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== CLEAR quickstart ===\n")

    # -- 1. Data ---------------------------------------------------------
    print("Generating synthetic WEMAC corpus (16 volunteers)...")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    print(f"  corpus: {dataset.summary()}\n")

    # Hold one volunteer out to play the role of the new user.
    new_user = dataset.subjects[-1]
    population = {
        s.subject_id: list(s.maps)
        for s in dataset.subjects
        if s.subject_id != new_user.subject_id
    }

    # -- 2. Cloud stage ----------------------------------------------------
    print("Fitting CLEAR cloud stage (GC + per-cluster CNN-LSTM)...")
    system = CLEAR(CLEARConfig.fast(seed=0)).fit(population)
    print(f"  cluster sizes: {system.cluster_sizes()}")
    for cluster, model in system.cluster_models.items():
        members = system.gc.members(cluster)
        maps = [m for sid in members for m in population[sid]]
        acc = model.evaluate(maps)["accuracy"]
        print(f"  cluster {cluster}: {len(members)} users, train acc {acc:.2%}")
    print()

    # -- 3. Cold start ------------------------------------------------------
    # The new user provides ~10 % of their data, with NO labels.
    ca_maps = new_user.maps[:1]
    assignment = system.assign_new_user(ca_maps)
    print(
        f"Cold-start assignment for new user {new_user.subject_id}: "
        f"cluster {assignment.cluster} (margin {assignment.margin():.3f})"
    )
    rest = new_user.maps[1:]
    wo_ft = system.model_for(assignment.cluster).evaluate(rest)
    print(f"  accuracy without fine-tuning: {wo_ft['accuracy']:.2%}\n")

    # -- 4. Fine-tuning -----------------------------------------------------
    # ~20 % labelled data, stratified so both classes are represented.
    from repro.datasets import split_maps_by_fraction

    ft_maps, test_maps = split_maps_by_fraction(
        rest, 0.25, np.random.default_rng(0), stratified=True
    )
    print(f"Fine-tuning with {len(ft_maps)} labelled maps...")
    baseline = system.model_for(assignment.cluster).evaluate(test_maps)
    personalized = system.personalize(ft_maps, cluster=assignment.cluster)
    w_ft = personalized.evaluate(test_maps)
    print(f"  accuracy before fine-tuning:  {baseline['accuracy']:.2%}")
    print(f"  accuracy after fine-tuning:   {w_ft['accuracy']:.2%}")
    print(f"  F1 after fine-tuning:         {w_ft['f1']:.2%}")
    print("\nDone: cold-start solved without labels; personalization with a")
    print("handful of labelled maps improved the cluster checkpoint.")


if __name__ == "__main__":
    main()
