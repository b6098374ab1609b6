#!/usr/bin/env python
"""Privacy-preserving pre-training with clustered federated averaging.

The paper's edge stage already preserves privacy (new users keep their
data on-device).  This example extends the guarantee to the *cloud*
stage: a cluster's model is trained by FedAvg across its member
subjects, so even the initial volunteers never upload raw physiological
data — only weight updates and pooled normalization moments.

Run:  python examples/federated_pretraining.py
"""

import numpy as np

from repro import viz
from repro.clustering import GlobalClustering
from repro.core import (
    CLEARConfig,
    FederatedConfig,
    federated_train_cluster,
    train_on_maps,
)
from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== Federated per-cluster pre-training ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    maps_by = {s.subject_id: list(s.maps) for s in dataset.subjects}
    config = CLEARConfig.fast(seed=0)

    gc = GlobalClustering(k=config.num_clusters, seed=0).fit(maps_by)
    cluster = int(np.argmax(gc.cluster_sizes()))
    members = gc.members(cluster)
    held_out = members[0]
    clients = {sid: maps_by[sid] for sid in members[1:]}
    print(
        f"cluster {cluster}: {len(clients)} federated clients, "
        f"subject {held_out} held out for evaluation\n"
    )

    # Centralized baseline: the paper's cloud stage (pools raw data).
    all_maps = [m for maps in clients.values() for m in maps]
    central = train_on_maps(all_maps, config.model, config.training, seed=0)
    central_acc = central.evaluate(maps_by[held_out])["accuracy"]

    # Federated: raw maps never leave a client.
    print("running FedAvg rounds...")
    federated, history = federated_train_cluster(
        clients,
        config.model,
        FederatedConfig(rounds=8, local_epochs=2, learning_rate=2e-3, seed=0),
    )
    fed_acc = federated.evaluate(maps_by[held_out])["accuracy"]

    print("\nmean client loss per round:")
    print("  " + viz.sparkline(history.round_losses))
    for i, loss in enumerate(history.round_losses):
        print(f"  round {i + 1}: {loss:.3f}")

    print(f"\nheld-out subject accuracy:")
    print(f"  centralized (pools raw data): {central_acc:.2%}")
    print(f"  federated   (privacy kept):   {fed_acc:.2%}")
    print("\nThe normalization statistics are pooled with the exact")
    print("pooled-moments identity, so no accuracy is lost to privacy there.")


if __name__ == "__main__":
    main()
