"""Ablation: the recurrent cell of the Fig. 2 architecture.

The paper motivates the CNN-LSTM by the LSTM's ability to integrate
sequential context.  This bench swaps the recurrent cell (LSTM / GRU /
plain RNN / none-at-all via a flat dense head is approximated by the
RNN row) and retrains on one cluster to quantify the choice.
"""

import dataclasses

import numpy as np
import pytest

from repro.clustering import GlobalClustering
from repro.core import build_cnn_lstm, train_on_maps
from repro.edge import profile_model


@pytest.fixture(scope="module")
def cluster_split(bench_dataset, bench_config):
    """Train/test maps from the largest cluster (subject-disjoint)."""
    maps_by = {s.subject_id: list(s.maps) for s in bench_dataset.subjects}
    gc = GlobalClustering(k=bench_config.num_clusters, seed=0).fit(maps_by)
    largest = int(np.argmax(gc.cluster_sizes()))
    members = gc.members(largest)
    test_subjects = members[: max(1, len(members) // 4)]
    train_maps = [
        m for sid in members if sid not in test_subjects for m in maps_by[sid]
    ]
    test_maps = [m for sid in test_subjects for m in maps_by[sid]]
    return train_maps, test_maps


def test_ablation_recurrent_cell(cluster_split, bench_config, benchmark):
    train_maps, test_maps = cluster_split

    def run():
        lines = ["Ablation -- recurrent cell / read-out in the Fig. 2 architecture"]
        lines.append(
            f"{'variant':>10}{'params':>10}{'MACs':>12}{'accuracy':>10}{'f1':>8}"
        )
        results = {}
        variants = {
            "lstm": {"recurrent_cell": "lstm"},
            "gru": {"recurrent_cell": "gru"},
            "rnn": {"recurrent_cell": "rnn"},
            "lstm+attn": {"recurrent_cell": "lstm", "attention_readout": True},
        }
        for name, overrides in variants.items():
            model_cfg = dataclasses.replace(bench_config.model, **overrides)
            trained = train_on_maps(
                train_maps, model_cfg, bench_config.training, seed=0
            )
            metrics = trained.evaluate(test_maps)
            input_shape = (1, train_maps[0].num_features, train_maps[0].num_windows)
            profile = profile_model(build_cnn_lstm(input_shape, model_cfg), input_shape)
            lines.append(
                f"{name:>10}{profile.total_params:>10,}{profile.total_macs:>12,}"
                f"{metrics['accuracy'] * 100:>10.2f}{metrics['f1'] * 100:>8.2f}"
            )
            results[name] = (metrics["accuracy"], profile.total_params)
        return "\n".join(lines), results

    text, results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)

    # Gated cells (LSTM/GRU) should not lose badly to the plain RNN,
    # and the GRU must be smaller than the LSTM.
    gated_best = max(results["lstm"][0], results["gru"][0])
    assert gated_best >= results["rnn"][0] - 0.15
    assert results["gru"][1] < results["lstm"][1]
