"""Ablation: checkpoint compression by magnitude pruning.

Sweeps unstructured sparsity on a deployed cluster checkpoint and
reports the accuracy/size trade — the compression axis beyond the
paper's int8 quantization.
"""

from repro.edge.pruning import measure_sparsity, prune_trained, sparsity_sweep


def test_ablation_pruning_sweep(edge_folds, benchmark):
    fold = edge_folds[0]

    def run():
        rows = sparsity_sweep(
            fold.checkpoint,
            fold.test_maps,
            sparsities=(0.0, 0.25, 0.5, 0.75, 0.9),
        )
        lines = ["Ablation -- magnitude pruning of a cluster checkpoint"]
        lines.append(
            f"{'target':>8}{'actual':>8}{'accuracy':>10}{'weights kept':>14}"
        )
        for row in rows:
            kept = 1.0 - row["actual_sparsity"]
            lines.append(
                f"{row['target_sparsity']:>8.2f}{row['actual_sparsity']:>8.2f}"
                f"{row['accuracy'] * 100:>10.2f}{kept:>13.0%}"
            )
        return "\n".join(lines), rows

    text, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)

    dense_acc = rows[0]["accuracy"]
    mild = next(r for r in rows if r["target_sparsity"] == 0.25)
    # A quarter of the weights can go with minor damage.
    assert mild["accuracy"] >= dense_acc - 0.2
    # Compression accounting is consistent.
    pruned = prune_trained(fold.checkpoint, 0.9)
    report = measure_sparsity(pruned.model)
    assert report.compressed_bytes(1) < 0.2 * report.params_total
