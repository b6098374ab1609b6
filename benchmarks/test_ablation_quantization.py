"""Ablation: numeric schemes and their interaction with pruning.

Aggregates quantized evaluation over every edge fold's full test pool
(more samples than the per-platform Table II rows) to expose the
int8-vs-fp16 penalty statistically, then combines pruning with int8 —
the full compression stack for a shipped checkpoint.
"""

import numpy as np

from repro.edge import QuantizedModel
from repro.edge.pruning import measure_sparsity, prune_trained
from repro.signals.feature_map import maps_to_arrays


def _prepare(fold):
    normalizer = fold.checkpoint.normalizer
    x_test, y_test = maps_to_arrays(normalizer.transform_all(fold.test_maps))
    x_cal, _ = maps_to_arrays(normalizer.transform_all(fold.calibration_maps))
    return x_test, y_test, x_cal


def test_ablation_quantization_schemes(edge_folds, benchmark):
    def run():
        distortions = {"fp16": [], "int8": []}
        accuracies = {"fp32": [], "fp16": [], "int8": []}
        agreement = {"fp16": [], "int8": []}  # prediction match vs fp32
        for fold in edge_folds:
            x_test, y_test, x_cal = _prepare(fold)
            float_preds = fold.checkpoint.model.predict_classes(x_test)
            accuracies["fp32"].append(np.mean(float_preds == y_test))
            for scheme in ("fp16", "int8"):
                q = QuantizedModel(
                    fold.checkpoint.model,
                    scheme=scheme,
                    calibration_x=x_cal if scheme == "int8" else None,
                )
                preds = q.predict_classes(x_test)
                accuracies[scheme].append(np.mean(preds == y_test))
                agreement[scheme].append(np.mean(preds == float_preds))
                distortions[scheme].append(q.weight_error(fold.checkpoint.model))

        lines = ["Ablation -- numeric schemes (aggregated over folds)"]
        lines.append(
            f"{'scheme':>7}{'accuracy':>10}{'agree w/ fp32':>15}"
            f"{'weight distortion':>19}"
        )
        for scheme in ("fp32", "fp16", "int8"):
            acc = np.mean(accuracies[scheme]) * 100
            agree = (
                np.mean(agreement[scheme]) * 100 if scheme in agreement else 100.0
            )
            dist = np.mean(distortions[scheme]) if scheme in distortions else 0.0
            lines.append(f"{scheme:>7}{acc:>10.2f}{agree:>15.2f}{dist:>19.4f}")
        return "\n".join(lines), accuracies, agreement, distortions

    text, accuracies, agreement, distortions = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print("\n" + text)

    # The distortion mechanism: int8 perturbs weights far more than fp16.
    assert np.mean(distortions["int8"]) > 10 * np.mean(distortions["fp16"])
    # fp16 is effectively transparent: near-total prediction agreement.
    assert np.mean(agreement["fp16"]) > 0.95
    # int8 flips more predictions than fp16 (the Table II penalty source).
    assert np.mean(agreement["int8"]) <= np.mean(agreement["fp16"]) + 1e-9


def test_ablation_prune_plus_int8(edge_folds, benchmark):
    """The full compression stack: 50 % sparsity + int8 weights."""
    fold = edge_folds[0]

    def run():
        x_test, y_test, x_cal = _prepare(fold)
        dense_acc = np.mean(
            fold.checkpoint.model.predict_classes(x_test) == y_test
        )
        pruned = prune_trained(fold.checkpoint, 0.5)
        pruned_acc = np.mean(pruned.model.predict_classes(x_test) == y_test)
        stacked = QuantizedModel(pruned.model, scheme="int8", calibration_x=x_cal)
        stacked_acc = np.mean(stacked.predict_classes(x_test) == y_test)
        report = measure_sparsity(pruned.model)
        dense_kib = report.params_total * 4 / 1024
        stacked_kib = report.compressed_bytes(1) / 1024
        text = (
            "Ablation -- compression stack (prune 50% then int8)\n"
            f"  dense fp32:        acc {dense_acc * 100:6.2f}  {dense_kib:7.1f} KiB\n"
            f"  pruned fp32:       acc {pruned_acc * 100:6.2f}\n"
            f"  pruned + int8:     acc {stacked_acc * 100:6.2f}  {stacked_kib:7.1f} KiB"
            f"  ({dense_kib / stacked_kib:.0f}x smaller)"
        )
        return text, dense_acc, stacked_acc, dense_kib, stacked_kib

    text, dense_acc, stacked_acc, dense_kib, stacked_kib = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print("\n" + text)
    assert stacked_kib < 0.2 * dense_kib  # 8x via dtype, 2x via sparsity
    assert stacked_acc >= dense_acc - 0.35
