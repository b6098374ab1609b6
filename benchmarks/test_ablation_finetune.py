"""Ablation: fine-tuning label budget and layer freezing.

The paper fixes 20 % labelled data for FT and fine-tunes the whole
small network on-device.  These benches sweep the label fraction and
compare frozen-feature-extractor vs full fine-tuning — the two knobs a
deployment would actually tune.
"""

from repro.core import FineTuneConfig, FoldMetrics, MetricSummary, fine_tune


def _summarize(name, values):
    summary = MetricSummary(name)
    for acc, f1 in values:
        summary.add(FoldMetrics(acc, f1))
    return summary


def test_ablation_label_fraction(edge_folds, bench_config, benchmark):
    """Accuracy after FT vs number of labelled maps from the new user."""

    def run():
        budgets = (1, 2, 4)
        rows = {}
        for budget in budgets:
            values = []
            for fold in edge_folds:
                # Fine-tune from the ORIGINAL checkpoint with a budget-
                # limited labelled set drawn from the user's test pool.
                labeled = fold.test_maps[:budget]
                eval_maps = fold.test_maps[budget:]
                if len(eval_maps) < 2:
                    continue
                tuned = fine_tune(
                    fold.checkpoint,
                    labeled,
                    bench_config.fine_tuning,
                    seed=0,
                )
                m = tuned.evaluate(eval_maps)
                values.append((m["accuracy"], m["f1"]))
            rows[budget] = _summarize(f"{budget} maps", values)
        baseline_vals = []
        for fold in edge_folds:
            m = fold.checkpoint.evaluate(fold.test_maps)
            baseline_vals.append((m["accuracy"], m["f1"]))
        rows[0] = _summarize("no FT", baseline_vals)
        lines = ["Ablation -- labelled maps used for fine-tuning"]
        lines.append(f"{'budget':>8}{'accuracy':>10}{'std':>8}")
        for budget in sorted(rows):
            s = rows[budget]
            lines.append(
                f"{budget:>8}{s.accuracy_mean:>10.2f}{s.accuracy_std:>8.2f}"
            )
        return "\n".join(lines), rows

    text, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)
    # Some budget of labels should beat no fine-tuning at all.
    best = max(s.accuracy_mean for b, s in rows.items() if b > 0)
    assert best >= rows[0].accuracy_mean - 5.0


def test_ablation_freeze_vs_full(edge_folds, benchmark):
    """Frozen conv feature extractor vs fine-tuning everything."""

    def run():
        frozen_vals, full_vals = [], []
        for fold in edge_folds:
            labeled = fold.test_maps[:2]
            eval_maps = fold.test_maps[2:]
            if len(eval_maps) < 2:
                continue
            frozen = fine_tune(
                fold.checkpoint,
                labeled,
                FineTuneConfig(epochs=8, freeze_feature_extractor=True),
                seed=0,
            )
            full = fine_tune(
                fold.checkpoint,
                labeled,
                FineTuneConfig(epochs=8, freeze_feature_extractor=False),
                seed=0,
            )
            frozen_vals.append(
                (frozen.evaluate(eval_maps)["accuracy"],
                 frozen.evaluate(eval_maps)["f1"])
            )
            full_vals.append(
                (full.evaluate(eval_maps)["accuracy"],
                 full.evaluate(eval_maps)["f1"])
            )
        frozen_s = _summarize("frozen", frozen_vals)
        full_s = _summarize("full", full_vals)
        text = (
            "Ablation -- layer freezing during on-device FT\n"
            f"  frozen conv: acc {frozen_s.accuracy_mean:.2f} "
            f"+- {frozen_s.accuracy_std:.2f}\n"
            f"  full FT:     acc {full_s.accuracy_mean:.2f} "
            f"+- {full_s.accuracy_std:.2f}"
        )
        return text, frozen_s, full_s

    text, frozen_s, full_s = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + text)
    # Freezing must stay competitive (it's what makes edge FT feasible).
    assert frozen_s.accuracy_mean >= full_s.accuracy_mean - 15.0
