"""Ablation: pseudo-label (zero-label) personalization vs supervised FT.

Extension of the paper's future-work direction ("reduce the need for
labelled data"): compares the cluster checkpoint as-is, pseudo-label
fine-tuning (no labels from the user), and supervised fine-tuning
(20 % labels, the paper's protocol) on the same LOSO folds.
"""

from repro.core import (
    FoldMetrics,
    MetricSummary,
    PseudoLabelConfig,
    pseudo_label_fine_tune,
)


def test_ablation_pseudo_labels(edge_folds, bench_config, benchmark):
    def run():
        no_ft = MetricSummary("no FT")
        pseudo = MetricSummary("pseudo-label FT (0 labels)")
        supervised = MetricSummary("supervised FT (20% labels)")
        selected_counts = []
        for fold in edge_folds:
            base = fold.checkpoint.evaluate(fold.test_maps)
            no_ft.add(FoldMetrics(base["accuracy"], base["f1"], fold.subject_id))

            # Pseudo-label personalization uses the test pool WITHOUT
            # labels (they are stripped by prediction).
            tuned, report = pseudo_label_fine_tune(
                fold.checkpoint,
                fold.test_maps,
                config=PseudoLabelConfig(fine_tuning=bench_config.fine_tuning),
                seed=0,
            )
            selected_counts.append(report.num_selected)
            m = tuned.evaluate(fold.test_maps)
            pseudo.add(FoldMetrics(m["accuracy"], m["f1"], fold.subject_id))

            sup = fold.tuned.evaluate(fold.test_maps)
            supervised.add(FoldMetrics(sup["accuracy"], sup["f1"], fold.subject_id))

        lines = ["Ablation -- zero-label pseudo-label FT vs supervised FT"]
        for summary in (no_ft, pseudo, supervised):
            lines.append(
                f"  {summary.name:<28} acc {summary.accuracy_mean:6.2f} "
                f"+- {summary.accuracy_std:.2f}"
            )
        lines.append(
            f"  pseudo-labels selected per fold: {selected_counts}"
        )
        return "\n".join(lines), no_ft, pseudo, supervised

    text, no_ft, pseudo, supervised = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print("\n" + text)

    # Pseudo-labeling must not catastrophically hurt, and real labels
    # should be at least as good as zero labels.
    assert pseudo.accuracy_mean >= no_ft.accuracy_mean - 10.0
    assert supervised.accuracy_mean >= pseudo.accuracy_mean - 10.0
