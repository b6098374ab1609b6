"""Table I: CLEAR validation on the (synthetic) WEMAC fear task.

Regenerates every measured row of the paper's Table I — General Model,
RT CL, CL validation, RT CLEAR, CLEAR w/o FT, CLEAR w FT — and prints
them next to the paper's values.  Absolute numbers differ (synthetic
corpus, reduced scale); the assertions pin the *orderings* the paper's
conclusions rest on.
"""

import pytest

from repro.core import (
    PAPER_TABLE1_REFERENCES,
    PAPER_TABLE1_RESULTS,
    cl_validation,
    evaluate_general_model,
    render_table,
)
from conftest import BENCH_FOLDS


@pytest.fixture(scope="module")
def table1(bench_dataset, bench_config, bench_clear):
    general = evaluate_general_model(
        bench_dataset,
        bench_config,
        group_size=max(2, bench_dataset.num_subjects // bench_config.num_clusters),
        max_folds=BENCH_FOLDS,
    )
    cl = cl_validation(bench_dataset, bench_config, max_folds=2 * BENCH_FOLDS)
    return general, cl, bench_clear


def test_table1_rows(table1, benchmark):
    """Print the full Table I reproduction (timing: table assembly)."""
    general, cl, clear = table1

    def assemble():
        rows = [
            general,
            cl.rt_cl,
            cl.cl,
            clear.rt_clear,
            clear.without_ft,
            clear.with_ft,
        ]
        return render_table(
            rows,
            title=(
                "Table I -- fear / non-fear on synthetic WEMAC "
                "(paper values right)"
            ),
            paper_rows={**PAPER_TABLE1_RESULTS, **PAPER_TABLE1_REFERENCES},
        )

    text = benchmark.pedantic(assemble, rounds=1, iterations=1)
    print("\n" + text)
    print(f"\ncluster sizes: {cl.cluster_sizes}  (paper: 17/13/7/7)")
    matches = sum(clear.assignment_matches_gc.values())
    print(
        f"cold-start assignments matching GC reference: "
        f"{matches}/{len(clear.assignment_matches_gc)}"
    )

    # The paper's Table I orderings must survive the reproduction.
    # 1. Clustering beats the no-clustering General model.
    assert cl.cl.accuracy_mean > general.accuracy_mean
    # 2. RT CL collapses: cluster models do not transfer across clusters.
    assert cl.rt_cl.accuracy_mean < cl.cl.accuracy_mean - 5.0
    # 3. Cold-start CLEAR w/o FT clearly beats the robustness test.
    assert clear.without_ft.accuracy_mean > cl.rt_cl.accuracy_mean
    assert clear.rt_clear.accuracy_mean < clear.without_ft.accuracy_mean
    # 4. The headline: fine-tuning with 20 % labels lifts accuracy
    #    (paper: 80.63 -> 86.34).
    assert clear.with_ft.accuracy_mean > clear.without_ft.accuracy_mean
    print("all Table I orderings hold")
