"""Tier-1 gate: the shipped tree satisfies its own static invariants.

Runs the repo-invariant lint engine over ``src/repro`` and requires zero
findings, so any future PR that introduces untracked randomness, mutable
defaults, bare excepts, or exact float comparisons fails pytest before
review.  Also pins the pre-flight contract: the paper architecture must
always validate statically.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import validate_architecture
from repro.analysis.lint import RULES, lint_paths

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_src_tree_exists():
    assert SRC.is_dir(), f"expected source tree at {SRC}"


def test_lint_clean_over_src():
    findings = lint_paths([SRC])
    formatted = "\n".join(f.format_text() for f in findings)
    assert not findings, f"repo invariants violated:\n{formatted}"


def test_all_rules_enabled_by_default():
    # The zero-findings gate above is only meaningful if no rule was
    # silently dropped from the registry.
    assert set(RULES) == {
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
        "RPR006",
        "RPR007",
        "RPR008",
        "RPR009",
        "RPR018",
        "RPR019",
        "RPR020",
        "RPR021",
    }


def test_determinism_analyzer_clean_over_src():
    # Tier-2 gate: the whole-repo dataflow analyzer (seed-flow, Stage
    # purity, cross-process hazards, suppression hygiene) must report
    # nothing over src/repro beyond the committed baseline — which is
    # empty, so in practice: nothing at all.
    from repro.analysis.dataflow import (
        analyze_paths,
        apply_baseline,
        load_baseline,
    )

    baseline_path = SRC.parent.parent / "check_determinism_baseline.json"
    assert baseline_path.is_file(), f"missing baseline at {baseline_path}"
    baseline = load_baseline(baseline_path)
    assert baseline == set(), "the committed baseline must stay empty"
    result = apply_baseline(analyze_paths([SRC]), baseline)
    formatted = "\n".join(f.format_text() for f in result.findings)
    assert not result.findings, f"determinism analysis failed:\n{formatted}"
    assert not result.errors, f"unanalyzable files: {result.errors}"


def test_dataflow_rule_catalog_complete():
    from repro.analysis.dataflow import DATAFLOW_RULES

    assert set(DATAFLOW_RULES) == {
        "RPR010",
        "RPR011",
        "RPR012",
        "RPR013",
        "RPR014",
        "RPR015",
        "RPR016",
        "RPR017",
        "RPR900",
    }


def test_paper_architecture_always_validates():
    report = validate_architecture((1, 8, 20))
    assert report.output_shape == (2,)
    assert report.total_params > 0


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_lint_module_runs_without_runtime_warning():
    # An eager import of repro.analysis.lint during package import makes
    # runpy warn under `python -m`; -W error turns that into exit 1.
    proc = _run_python(
        "-W", "error::RuntimeWarning", "-m", "repro.analysis.lint", str(SRC)
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean: 0 findings" in proc.stdout


def test_scenarios_import_leaves_dataflow_engine_unloaded():
    # repro.scenarios needs only shapeflow.ArtifactSpec; the analyzer
    # engine (and the lint module it imports) must stay unloaded.
    proc = _run_python(
        "-c",
        "import sys, repro.scenarios; "
        "print(sorted(m for m in ('repro.analysis.dataflow.engine', "
        "'repro.analysis.lint') if m in sys.modules))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
