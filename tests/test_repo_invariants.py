"""Tier-1 gate: the shipped tree satisfies its own static invariants.

Runs the analyzer (``repro check-determinism``) over ``src/repro`` and
requires zero findings, so any future PR that introduces untracked
randomness, mutable defaults, bare excepts, exact float comparisons or
impure stages fails pytest before review.  Also pins the pre-flight
contract: the paper architecture must always validate statically.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import validate_architecture
from repro.analysis.rules import RULES

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_src_tree_exists():
    assert SRC.is_dir(), f"expected source tree at {SRC}"


def test_lint_clean_over_src(src_analysis):
    # The per-file rules report nothing over src/repro, and exactly what
    # the line-regex suppression of the retired per-file linter left.
    from tests.analysis.test_lint import PER_FILE_CODES, line_suppressed_findings

    findings = [f for f in src_analysis.findings if f.code in PER_FILE_CODES]
    formatted = "\n".join(f.format_text() for f in findings)
    assert not findings, f"repo invariants violated:\n{formatted}"
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert line_suppressed_findings(source, str(path)) == [], path


def test_all_rules_enabled_by_default():
    # The zero-findings gate below is only meaningful if no rule was
    # silently dropped from the table.  These rows run per file.
    assert {code for code, rule in RULES.items() if rule.check} == {
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


def test_determinism_analyzer_clean_over_src(src_analysis):
    # The analyzer (per-file rules, seed-flow, Stage purity,
    # cross-process hazards, suppression hygiene) reports nothing over
    # src/repro.  A deliberate keep is a `# repro: noqa[CODE]` comment.
    result = src_analysis
    formatted = "\n".join(f.format_text() for f in result.findings)
    assert not result.findings, f"determinism analysis failed:\n{formatted}"
    assert not result.errors, f"unanalyzable files: {result.errors}"


def test_dataflow_rule_catalog_complete():
    # The rows the whole-repo passes report (and the syntax error).
    assert {code for code, rule in RULES.items() if not rule.check} == {
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


def test_analyzer_cli_runs_without_runtime_warning():
    # The command CI runs; -W error turns a runpy RuntimeWarning (a
    # module of the package imported before it runs) into exit 1.
    proc = _run_python(
        "-W",
        "error::RuntimeWarning",
        "-m",
        "repro.cli",
        "check-determinism",
        str(SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean: 0 findings" in proc.stdout
    # There is one analyzer: the retired lint entry point is gone.
    assert _run_python("-m", "repro.analysis.lint", str(SRC)).returncode != 0


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
