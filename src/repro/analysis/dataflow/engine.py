"""The analyzer: parse each file once, report every rule as one graph.

``repro check-determinism`` runs here.  Each file is read, parsed with
``ast.parse`` and tokenized exactly once — in a worker process when
``workers > 1``, which is why a :class:`FileAnalysis` is picklable and
never retains an AST.  The per-file rules of :mod:`repro.analysis.rules`
run over that tree, and the same tree is compressed into a summary.
The summaries are then linked into one
:class:`~repro.analysis.dataflow.callgraph.CallGraph` and the
interprocedural passes run over it:

* :mod:`~repro.analysis.dataflow.seedflow` — RPR015
* :mod:`~repro.analysis.dataflow.purity` — RPR010–RPR013
* :mod:`~repro.analysis.dataflow.hazards` — RPR016–RPR017

Suppression happens here, not in the rules: the engine sees every
pre-suppression finding (per-file *and* dataflow) and the tokenized
``# repro: noqa`` comments, so it knows which directives actually
fired — any directive that suppresses nothing is itself a finding
(RPR014), keeping the suppression surface honest.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..rules import RULES, Finding, check_tree
from .callgraph import CallGraph
from .hazards import analyze_hazards
from .purity import check_stage_purity
from .seedflow import analyze_seedflow
from .summaries import (
    FileAnalysis,
    NoqaDirective,
    extract_noqa_directives,
    summarize_tree,
)


@dataclass
class AnalysisResult:
    """Everything one whole-repo analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    errors: List[Tuple[str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "count": len(self.findings),
            "files": self.files,
            "suppressed": self.suppressed,
            "errors": [
                {"path": path, "error": message}
                for path, message in self.errors
            ],
        }


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files they contain."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _analyze_file(path: str) -> FileAnalysis:
    """Parse one file into its summary, per-file findings and directives.

    Module-level so it pickles into pool workers; returns only
    picklable dataclasses (never an AST).
    """
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        return FileAnalysis(path=path, summary=None, error=str(exc))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        syntax_error = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code="RPR900",
            message=f"syntax error: {exc.msg}",
        )
        return FileAnalysis(
            path=path, summary=None, findings=[syntax_error], error="syntax error"
        )
    return FileAnalysis(
        path=path,
        summary=summarize_tree(tree, path),
        findings=check_tree(tree, path),
        noqa_directives=extract_noqa_directives(source),
    )


def _suppression(
    directives: Sequence[NoqaDirective],
    candidates: Sequence[Finding],
) -> Tuple[Set[int], Set[int]]:
    """(suppressed finding indexes, used directive indexes)."""
    suppressed: Set[int] = set()
    used: Set[int] = set()
    for d_index, directive in enumerate(directives):
        for f_index, finding in enumerate(candidates):
            if finding.line != directive.line:
                continue
            if directive.codes is not None and (
                finding.code not in directive.codes
            ):
                continue
            used.add(d_index)
            suppressed.add(f_index)
    return suppressed, used


def _unused_directive(path: str, directive: NoqaDirective) -> Finding:
    codes = "all rules" if directive.codes is None else ",".join(directive.codes)
    return Finding(
        path=path,
        line=directive.line,
        col=1,
        code="RPR014",
        message=(
            f"unused suppression '# repro: noqa' ({codes}): no finding on "
            f"this line matches — remove the directive"
        ),
    )


def analyze_paths(
    paths: Iterable[Path],
    workers: Optional[int] = None,
    executor=None,
) -> AnalysisResult:
    """Run every rule over every python file in ``paths``."""
    files = [str(p) for p in iter_python_files(Path(p) for p in paths)]
    if executor is None:
        # Lazy import: keeps `import repro.analysis.dataflow` free of the
        # orchestration/runtime dependency until an analysis actually runs.
        from ...orchestration.context import executor_for_workers

        executor = executor_for_workers(workers)
    analyses: List[FileAnalysis] = executor.map(_analyze_file, files)

    result = AnalysisResult(files=len(files))
    graph = CallGraph(
        a.summary for a in analyses if a.summary is not None
    )

    by_path: Dict[str, List[Finding]] = {}
    for finding in (
        *analyze_seedflow(graph),
        *check_stage_purity(graph),
        *analyze_hazards(graph),
    ):
        by_path.setdefault(finding.path, []).append(finding)

    kept: List[Finding] = []
    for analysis in analyses:
        if analysis.error is not None:
            result.errors.append((analysis.path, analysis.error))
        # An unparseable file has no directives, so its RPR900 finding
        # always passes: the gate must not silently tolerate it.
        candidates = analysis.findings + by_path.get(analysis.path, [])
        directives = analysis.noqa_directives
        suppressed, used = _suppression(directives, candidates)
        result.suppressed += len(suppressed)
        kept.extend(f for i, f in enumerate(candidates) if i not in suppressed)
        kept.extend(
            _unused_directive(analysis.path, directive)
            for i, directive in enumerate(directives)
            if i not in used
        )

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result.findings = kept
    return result


# -- CLI ------------------------------------------------------------------

def report_text(findings: Sequence[Finding]) -> str:
    lines = [f.format_text() for f in findings]
    lines.append(
        f"{len(findings)} finding(s)" if findings else "clean: 0 findings"
    )
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro check-determinism`` options."""
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze"
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        dest="fmt",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to report (default: all)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parse files with this many processes (default: serial)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )


def run_cli(args: argparse.Namespace) -> int:
    """The ``repro check-determinism`` subcommand."""
    if args.list_rules:
        for code, rule in RULES.items():
            print(f"{code}  {rule.description}")
        return 0
    if not args.paths:
        print("error: no paths to analyze", file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    codes = None
    if args.select:
        codes = {c.strip() for c in args.select.split(",") if c.strip()}
        unknown = codes - set(RULES)
        if unknown:
            print(
                f"unknown rule code(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    result = analyze_paths(
        [Path(p) for p in args.paths], workers=args.workers
    )
    if codes is not None:
        result.findings = [f for f in result.findings if f.code in codes]

    if args.fmt == "json":
        print(json.dumps(result.to_dict(), indent=2))
    elif args.fmt == "sarif":
        from ..sarif import sarif_report

        print(sarif_report(result.findings))
    else:
        print(report_text(result.findings))
        if result.suppressed:
            print(f"({result.suppressed} suppressed via noqa)")
    return 1 if result.findings else 0
