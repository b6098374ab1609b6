"""Cross-process hazard detection (rules RPR016–RPR017).

``ParallelExecutor`` pickles the work function and every work unit into
pool processes.  Two statically-detectable ways that contract breaks:

RPR016
    The work function is not a module-level callable: a lambda, a
    function nested inside another function (a closure), or a bound
    method.  These either fail to pickle outright (spawn start method)
    or drag captured state across the fork in ways that diverge from
    the serial run.
RPR017
    Work units alias shared mutable state: a local list/dict/array is
    embedded into several units *and* mutated in the same function, so
    parallel workers see a copy diverging from the serial in-process
    aliasing semantics.

Both rules trust parameters: a function that fans out a callable it
received (``run_fold_plan``-style) delegates the obligation to its
callers, which are checked at their own call sites.  ``repro/runtime``
itself is exempt — it is the layer allowed to know about processes.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Set

from ..rules import Finding
from .callgraph import CallGraph
from .summaries import FunctionSummary


def _exempt_path(path: str) -> bool:
    parts = Path(path).parts
    return any(
        part == "repro" and index + 1 < len(parts) and parts[index + 1] == "runtime"
        for index, part in enumerate(parts)
    )


def _fn_hazard(
    graph: CallGraph, scope: FunctionSummary, fn_ref: Optional[str], fn_kind: str
) -> Optional[str]:
    """Why this work-function reference is not pool-safe, or None."""
    if fn_kind == "lambda":
        return "a lambda"
    if fn_kind == "name":
        if fn_ref in scope.params:
            return None  # caller's obligation (trust boundary)
        target = graph.resolve_local_name(scope, fn_ref)
        if target is None:
            return None
        if target.is_lambda:
            return "a lambda"
        if target.is_nested:
            return (
                "a nested function (closure)"
                if target.free_names
                else "a nested function"
            )
        return None
    if fn_kind == "attribute":
        root = (fn_ref or "").split(".")[0]
        if root in ("self", "cls"):
            return "a bound method"
        module = graph.modules.get(scope.module)
        if module is not None and root in module.imports:
            return None  # module.function — picklable
        if fn_ref and root in scope.params:
            return "a bound method of a parameter"
        # Attribute on a local object: almost certainly a bound method.
        if fn_ref and root not in (module.imports if module else {}):
            return "a bound method"
    return None


def analyze_hazards(graph: CallGraph) -> List[Finding]:
    """Cross-process hazards at every ``executor.map`` dispatch site."""
    findings: List[Finding] = []
    for scope in graph.iter_functions():
        if _exempt_path(scope.path):
            continue
        mutated: Set[str] = {m.name for m in scope.mutations}
        for dispatch in scope.executor_maps:
            hazard = _fn_hazard(graph, scope, dispatch.fn_ref, dispatch.fn_kind)
            if hazard is not None:
                shown = (
                    dispatch.fn_ref
                    if dispatch.fn_ref and "<lambda:" not in dispatch.fn_ref
                    else "<lambda>"
                )
                findings.append(
                    Finding(
                        path=scope.path,
                        line=dispatch.line,
                        col=dispatch.col + 1,
                        code="RPR016",
                        message=(
                            f"{shown!r} submitted to {dispatch.receiver}."
                            f"map() is {hazard}; work functions must be "
                            f"module-level so they pickle into pool workers "
                            f"identically to the serial run"
                        ),
                    )
                )

            # RPR017: shared mutable locals embedded into the unit list.
            if dispatch.items_ref is None:
                continue
            embedded: Set[str] = set()
            embed_lines = {}
            for elem in scope.container_elems:
                if elem.var == dispatch.items_ref:
                    for name in elem.names:
                        embedded.add(name)
                        embed_lines.setdefault(name, elem.line)
            shared = sorted(embedded & mutated)
            for name in shared:
                findings.append(
                    Finding(
                        path=scope.path,
                        line=embed_lines[name],
                        col=dispatch.col + 1,
                        code="RPR017",
                        message=(
                            f"work units in {dispatch.items_ref!r} embed "
                            f"local {name!r}, which {scope.name}() also "
                            f"mutates in place; units forked into workers "
                            f"see a snapshot while the serial path sees the "
                            f"mutation — pass an immutable copy per unit"
                        ),
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
