"""Interprocedural seed-flow analysis (rule RPR015).

The repo's determinism contract says every random draw must descend
from an explicit seed: a ``seed``/``rng`` parameter, a literal, or a
``SeedSequence.spawn`` child.  The per-file linter enforces the local
half (RPR001/002/006); this pass closes the interprocedural gap by
taint-tracking generator values across call boundaries:

* a function *consumes* RNG through a parameter when that parameter
  (transitively) reaches a stochastic drawing method;
* a function *returns unseeded* RNG when its return value is (or
  aliases) a generator created without a seed — including one obtained
  from a callee that itself returns unseeded RNG.

A finding is emitted wherever tainted (OS-entropy) RNG meets a
stochastic operation: directly, through a local alias, or by being
passed into a consuming parameter of a resolved callee.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..rules import Finding
from .callgraph import CallGraph
from .summaries import FunctionSummary

CODE = "RPR015"


def _consuming_params(graph: CallGraph) -> Dict[str, Set[str]]:
    """Fixed point: which parameters of which functions reach a draw."""
    consuming: Dict[str, Set[str]] = {}
    for fn in graph.iter_functions():
        params = set(fn.params)
        direct = {
            use.receiver.split(".")[0]
            for use in fn.stochastic_uses
        } & params
        if direct:
            consuming[fn.qualname] = direct

    changed = True
    while changed:
        changed = False
        for fn in graph.iter_functions():
            params = set(fn.params)
            current = consuming.get(fn.qualname, set())
            for call in fn.calls:
                target = graph.resolve_call(fn, call)
                if target is None:
                    continue
                target_consuming = consuming.get(target.qualname)
                if not target_consuming:
                    continue
                for index, ref in enumerate(call.arg_refs):
                    if ref is None or ref not in params:
                        continue
                    if index < len(target.params) and (
                        target.params[index] in target_consuming
                    ):
                        if ref not in current:
                            current = current | {ref}
                for kw, ref in call.kw_refs:
                    if ref is None or ref not in params:
                        continue
                    if kw in target_consuming and ref not in current:
                        current = current | {ref}
            if current and current != consuming.get(fn.qualname, set()):
                consuming[fn.qualname] = current
                changed = True
    return consuming


def _returns_unseeded(graph: CallGraph) -> Set[str]:
    """Fixed point: functions whose return value is tainted RNG."""
    unseeded: Set[str] = {
        fn.qualname
        for fn in graph.iter_functions()
        if fn.returns_unseeded_expr
        or set(fn.returns_names) & set(fn.tainted_vars)
    }
    changed = True
    while changed:
        changed = False
        for fn in graph.iter_functions():
            if fn.qualname in unseeded:
                continue
            tainted = _extended_tainted(graph, fn, unseeded)
            if set(fn.returns_names) & tainted:
                unseeded.add(fn.qualname)
                changed = True
    return unseeded


def _extended_tainted(
    graph: CallGraph, fn: FunctionSummary, returns_unseeded: Set[str]
) -> Set[str]:
    """Locally tainted vars, plus results of unseeded-returning calls."""
    tainted = set(fn.tainted_vars)
    for call in fn.calls:
        if call.assigned_to is None:
            continue
        target = graph.resolve_call(fn, call)
        if target is not None and target.qualname in returns_unseeded:
            tainted.add(call.assigned_to)
    # Close over simple name-to-name aliases, in program order.
    for alias_target, alias_source in fn.aliases:
        if alias_source in tainted:
            tainted.add(alias_target)
    return tainted


def analyze_seedflow(graph: CallGraph) -> List[Finding]:
    """Run the whole-repo seed-flow pass; returns unsuppressed findings."""
    consuming = _consuming_params(graph)
    returns_unseeded = _returns_unseeded(graph)
    findings: List[Finding] = []

    for fn in graph.iter_functions():
        tainted = _extended_tainted(graph, fn, returns_unseeded)
        creation_lines = {
            c.target: c.line for c in fn.rng_creations if c.target
        }

        for use in fn.stochastic_uses:
            root = use.receiver.split(".")[0]
            if use.receiver == "<unseeded>":
                findings.append(
                    Finding(
                        path=fn.path,
                        line=use.line,
                        col=use.col + 1,
                        code=CODE,
                        message=(
                            f"unseeded RNG reaches .{use.method}() in "
                            f"{fn.name}(); the generator is created from OS "
                            f"entropy — derive it from an explicit seed "
                            f"parameter or a spawned SeedSequence"
                        ),
                    )
                )
            elif root in tainted:
                origin = creation_lines.get(root)
                where = (
                    f"created unseeded at line {origin}"
                    if origin is not None
                    else "obtained from an unseeded source"
                )
                findings.append(
                    Finding(
                        path=fn.path,
                        line=use.line,
                        col=use.col + 1,
                        code=CODE,
                        message=(
                            f"RNG {root!r} ({where}) reaches "
                            f".{use.method}() in {fn.name}() without "
                            f"descending from an explicit seed parameter "
                            f"or a spawned SeedSequence"
                        ),
                    )
                )

        for call in fn.calls:
            target = graph.resolve_call(fn, call)
            if target is None:
                continue
            target_consuming = consuming.get(target.qualname)
            if not target_consuming:
                continue
            passed: List[str] = []
            for index, ref in enumerate(call.arg_refs):
                if (
                    ref in tainted
                    and index < len(target.params)
                    and target.params[index] in target_consuming
                ):
                    passed.append(ref)
            for kw, ref in call.kw_refs:
                if ref in tainted and kw in target_consuming:
                    passed.append(ref)
            for ref in passed:
                findings.append(
                    Finding(
                        path=fn.path,
                        line=call.line,
                        col=call.col + 1,
                        code=CODE,
                        message=(
                            f"unseeded RNG {ref!r} passed from {fn.name}() "
                            f"into {target.name}(), whose parameter reaches "
                            f"stochastic operations — thread an explicit "
                            f"seed or a spawned SeedSequence instead"
                        ),
                    )
                )

    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings
