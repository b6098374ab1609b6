"""Linking module summaries into a whole-repo call graph.

Resolution is name-based and deliberately conservative: a call resolves
to a :class:`~repro.analysis.dataflow.summaries.FunctionSummary` only
when the callee text can be traced through local defs, module-level
defs, or the importing module's alias table to a function that was
actually summarized.  Anything else — methods on arbitrary objects,
third-party calls, computed callees — resolves to ``None`` and the
analyses treat it as an opaque trust boundary.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .summaries import CallRecord, FunctionSummary, ModuleSummary


class CallGraph:
    """An index over every summarized function, with call resolution."""

    def __init__(self, modules: Iterable[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        for module in modules:
            if module is None:
                continue
            self.modules[module.module] = module
            self.functions.update(module.functions)

    # -- lookups ---------------------------------------------------------

    def iter_functions(self) -> Iterable[FunctionSummary]:
        return self.functions.values()

    # -- resolution ------------------------------------------------------

    def resolve_local_name(
        self, scope: FunctionSummary, name: str
    ) -> Optional[FunctionSummary]:
        """Resolve a bare name visible inside ``scope`` to a function.

        Search order mirrors Python scoping: nested defs of the scope
        itself, then enclosing function scopes, then module-level defs,
        then imported names.
        """
        # Nested def in this scope or an enclosing one.
        chain: List[str] = [scope.qualname]
        parent = scope.parent
        while parent is not None:
            chain.append(parent)
            enclosing = self.functions.get(parent)
            parent = enclosing.parent if enclosing is not None else None
        for base in chain:
            hit = self.functions.get(f"{base}.{name}")
            if hit is not None:
                return hit
        # Module-level function.
        hit = self.functions.get(f"{scope.module}.{name}")
        if hit is not None:
            return hit
        # Imported name: "from mod import fn" maps name -> mod.fn.
        module = self.modules.get(scope.module)
        if module is not None:
            target = module.imports.get(name)
            if target is not None:
                return self.functions.get(target)
        return None

    def resolve_call(
        self, scope: FunctionSummary, call: CallRecord
    ) -> Optional[FunctionSummary]:
        """Resolve one call site to a summarized function, if possible."""
        callee = call.callee
        if "." not in callee:
            return self.resolve_local_name(scope, callee)
        head, _, tail = callee.rpartition(".")
        if head in ("self", "cls") or "<expr>" in callee:
            return None
        module = self.modules.get(scope.module)
        if module is None:
            return None
        # "import repro.core.pipeline as p; p.fn()" -> repro.core.pipeline.fn
        target_module = module.imports.get(head)
        if target_module is not None:
            hit = self.functions.get(f"{target_module}.{tail}")
            if hit is not None:
                return hit
        # Dotted chain rooted at a known module name as written.
        return self.functions.get(callee)

    def resolve_ref(
        self, scope: FunctionSummary, ref: Optional[str]
    ) -> Optional[FunctionSummary]:
        """Resolve an argument reference (name / lambda qualname / dotted)."""
        if ref is None:
            return None
        if "<lambda:" in ref:
            return self.functions.get(ref)
        if "." not in ref:
            return self.resolve_local_name(scope, ref)
        return self.resolve_call(
            scope, CallRecord(callee=ref, line=0, col=0)
        )
