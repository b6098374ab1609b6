"""Whole-repo dataflow analysis, and the analyzer that runs every rule.

The engine parses every module reachable from the scanned roots once,
runs the per-file rules of :mod:`repro.analysis.rules` over each tree
and compresses it into a picklable
:class:`~repro.analysis.dataflow.summaries.ModuleSummary` (fanned out
over a :class:`~repro.runtime.executor.Executor`).  It links the
summaries into a call graph and runs the whole-repo analyses that
per-file rules cannot express:

``seedflow``  (RPR015)
    Interprocedural taint tracking of ``np.random.Generator`` /
    ``SeedSequence`` values: any RNG that reaches a stochastic
    operation without descending from an explicit seed parameter, a
    literal seed, or a spawned sequence is reported — the
    interprocedural generalization of RPR001/002/006.
``purity``  (RPR010–RPR013)
    Static purity contracts for every function registered as an
    ``orchestration.Stage``: no in-place mutation of input artifacts,
    no module/class global writes, no I/O outside the injected cache
    helpers, no wall-clock/OS-entropy reads.
``hazards``  (RPR016–RPR017)
    Cross-process safety of ``Executor.map`` fan-outs: lambdas,
    closures, and bound methods are not picklable work functions, and
    work units must not alias shared mutable locals.
``shapeflow``
    End-to-end artifact shape/dtype flow through ``PipelineGraph``
    definitions — enforced at graph build time, not by the analyzer
    (see :mod:`repro.analysis.dataflow.shapeflow`).

The engine (:mod:`repro.analysis.dataflow.engine`) merges these
findings with the per-file ones and unused-suppression detection
(RPR014), applies ``# repro: noqa`` suppression, and backs the
``repro check-determinism`` CLI.
"""

import importlib

#: Public name → defining submodule.  Resolved on first attribute access
#: (PEP 562) so importing the package — as ``repro.scenarios`` does for
#: ``shapeflow.ArtifactSpec`` — does not load the engine and the rules.
_EXPORTS = {
    "AnalysisResult": "engine",
    "analyze_paths": "engine",
    "ArtifactFlowError": "shapeflow",
    "ArtifactSpec": "shapeflow",
    "check_stage_flow": "shapeflow",
    "FileAnalysis": "summaries",
    "FunctionSummary": "summaries",
    "ModuleSummary": "summaries",
    "summarize_tree": "summaries",
}


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_EXPORTS)
