"""Whole-repo dataflow analysis: the second tier of static analysis.

:mod:`repro.analysis.lint` is tier one — per-file, syntactic, fast.
This package is tier two: it parses every module reachable from the
scanned roots into picklable :class:`~repro.analysis.dataflow.summaries.ModuleSummary`
records (fanned out over a :class:`~repro.runtime.executor.Executor`),
links them into a call graph, and runs four whole-repo analyses that
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
    definitions — enforced at graph build time, not by the linter
    (see :mod:`repro.analysis.dataflow.shapeflow`).

The engine (:mod:`repro.analysis.dataflow.engine`) merges these
findings with unused-suppression detection (RPR014), applies
``# repro: noqa`` suppression and the committed baseline, and backs the
``repro check-determinism`` CLI.
"""

import importlib

#: Public name → defining submodule.  Resolved on first attribute access
#: (PEP 562) so importing the package — as ``repro.scenarios`` does for
#: ``shapeflow.ArtifactSpec`` — does not load the engine, which imports
#: ``repro.analysis.lint`` (a runpy RuntimeWarning under
#: ``python -m repro.analysis.lint``) and the whole analyzer.
_EXPORTS = {
    "AnalysisResult": "engine",
    "DATAFLOW_RULES": "engine",
    "analyze_paths": "engine",
    "apply_baseline": "engine",
    "load_baseline": "engine",
    "main": "engine",
    "save_baseline": "engine",
    "ArtifactFlowError": "shapeflow",
    "ArtifactSpec": "shapeflow",
    "check_stage_flow": "shapeflow",
    "FileAnalysis": "summaries",
    "FunctionSummary": "summaries",
    "ModuleSummary": "summaries",
    "summarize_source": "summaries",
}


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_EXPORTS)
