"""Topological execution of stage graphs with provenance capture.

A :class:`PipelineGraph` owns a set of :class:`~repro.orchestration.stage.Stage`
declarations whose ``requires``/``provides`` names form a DAG.
:meth:`PipelineGraph.run` resolves a deterministic topological order
(Kahn's algorithm with declaration order as the tie-break), injects the
runtime executor / cache / seed once per stage through a
:class:`~repro.orchestration.stage.StageContext`, and wraps every
produced value in an :class:`~repro.orchestration.provenance.Artifact`
whose :class:`~repro.orchestration.provenance.Provenance` chains the
upstream digests.

A stage that raises aborts the run.  ``run(..., journal=path)`` records
every completed stage into a
:class:`~repro.orchestration.journal.RunJournal` and skips stages the
journal already holds — a SIGKILLed run resumes where it died, with
digests bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import OrchestrationError
from ..runtime.executor import Executor
from .context import normalize_cache_dir, resolve_executor
from .journal import RunJournal, resolve_journal, run_key
from .provenance import Artifact, Provenance, artifact_digest
from .stage import Stage, StageContext

logger = logging.getLogger("repro.orchestration")


@dataclass
class PipelineRun:
    """Every artifact produced by one graph execution.

    ``resumed_stages`` names the stages rehydrated from a run journal
    instead of executed.
    """

    artifacts: Dict[str, Artifact] = field(default_factory=dict)
    resumed_stages: List[str] = field(default_factory=list)

    def __getitem__(self, name: str) -> Artifact:
        return self.artifacts[name]

    def __contains__(self, name: str) -> bool:
        return name in self.artifacts

    def value(self, name: str) -> Any:
        return self.artifacts[name].value

    def provenance(self, name: str) -> Provenance:
        return self.artifacts[name].provenance

    def lineage(self) -> List[Dict[str, Any]]:
        """Provenance records of every artifact, in production order."""
        return [a.provenance.as_dict() for a in self.artifacts.values()]


class PipelineGraph:
    """A named DAG of stages, executed topologically."""

    def __init__(self, name: str, stages: Optional[Sequence[Stage]] = None):
        self.name = name
        self.stages: List[Stage] = []
        for stage in stages or ():
            self.add(stage)

    def add(self, stage: Stage) -> "PipelineGraph":
        """Declare a stage; returns self for chaining.

        Beyond name/artifact uniqueness, every artifact edge with
        declared :class:`ArtifactSpec` contracts on both ends is
        checked immediately — a mismatched graph is rejected at build
        time with an :class:`~repro.analysis.dataflow.shapeflow.
        ArtifactFlowError` naming both stages, before anything runs.
        """
        if any(s.name == stage.name for s in self.stages):
            raise OrchestrationError(
                f"graph {self.name!r} already has a stage named {stage.name!r}"
            )
        if any(s.provides == stage.provides for s in self.stages):
            raise OrchestrationError(
                f"graph {self.name!r} already produces artifact "
                f"{stage.provides!r}"
            )
        if stage.input_specs or stage.output_spec is not None or any(
            s.input_specs or s.output_spec is not None for s in self.stages
        ):
            # Lazy import: analysis depends only on repro.errors, but
            # keeping the checker out of the hot path means graphs with
            # no declared specs never pay for it.
            from ..analysis.dataflow.shapeflow import check_stage_flow

            check_stage_flow(self.stages + [stage])
        self.stages.append(stage)
        return self

    def topological_order(
        self, initial: Sequence[str] = ()
    ) -> List[Stage]:
        """Stages in dependency order (declaration order as tie-break).

        ``initial`` names artifacts supplied by the caller rather than
        produced by a stage.  Unknown requirements and dependency
        cycles raise :class:`~repro.errors.OrchestrationError` naming
        the offender.
        """
        produced = {s.provides: s for s in self.stages}
        available = set(initial)
        for stage in self.stages:
            for req in stage.requires:
                if req not in produced and req not in available:
                    raise OrchestrationError(
                        f"stage {stage.name!r} requires unknown artifact "
                        f"{req!r} (not produced by any stage, not supplied "
                        "as an initial input)"
                    )
        order: List[Stage] = []
        remaining = list(self.stages)
        while remaining:
            ready = [
                s
                for s in remaining
                if all(r in available for r in s.requires)
            ]
            if not ready:
                cycle = ", ".join(s.name for s in remaining)
                raise OrchestrationError(
                    f"graph {self.name!r} has a dependency cycle among: {cycle}"
                )
            stage = ready[0]  # declaration order is the deterministic tie-break
            order.append(stage)
            available.add(stage.provides)
            remaining.remove(stage)
        return order

    def run(
        self,
        initial: Optional[Dict[str, Any]] = None,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, "object"]] = None,
        seed: Optional[int] = None,
        journal: Optional[Union[str, Path, RunJournal]] = None,
    ) -> PipelineRun:
        """Execute every stage once, in topological order.

        ``initial`` artifacts are wrapped with an ``"input"`` stage
        provenance so downstream lineage is complete.  The executor /
        cache / seed are injected exactly once — stage functions only
        ever see the :class:`StageContext`.

        ``journal`` (a path or :class:`RunJournal`) makes the run
        crash-safe: each completed stage is recorded write-ahead, and
        stages already journaled under the same run key are skipped and
        rehydrated instead of re-executed.  Because a stage's seed
        material depends only on the run seed and its topological
        index, a resumed run's digests are bit-identical to an
        uninterrupted run's.
        """
        executor = resolve_executor(executor)
        cache_dir = normalize_cache_dir(cache_dir)
        journal = resolve_journal(journal)
        run = PipelineRun()
        for name, value in (initial or {}).items():
            run.artifacts[name] = Artifact(
                name=name,
                value=value,
                provenance=Provenance(
                    stage="input", digest=artifact_digest(value)
                ),
            )
        if journal is not None:
            journal.begin(
                run_key(
                    self.name,
                    self.stages,
                    seed,
                    {
                        name: run.artifacts[name].digest
                        for name in (initial or {})
                    },
                ),
                self.name,
            )

        order = self.topological_order(initial=tuple(initial or ()))
        for index, stage in enumerate(order):
            if journal is not None and journal.has(stage.name):
                artifact = journal.load(stage.name)
                if artifact is not None:
                    run.artifacts[artifact.name] = artifact
                    run.resumed_stages.append(stage.name)
                    logger.debug(
                        "graph %s: stage %s resumed from journal (digest %s)",
                        self.name,
                        stage.name,
                        artifact.digest[:12],
                    )
                    continue
            ctx = StageContext(
                executor=executor,
                cache_dir=cache_dir,
                seed=stage.seed if stage.seed is not None else seed,
                seed_path=(index,),
            )
            inputs = {name: run.value(name) for name in stage.requires}
            logger.debug(
                "graph %s: stage %s (%d/%d) starting",
                self.name,
                stage.name,
                index + 1,
                len(order),
            )
            t0 = time.perf_counter()
            value = stage.run(ctx, inputs)
            wall = time.perf_counter() - t0
            provenance = Provenance(
                stage=stage.name,
                digest=artifact_digest(value),
                config_digest=(
                    None
                    if stage.config is None
                    else artifact_digest(stage.config)
                ),
                seed=ctx.seed,
                seed_path=ctx.seed_path,
                inputs=tuple(
                    (name, run.artifacts[name].digest)
                    for name in stage.requires
                ),
                cache_hits=ctx._cache_hits,
                cache_misses=ctx._cache_misses,
                wall_time_s=wall,
                executor=executor.name,
                workers=executor.workers,
                units=ctx._units,
            )
            artifact = Artifact(
                name=stage.provides, value=value, provenance=provenance
            )
            run.artifacts[stage.provides] = artifact
            if journal is not None:
                journal.record(stage.name, artifact)
            logger.debug(
                "graph %s: stage %s done in %.3fs (digest %s)",
                self.name,
                stage.name,
                wall,
                provenance.digest[:12],
            )
        return run

