"""Typed Stage/Artifact orchestration: one pipeline graph, end to end.

The paper's two-stage cloud/edge pipeline (feature maps → global
clustering → per-cluster CNN-LSTM → cold-start assignment → optional
fine-tune) exists here as an explicit, typed graph instead of being
re-assembled by hand at every entry point:

* :class:`Stage` — a pure function with declared input/output artifact
  names, executed inside a :class:`StageContext` that injects the
  :mod:`repro.runtime` executor/cache once at the stage boundary.
* :class:`Artifact` — a produced value plus its :class:`Provenance`
  record (config digest, seed path, upstream digests, cache traffic,
  wall time).
* :class:`PipelineGraph` — deterministic topological execution with
  crash-safe resumable runs through a :class:`RunJournal`.
* :func:`run_fold_plan` — the one fold-dispatch implementation shared
  by every Table-I validation protocol.
* :mod:`~repro.orchestration.grouping` — the shared per-subject map
  grouping used by clustering, validation, and the experiment runners.
"""

from .context import (
    executor_for_workers,
    normalize_cache_dir,
    open_checkpoint_cache,
    open_feature_map_cache,
    resolve_executor,
)
from .folds import FoldPlanResult, run_fold_plan
from .graph import PipelineGraph, PipelineRun
from .journal import RunJournal, resolve_journal, run_key
from .grouping import (
    group_maps_by_subject,
    iter_subject_maps,
    member_maps,
    outside_maps,
)
from .provenance import Artifact, Provenance, artifact_digest
from .stage import Stage, StageContext

__all__ = [
    "Artifact",
    "FoldPlanResult",
    "PipelineGraph",
    "PipelineRun",
    "Provenance",
    "RunJournal",
    "Stage",
    "StageContext",
    "artifact_digest",
    "executor_for_workers",
    "group_maps_by_subject",
    "iter_subject_maps",
    "member_maps",
    "normalize_cache_dir",
    "open_checkpoint_cache",
    "open_feature_map_cache",
    "outside_maps",
    "resolve_executor",
    "resolve_journal",
    "run_fold_plan",
    "run_key",
]
