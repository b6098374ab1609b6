"""Adapters between streamed scenarios and record-oriented consumers.

The Table-I validation drivers and the serving load generator consume
a whole population with ``.subjects`` / ``.num_subjects`` — a
:class:`~repro.scenarios.base.MaterializedPopulation`.
:func:`population_records` normalizes any population source onto that
surface, materializing scenarios *here*,
inside the scenarios package, which is the one place the streaming
contract sanctions whole-population views (lint rule RPR021).
Validation-scale populations are tens of subjects, so this is the
right trade; the 100k streaming path never goes through this adapter.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..runtime.executor import Executor
from ..signals.feature_map import FeatureMap
from .base import MaterializedPopulation, Scenario


def population_records(
    source,
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, Path]] = None,
):
    """Any population source, normalized to ``.subjects``/``.num_subjects``.

    * A :class:`Scenario` is materialized (sanctioned, small-scale).
    * Anything already carrying ``.subjects`` (a
      ``MaterializedPopulation``) passes through untouched.
    * A plain sequence of subject-like records is wrapped.
    """
    if isinstance(source, Scenario):
        return source.materialize(executor=executor, cache_dir=cache_dir)
    if hasattr(source, "subjects"):
        return source
    records = list(source)
    if not records:
        raise ValueError("cannot build a population from no records")
    return MaterializedPopulation(
        name=type(records[0]).__name__.lower(), subjects=records
    )


def base_corpus(
    source,
    max_subjects: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> Dict[int, List[FeatureMap]]:
    """A ``{subject_id: maps}`` corpus for the serving load generator.

    Scenarios stream: only the first ``max_subjects`` subjects are ever
    generated (the load generator synthesizes its fleet from a small
    base corpus, so there is no reason to realize the full population).
    """
    if isinstance(source, Scenario):
        corpus: Dict[int, List[FeatureMap]] = {}
        for subject in source.iter_subjects(
            executor=executor, cache_dir=cache_dir
        ):
            corpus[subject.subject_id] = list(subject.maps)
            if max_subjects is not None and len(corpus) >= max_subjects:
                break
        return corpus
    records: Sequence = population_records(source).subjects
    if max_subjects is not None:
        records = records[:max_subjects]
    return {r.subject_id: list(r.maps) for r in records}
