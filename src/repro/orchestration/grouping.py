"""Shared per-subject grouping of feature maps.

Before this module, `{subject_id: [maps]}` dictionaries were rebuilt
ad hoc in ``core/validation.py``, ``clustering/subclusters.py``,
``core/pipeline.py``, and ``experiments/runner.py``.  These helpers are
the single implementation; they depend only on objects exposing
``subject_id`` / ``maps`` attributes, so they sit below every layer
that groups.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

MapT = TypeVar("MapT")


def group_maps_by_subject(
    subjects: Iterable, exclude: Optional[int] = None
) -> Dict[int, List]:
    """``{subject_id: [maps]}`` over records with ``subject_id``/``maps``.

    Accepts a :class:`~repro.scenarios.base.MaterializedPopulation` (via its
    ``subjects`` attribute) or any iterable of subject records.  Map
    lists are fresh copies, so callers may extend or filter them
    without mutating the source.  ``exclude`` drops one subject — the
    LOSO held-out volunteer.
    """
    records = getattr(subjects, "subjects", subjects)
    return {
        record.subject_id: list(record.maps)
        for record in records
        if record.subject_id != exclude
    }


def iter_subject_maps(
    maps_by_subject: Dict[int, Sequence[MapT]]
) -> Iterator[Tuple[int, Sequence[MapT]]]:
    """``(subject_id, maps)`` pairs in ascending subject order.

    Raises ``ValueError`` on a subject with no maps — every consumer
    (signature building, clustering) needs at least one map per
    subject, and a silent skip would desynchronize matrix columns from
    subject ids.
    """
    for subject_id in sorted(maps_by_subject):
        maps = maps_by_subject[subject_id]
        if not maps:
            raise ValueError(f"subject {subject_id} has no feature maps")
        yield subject_id, maps


def member_maps(
    maps_by_subject: Dict[int, Sequence[MapT]],
    member_ids: Iterable[int],
    exclude: Optional[int] = None,
) -> List[MapT]:
    """Maps of every member subject, flattened in membership order.

    Subjects absent from ``maps_by_subject`` contribute nothing (a
    cluster member may have been held out of the population), and
    ``exclude`` additionally drops one member — the LOSO fold's
    held-out volunteer.
    """
    return [
        m
        for sid in member_ids
        if sid != exclude
        for m in maps_by_subject.get(sid, ())
    ]


def outside_maps(
    maps_by_subject: Dict[int, Sequence[MapT]], member_ids: Iterable[int]
) -> List[MapT]:
    """Maps of every subject *not* in ``member_ids`` (robustness tests)."""
    members = set(member_ids)
    return [
        m
        for sid, maps in maps_by_subject.items()
        if sid not in members
        for m in maps
    ]
