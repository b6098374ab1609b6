"""Typed scenario protocol: lazily streamed synthetic populations.

A :class:`Scenario` describes a *population*, not a dataset: a label
space, a modality/sampling-rate profile, device heterogeneity, and
population dynamics (archetype drift, churn), plus a pure per-subject
generator.  Subjects are produced on demand — ``subject(i)`` is O(1)
random access because every subject draws from its own
``SeedSequence(seed, spawn_key=(subject_id, generation))`` stream — so
a 100k-subject population can flow through extraction, clustering, and
scoring in bounded chunks without ever existing in memory at once.

The streaming contract is load-bearing: downstream layers consume
``iter_subjects()`` / ``iter_chunks()`` and must not materialize the
whole population (lint rule RPR021 confines ``list(iter_subjects())``-
style calls to this package).  :meth:`Scenario.materialize` is the one
sanctioned whole-population view, for small corpora and for the
bit-identity tests that pin streamed ≡ materialized.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..orchestration.context import normalize_cache_dir, resolve_executor
from ..runtime.executor import Executor
from ..signals.feature_map import FeatureMap, subject_signature
from ..signals.features import NUM_FEATURES

#: Modalities every scenario speaks, in feature-block order.
MODALITIES: Tuple[str, ...] = ("bvp", "gsr", "skt")

#: Contiguous slices of the 123-feature vector owned by each modality
#: (84 BVP + 34 GSR + 5 SKT; see ``repro.signals.features``).
FEATURE_BLOCKS: Dict[str, slice] = {
    "bvp": slice(0, 84),
    "gsr": slice(84, 118),
    "skt": slice(118, NUM_FEATURES),
}

#: Spawn-key tag reserved for population-level (non-subject) streams.
#: Subject ids are always < 2**31, so the tag can never collide.
POPULATION_KEY = 1 << 31


@dataclass(frozen=True)
class LabelSpace:
    """The classes a scenario labels its feature maps with."""

    name: str
    classes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ValueError(
                f"label space {self.name!r} needs >= 2 classes, "
                f"got {self.classes!r}"
            )
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"duplicate classes in {self.classes!r}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class DeviceProfile:
    """One device population: sampling-rate scales + dead modalities.

    ``rate_scales`` multiplies the scenario's reference (BVP, GSR, SKT)
    sampling rates — a cheap wristband might sample BVP at half rate.
    ``missing_modalities`` lists channels the device does not record at
    all; their feature blocks are screened and imputed by
    ``repro.resilience.guards`` rather than silently zeroed.
    """

    name: str = "reference"
    rate_scales: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    missing_modalities: Tuple[str, ...] = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.rate_scales) != len(MODALITIES):
            raise ValueError("rate_scales must have one entry per modality")
        if min(self.rate_scales) <= 0:
            raise ValueError("rate_scales must be positive")
        unknown = set(self.missing_modalities) - set(MODALITIES)
        if unknown:
            raise ValueError(f"unknown modalities {sorted(unknown)}")
        if len(self.missing_modalities) >= len(MODALITIES):
            raise ValueError("a device must record at least one modality")
        if self.weight <= 0:
            raise ValueError("device weight must be positive")


#: The default single-device fleet: every subject on reference hardware.
REFERENCE_DEVICE = DeviceProfile()


@dataclass(frozen=True)
class PopulationDynamics:
    """Non-stationarity knobs for a streamed population.

    ``archetype_drift`` linearly interpolates late-population subjects
    toward the *next* archetype's parameters (0 = stationary, 1 = the
    final subject sits fully on the neighbouring archetype) — the slow
    population-composition shift a long-lived deployment sees.
    ``churn_rate`` is the probability that a subject slot has been
    vacated and re-occupied by a new individual (generation > 0), drawn
    from the slot's own stream so the decision is pure per subject.
    """

    archetype_drift: float = 0.0
    churn_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.archetype_drift <= 1.0:
            raise ValueError("archetype_drift must be in [0, 1]")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ValueError("churn_rate must be in [0, 1)")

    @property
    def stationary(self) -> bool:
        return self.archetype_drift == 0.0 and self.churn_rate == 0.0


#: Stationary, churn-free population (the default).
STATIONARY = PopulationDynamics()


@dataclass
class ScenarioSubject:
    """One streamed subject: labelled maps plus generation ground truth."""

    subject_id: int
    archetype_id: int
    maps: List[FeatureMap]
    device: DeviceProfile = REFERENCE_DEVICE
    #: 0 for the slot's original occupant; >0 after churn replacement.
    generation: int = 0
    #: Feature entries the device screen imputed (missing modalities).
    imputed_features: int = 0
    #: Extraction-cache hits / misses building this subject (0 for
    #: feature-space scenarios, which extract nothing).
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def labels(self) -> np.ndarray:
        return np.array([m.label for m in self.maps], dtype=np.int64)

    def signature(self) -> np.ndarray:
        """The subject's clustering signature (mean feature vector)."""
        return subject_signature(self.maps)


def subject_rng(
    seed: int, subject_id: int, generation: int = 0
) -> np.random.Generator:
    """The subject's own RNG stream — pure O(1) random access.

    ``SeedSequence(seed, spawn_key=(subject_id, generation))`` gives
    every (slot, generation) pair a statistically independent stream
    that does not depend on how many other subjects were generated
    before it, which is what makes streamed generation bit-identical to
    materialized generation at any chunk size.
    """
    key = (int(subject_id), int(generation))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def population_rng(seed: int, tag: int = 0) -> np.random.Generator:
    """A population-level stream (archetype banks, label geometry)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(POPULATION_KEY, int(tag)))
    )


def archetype_counts(weights: Sequence[float], num_subjects: int) -> np.ndarray:
    """Archetype slot counts for a weighted plan (>=1 slot each).

    Archetype *a* owns the ``counts[a]`` slots after those of archetypes
    ``0..a-1``, so :func:`archetype_for_slot` is O(num_archetypes) per
    subject and no plan list is ever built.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size < 1 or np.min(w) <= 0:
        raise ValueError("archetype weights must be positive")
    if num_subjects < w.size:
        raise ValueError(
            f"need at least {w.size} subjects (one per archetype), "
            f"got {num_subjects}"
        )
    w = w / w.sum()
    counts = np.floor(w * num_subjects).astype(int)
    counts = np.maximum(counts, 1)
    while counts.sum() < num_subjects:
        counts[int(np.argmax(w - counts / num_subjects))] += 1
    while counts.sum() > num_subjects:
        counts[int(np.argmax(counts))] -= 1
    return counts


def archetype_for_slot(
    weights: Sequence[float], num_subjects: int, subject_id: int
) -> int:
    """The archetype owning a population slot under a contiguous plan."""
    if not 0 <= subject_id < num_subjects:
        raise ValueError(
            f"subject_id {subject_id} outside population [0, {num_subjects})"
        )
    bounds = np.cumsum(archetype_counts(weights, num_subjects))
    return int(np.searchsorted(bounds, subject_id, side="right"))


def drift_alpha(
    dynamics: PopulationDynamics, num_subjects: int, subject_id: int
) -> float:
    """How far this slot has drifted toward the next archetype, in [0, 1]."""
    if dynamics.archetype_drift == 0.0 or num_subjects <= 1:
        return 0.0
    position = subject_id / (num_subjects - 1)
    return float(dynamics.archetype_drift * position)


def _generate_unit(args: Tuple) -> ScenarioSubject:
    """Executor work unit: build one subject from (class, config, id, cache).

    Module-level by construction (RPR016): the scenario *class* travels
    with the unit (classes pickle by reference), so chunk generation
    fans out across processes while staying bit-identical to serial.
    """
    scenario_cls, config, subject_id, cache_dir = args
    return scenario_cls.build_subject(config, subject_id, cache_dir=cache_dir)


@dataclass
class MaterializedPopulation:
    """The sanctioned whole-population view of a (small) scenario."""

    name: str
    subjects: List[ScenarioSubject] = field(default_factory=list)

    def __repro_content__(self) -> Tuple:
        return (
            "MaterializedPopulation",
            self.name,
            tuple(
                (
                    s.subject_id,
                    s.archetype_id,
                    s.generation,
                    s.device.name,
                    tuple(
                        (m.values, int(m.label), int(m.subject_id))
                        for m in s.maps
                    ),
                )
                for s in self.subjects
            ),
        )

    @property
    def num_subjects(self) -> int:
        return len(self.subjects)

    @property
    def subject_ids(self) -> List[int]:
        return [s.subject_id for s in self.subjects]

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.subjects)

    @property
    def cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.subjects)

    def subject(self, subject_id: int) -> ScenarioSubject:
        for subject in self.subjects:
            if subject.subject_id == subject_id:
                return subject
        raise KeyError(f"no subject with id {subject_id}")

    def all_maps(self) -> List[FeatureMap]:
        return [m for s in self.subjects for m in s.maps]

    def maps_by_subject(self) -> Dict[int, List[FeatureMap]]:
        return {s.subject_id: list(s.maps) for s in self.subjects}

    def archetype_assignment(self) -> Dict[int, int]:
        """Ground-truth latent archetype per subject (validation only)."""
        return {s.subject_id: s.archetype_id for s in self.subjects}

    def summary(self) -> Dict[str, float]:
        maps = self.all_maps()
        labels = np.array([m.label for m in maps])
        return {
            "num_subjects": float(self.num_subjects),
            "num_maps": float(len(maps)),
            "num_features": float(maps[0].num_features) if maps else 0.0,
            "churned": float(sum(1 for s in self.subjects if s.generation)),
            "imputed_features": float(
                sum(s.imputed_features for s in self.subjects)
            ),
            "positive_fraction": float(labels.mean()) if labels.size else 0.0,
        }


class Scenario(ABC):
    """A lazily streamed population with typed structure.

    Subclasses provide a picklable per-subject build configuration
    (:meth:`build_config`) and a *pure* classmethod
    (:meth:`build_subject`) mapping ``(config, subject_id)`` to one
    :class:`ScenarioSubject`.  Everything else — chunked iteration,
    executor fan-out, materialization — is shared here.
    """

    def __init__(
        self,
        name: str,
        label_space: LabelSpace,
        num_subjects: int,
        seed: int = 0,
        chunk_size: int = 64,
        num_archetypes: int = 4,
        num_features: int = NUM_FEATURES,
        dynamics: PopulationDynamics = STATIONARY,
        devices: Tuple[DeviceProfile, ...] = (REFERENCE_DEVICE,),
    ):
        if num_subjects < 1:
            raise ValueError("num_subjects must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if num_archetypes < 1 or num_features < 1:
            raise ValueError("num_archetypes/num_features must be >= 1")
        if not devices:
            raise ValueError("need at least one device profile")
        self.name = str(name)
        self.label_space = label_space
        self.num_subjects = int(num_subjects)
        self.seed = int(seed)
        self.chunk_size = int(chunk_size)
        self.num_archetypes = int(num_archetypes)
        self.num_features = int(num_features)
        self.dynamics = dynamics
        self.devices = tuple(devices)

    # -- the per-subject contract ------------------------------------------
    @abstractmethod
    def build_config(self) -> Any:
        """The picklable config ``build_subject`` consumes."""

    @classmethod
    @abstractmethod
    def build_subject(
        cls, config: Any, subject_id: int, cache_dir: Optional[str] = None
    ) -> ScenarioSubject:
        """Pure: one subject from its own spawned stream."""

    # -- streaming access --------------------------------------------------
    def subject(
        self, subject_id: int, cache_dir: Optional[Union[str, Path]] = None
    ) -> ScenarioSubject:
        """O(1) random access to any population slot."""
        if not 0 <= subject_id < self.num_subjects:
            raise ValueError(
                f"subject_id {subject_id} outside population "
                f"[0, {self.num_subjects})"
            )
        return type(self).build_subject(
            self.build_config(),
            subject_id,
            cache_dir=normalize_cache_dir(cache_dir),
        )

    def iter_chunks(
        self,
        chunk_size: Optional[int] = None,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> Iterator[List[ScenarioSubject]]:
        """Bounded subject chunks, generated through the executor.

        Peak memory is O(chunk_size) subjects; per-subject work units
        fan out through ``executor`` (order-preserving, so parallel
        chunks are bit-identical to serial ones).
        """
        chunk = int(chunk_size) if chunk_size is not None else self.chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be >= 1")
        executor = resolve_executor(executor)
        cache_dir = normalize_cache_dir(cache_dir)
        config = self.build_config()
        cls = type(self)
        for start in range(0, self.num_subjects, chunk):
            stop = min(start + chunk, self.num_subjects)
            units = [
                (cls, config, subject_id, cache_dir)
                for subject_id in range(start, stop)
            ]
            yield executor.map(_generate_unit, units)

    def iter_subjects(
        self,
        chunk_size: Optional[int] = None,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> Iterator[ScenarioSubject]:
        """The lazy population stream, in subject-id order."""
        for chunk in self.iter_chunks(
            chunk_size=chunk_size, executor=executor, cache_dir=cache_dir
        ):
            for subject in chunk:
                yield subject

    def materialize(
        self,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> MaterializedPopulation:
        """The sanctioned whole-population view (small scenarios only)."""
        subjects = [
            subject
            for subject in self.iter_subjects(
                executor=executor, cache_dir=cache_dir
            )
        ]
        return MaterializedPopulation(name=self.name, subjects=subjects)

    # -- bookkeeping -------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self.label_space.num_classes

    def __repro_content__(self) -> Tuple:
        return (
            "Scenario",
            type(self).__name__,
            self.name,
            self.label_space,
            self.num_subjects,
            self.seed,
            self.dynamics,
            self.devices,
        )

    def describe(self) -> Dict[str, Any]:
        """Static structure (no generation): what this population *is*."""
        return {
            "name": self.name,
            "type": type(self).__name__,
            "label_space": self.label_space.name,
            "classes": list(self.label_space.classes),
            "num_subjects": self.num_subjects,
            "num_archetypes": self.num_archetypes,
            "num_features": self.num_features,
            "chunk_size": self.chunk_size,
            "seed": self.seed,
            "archetype_drift": self.dynamics.archetype_drift,
            "churn_rate": self.dynamics.churn_rate,
            "devices": [d.name for d in self.devices],
        }


def pick_device(
    devices: Tuple[DeviceProfile, ...], rng: np.random.Generator
) -> DeviceProfile:
    """Weighted device draw from the subject's own stream."""
    if len(devices) == 1:
        return devices[0]
    weights = np.array([d.weight for d in devices], dtype=np.float64)
    probs = weights / weights.sum()
    return devices[int(rng.choice(len(devices), p=probs))]


def scenario_fingerprint(subjects) -> str:
    """SHA-256 over a subject stream's full generated content.

    Consumes the stream one subject at a time (O(1) memory), covering
    ids, archetypes, generations, devices, and every feature-map byte —
    the digest two generation paths must share to count as
    bit-identical.
    """
    import hashlib

    h = hashlib.sha256()
    for s in subjects:
        h.update(
            f"{int(s.subject_id)}:{int(s.archetype_id)}:"
            f"{int(s.generation)}:{s.device.name}:"
            f"{int(s.imputed_features)}:".encode()
        )
        for m in s.maps:
            h.update(f"{int(m.label)}:{int(m.subject_id)}:".encode())
            values = np.ascontiguousarray(
                np.asarray(m.values, dtype=np.float64)
            )
            h.update(str(values.shape).encode())
            h.update(values.tobytes())
    return h.hexdigest()
