"""Synthetic WEMAC-compatible corpus: virtual volunteers, stimuli, splits.

The real WEMAC dataset is request-gated; this package holds the pieces
of a corpus with the same statistical structure (latent archetypes,
fear / non-fear labels, multi-rate physiological channels) so the full
CLEAR pipeline runs end-to-end offline: the physiological simulator,
stimulus schedules, the corpus scale (:class:`WEMACConfig`), fraction
splits, and corpus I/O.  The corpus itself is drawn by
:class:`repro.scenarios.WEMACScenario`.  See DESIGN.md for the
substitution rationale.
"""

from .loaders import split_maps_by_fraction
from .stimuli import FEAR, NON_FEAR, StimulusSchedule, Trial, balanced_schedule
from .subject import (
    ARCHETYPES,
    NUM_ARCHETYPES,
    ArchetypeParams,
    PhysiologicalSimulator,
    SubjectProfile,
    sample_subject,
)
from .wemac import WEMACConfig

__all__ = [
    "FEAR",
    "NON_FEAR",
    "Trial",
    "StimulusSchedule",
    "balanced_schedule",
    "ARCHETYPES",
    "NUM_ARCHETYPES",
    "ArchetypeParams",
    "SubjectProfile",
    "sample_subject",
    "PhysiologicalSimulator",
    "WEMACConfig",
    "split_maps_by_fraction",
]
