"""The WEMAC corpus as one Scenario implementation.

This is the only code that simulates a WEMAC volunteer: the
mechanistic simulator, stimuli and extraction of
:mod:`repro.datasets`, with every subject drawing from its own
``SeedSequence(seed, spawn_key=(subject_id, generation))`` stream, so
slot *i* is a pure O(1) function of the config.  The corpus every
experiment, bench and example uses is
``WEMACScenario(config).materialize()``; simulation and extraction fan
out per subject through the executor, bit-identically to serial.

Beyond the stationary corpus the scenario adds population dynamics
(archetype drift toward the neighbouring archetype, churned slots) and
device heterogeneity (scaled sampling rates, missing modalities
screened by the resilience guards).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..datasets.stimuli import StimulusSchedule, balanced_schedule
from ..datasets.subject import (
    ARCHETYPES,
    NUM_ARCHETYPES,
    ArchetypeParams,
    PhysiologicalSimulator,
    SubjectProfile,
    sample_subject,
)
from ..datasets.wemac import WEMACConfig
from ..signals.feature_map import SubjectExtractionUnit, extract_subject_maps
from .base import (
    REFERENCE_DEVICE,
    STATIONARY,
    DeviceProfile,
    LabelSpace,
    PopulationDynamics,
    Scenario,
    ScenarioSubject,
    archetype_for_slot,
    drift_alpha,
    pick_device,
    subject_rng,
)
from .devices import screen_subject_maps

#: Binary fear / non-fear labels, as in the paper.
FEAR_LABELS = LabelSpace(name="fear", classes=("non_fear", "fear"))


def blend_archetypes(
    base: ArchetypeParams, toward: ArchetypeParams, alpha: float
) -> ArchetypeParams:
    """Linear interpolation of every physiological parameter."""
    if alpha <= 0.0:
        return base
    updates = {}
    for f in fields(ArchetypeParams):
        value = getattr(base, f.name)
        if isinstance(value, float):
            other = float(getattr(toward, f.name))
            updates[f.name] = (1.0 - alpha) * value + alpha * other
    return replace(base, **updates)


@dataclass(frozen=True)
class WEMACScenarioConfig:
    """Everything one subject build needs, picklable into work units."""

    base: WEMACConfig
    dynamics: PopulationDynamics = STATIONARY
    devices: Tuple[DeviceProfile, ...] = (REFERENCE_DEVICE,)


class SubjectDraw(NamedTuple):
    """One simulated volunteer, before feature extraction."""

    profile: SubjectProfile
    schedule: StimulusSchedule
    raw_trials: List[Dict[str, np.ndarray]]  # keys: bvp / gsr / skt
    device: DeviceProfile
    generation: int
    rates: Tuple[float, float, float]  # (bvp, gsr, skt) Hz


class WEMACScenario(Scenario):
    """Streamed WEMAC-compatible population (fear / non-fear)."""

    def __init__(
        self,
        config: Optional[WEMACConfig] = None,
        name: str = "wemac",
        chunk_size: int = 16,
        dynamics: PopulationDynamics = STATIONARY,
        devices: Tuple[DeviceProfile, ...] = (REFERENCE_DEVICE,),
    ):
        self.config = config if config is not None else WEMACConfig()
        super().__init__(
            name=name,
            label_space=FEAR_LABELS,
            num_subjects=self.config.num_subjects,
            seed=self.config.seed,
            chunk_size=chunk_size,
            num_archetypes=NUM_ARCHETYPES,
            dynamics=dynamics,
            devices=devices,
        )

    def build_config(self) -> WEMACScenarioConfig:
        return WEMACScenarioConfig(
            base=self.config, dynamics=self.dynamics, devices=self.devices
        )

    @classmethod
    def draw_subject(
        cls, config: WEMACScenarioConfig, subject_id: int
    ) -> SubjectDraw:
        """The volunteer's profile, stimulus schedule and raw recordings.

        Everything random about a WEMAC subject is drawn here, in one
        fixed order from the slot's own stream; :meth:`build_subject`
        adds only the (pure) extraction and device screen.
        """
        base = config.base
        dynamics = config.dynamics
        rng = subject_rng(base.seed, subject_id, generation=0)
        generation = 0
        if dynamics.churn_rate > 0.0 and rng.uniform() < dynamics.churn_rate:
            # The slot was vacated; its new occupant draws from a fresh
            # stream so the replacement is a genuinely different person.
            generation = 1
            rng = subject_rng(base.seed, subject_id, generation=generation)
        archetype_id = archetype_for_slot(
            base.archetype_weights, base.num_subjects, subject_id
        )
        alpha = drift_alpha(dynamics, base.num_subjects, subject_id)
        params = blend_archetypes(
            ARCHETYPES[archetype_id],
            ARCHETYPES[(archetype_id + 1) % NUM_ARCHETYPES],
            alpha,
        )
        device = pick_device(config.devices, rng)
        rates = (
            base.fs_bvp * device.rate_scales[0],
            base.fs_gsr * device.rate_scales[1],
            base.fs_skt * device.rate_scales[2],
        )
        profile = sample_subject(
            subject_id,
            archetype_id,
            rng,
            jitter=base.subject_jitter,
            base_params=params,
        )
        schedule = balanced_schedule(
            base.trials_per_subject, base.trial_seconds, rng
        )
        simulator = PhysiologicalSimulator(*rates)
        raw_trials = simulator.simulate_schedule(profile, schedule, rng)
        return SubjectDraw(
            profile, schedule, raw_trials, device, generation, rates
        )

    @classmethod
    def build_subject(
        cls,
        config: WEMACScenarioConfig,
        subject_id: int,
        cache_dir: Optional[str] = None,
    ) -> ScenarioSubject:
        draw = cls.draw_subject(config, subject_id)
        result = extract_subject_maps(
            SubjectExtractionUnit(
                subject_id=subject_id,
                trials=draw.raw_trials,
                labels=[t.label for t in draw.schedule.trials],
                windows_per_map=config.base.windows_per_map,
                rates=draw.rates,
                window_seconds=config.base.window_seconds,
                cache_dir=cache_dir,
            )
        )
        maps, imputed = screen_subject_maps(result.maps, draw.device)
        return ScenarioSubject(
            subject_id=subject_id,
            archetype_id=draw.profile.archetype_id,
            maps=maps,
            device=draw.device,
            generation=draw.generation,
            imputed_features=imputed,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
        )


def wemac_scenario(
    scale: str = "tiny",
    seed: int = 0,
    num_subjects: Optional[int] = None,
    chunk_size: int = 16,
    dynamics: Optional[PopulationDynamics] = None,
    devices: Optional[Tuple[DeviceProfile, ...]] = None,
) -> WEMACScenario:
    """Registry factory for the streamed WEMAC population."""
    if dynamics is None:
        dynamics = STATIONARY
    if devices is None:
        devices = (REFERENCE_DEVICE,)
    if scale == "tiny":
        config = WEMACConfig.tiny(seed=seed)
    elif scale == "small":
        config = WEMACConfig.small(seed=seed)
    elif scale == "full":
        config = WEMACConfig(seed=seed)
    else:
        raise ValueError(f"unknown WEMAC scale {scale!r}")
    if num_subjects is not None:
        config = replace(config, num_subjects=int(num_subjects))
    return WEMACScenario(
        config,
        chunk_size=chunk_size,
        dynamics=dynamics,
        devices=devices,
    )
