"""Virtual volunteers: physiological archetypes and signal simulation.

The paper's central premise is that a population splits into groups of
users with *similar physiological responses* (clusterable), and that
the fear response differs across groups enough that one general model
underfits.  The simulator realizes exactly that structure:

* Each volunteer is drawn from one of four latent **archetypes** with
  distinct resting physiology (heart rate, skin conductance level,
  temperature) *and* distinct fear-response signatures (cardiac-
  dominant, electrodermal-dominant, blunted/inverted, labile).
* Per-volunteer jitter is added on top so subjects within an archetype
  are similar but not identical.

Because archetypes disagree about *how* fear manifests (e.g. HR up a
lot vs barely; many SCRs vs few), a single population model sees
conflicting input-label mappings, while per-cluster models see
consistent ones — reproducing Table I's General < CL ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .stimuli import FEAR, StimulusSchedule


@dataclass(frozen=True)
class ArchetypeParams:
    """Latent physiological parameters shared by one archetype."""

    name: str
    # Resting state.
    rest_hr_bpm: float  # resting heart rate
    hrv_std: float  # beat-interval jitter (s)
    scl_base: float  # tonic skin conductance level (uS)
    scr_rate_rest: float  # spontaneous SCRs per minute
    skt_base: float  # baseline skin temperature (degC)
    # Fear response deltas.
    fear_hr_delta: float  # bpm shift under fear (may be negative)
    fear_hrv_scale: float  # multiplicative HRV change under fear
    fear_scr_rate: float  # SCRs per minute under fear
    fear_scr_amp: float  # mean SCR amplitude under fear (uS)
    fear_scl_drift: float  # tonic drift under fear (uS per minute)
    fear_skt_slope: float  # temperature slope under fear (degC per minute)
    # Pulse morphology.
    pulse_amp: float  # BVP pulse amplitude (a.u.)
    fear_pulse_amp_scale: float  # amplitude change under fear


#: The four canonical archetypes.  Resting levels separate them in
#: feature space (clusterable without labels); fear deltas make their
#: label mappings mutually inconsistent for a population model.
ARCHETYPES: Tuple[ArchetypeParams, ...] = (
    ArchetypeParams(
        name="cardiac_responder",
        rest_hr_bpm=62.0,
        hrv_std=0.045,
        scl_base=2.0,
        scr_rate_rest=1.0,
        skt_base=33.5,
        fear_hr_delta=18.0,
        fear_hrv_scale=0.55,
        fear_scr_rate=3.0,
        fear_scr_amp=0.25,
        fear_scl_drift=0.05,
        fear_skt_slope=-0.02,
        pulse_amp=1.0,
        fear_pulse_amp_scale=0.75,
    ),
    ArchetypeParams(
        name="electrodermal_responder",
        rest_hr_bpm=71.0,
        hrv_std=0.035,
        scl_base=5.5,
        scr_rate_rest=2.5,
        skt_base=32.3,
        fear_hr_delta=5.0,
        fear_hrv_scale=0.85,
        fear_scr_rate=11.0,
        fear_scr_amp=0.8,
        fear_scl_drift=0.5,
        fear_skt_slope=-0.05,
        pulse_amp=0.9,
        fear_pulse_amp_scale=0.95,
    ),
    ArchetypeParams(
        name="blunted_responder",
        rest_hr_bpm=80.0,
        hrv_std=0.028,
        scl_base=9.0,
        scr_rate_rest=4.0,
        skt_base=34.4,
        fear_hr_delta=-6.0,  # paradoxical deceleration (freeze response)
        fear_hrv_scale=1.25,
        fear_scr_rate=5.5,
        fear_scr_amp=0.15,
        fear_scl_drift=-0.1,
        fear_skt_slope=0.03,  # vasodilation instead of constriction
        pulse_amp=1.2,
        fear_pulse_amp_scale=1.2,
    ),
    ArchetypeParams(
        name="labile_responder",
        rest_hr_bpm=90.0,
        hrv_std=0.06,
        scl_base=13.0,
        scr_rate_rest=7.0,
        skt_base=31.2,
        fear_hr_delta=10.0,
        fear_hrv_scale=1.6,
        fear_scr_rate=14.0,
        fear_scr_amp=0.45,
        fear_scl_drift=0.3,
        fear_skt_slope=-0.09,
        pulse_amp=0.7,
        fear_pulse_amp_scale=0.6,
    ),
)

NUM_ARCHETYPES = len(ARCHETYPES)


@dataclass(frozen=True)
class SubjectProfile:
    """One virtual volunteer: an archetype plus individual jitter."""

    subject_id: int
    archetype_id: int
    params: ArchetypeParams


def sample_subject(
    subject_id: int,
    archetype_id: int,
    rng: np.random.Generator,
    jitter: float = 0.12,
    base_params: Optional[ArchetypeParams] = None,
) -> SubjectProfile:
    """Draw an individual around an archetype.

    ``jitter`` is the relative std of multiplicative noise applied to
    every archetype parameter (additive for parameters near zero).
    ``base_params`` overrides the canonical archetype parameters —
    scenario population dynamics pass drifted blends here while keeping
    the canonical ``archetype_id`` as ground truth.
    """
    if not 0 <= archetype_id < NUM_ARCHETYPES:
        raise ValueError(
            f"archetype_id must be in [0, {NUM_ARCHETYPES}), got {archetype_id}"
        )
    base = base_params if base_params is not None else ARCHETYPES[archetype_id]

    def jit(value: float, scale: float = 1.0) -> float:
        spread = abs(value) * jitter * scale
        if spread < 1e-9:
            spread = jitter * scale
        return float(value + rng.normal(0.0, spread))

    params = replace(
        base,
        rest_hr_bpm=max(45.0, jit(base.rest_hr_bpm)),
        hrv_std=max(0.005, jit(base.hrv_std)),
        scl_base=max(0.3, jit(base.scl_base)),
        scr_rate_rest=max(0.1, jit(base.scr_rate_rest)),
        skt_base=jit(base.skt_base, scale=0.2),
        fear_hr_delta=jit(base.fear_hr_delta),
        fear_hrv_scale=max(0.2, jit(base.fear_hrv_scale)),
        fear_scr_rate=max(0.2, jit(base.fear_scr_rate)),
        fear_scr_amp=max(0.02, jit(base.fear_scr_amp)),
        fear_scl_drift=jit(base.fear_scl_drift),
        fear_skt_slope=jit(base.fear_skt_slope),
        pulse_amp=max(0.2, jit(base.pulse_amp)),
        fear_pulse_amp_scale=max(0.2, jit(base.fear_pulse_amp_scale)),
    )
    return SubjectProfile(subject_id=subject_id, archetype_id=archetype_id, params=params)


class PhysiologicalSimulator:
    """Generate raw BVP / GSR / SKT traces for a subject and schedule.

    The model is deliberately mechanistic rather than statistical:
    BVP is a pulse train whose instantaneous rate follows the subject's
    HR (label-conditioned); GSR is tonic drift plus discrete SCR events
    with exponential recovery; SKT is a slow thermal trend.  All the
    paper's 123 features respond to these mechanisms.
    """

    def __init__(self, fs_bvp: float = 64.0, fs_gsr: float = 4.0, fs_skt: float = 4.0):
        if min(fs_bvp, fs_gsr, fs_skt) <= 0:
            raise ValueError("sampling rates must be positive")
        self.fs_bvp = float(fs_bvp)
        self.fs_gsr = float(fs_gsr)
        self.fs_skt = float(fs_skt)

    # -- per-channel generators ------------------------------------------
    def _bvp_trial(
        self,
        params: ArchetypeParams,
        intensity: float,
        duration: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        fs = self.fs_bvp
        n = int(duration * fs)
        hr = params.rest_hr_bpm + intensity * params.fear_hr_delta
        hrv = params.hrv_std * (1.0 + intensity * (params.fear_hrv_scale - 1.0))
        amp = params.pulse_amp * (
            1.0 + intensity * (params.fear_pulse_amp_scale - 1.0)
        )
        # Build beat times with jittered inter-beat intervals.
        mean_ibi = 60.0 / hr
        beat_times = []
        t = float(rng.uniform(0, mean_ibi))
        while t < duration + 2 * mean_ibi:
            beat_times.append(t)
            t += max(0.25, mean_ibi + rng.normal(0.0, hrv))
        signal = np.zeros(n)
        ts = np.arange(n) / fs
        # Each beat contributes a systolic upstroke + dicrotic bump,
        # modelled as two Gaussians.
        for bt in beat_times:
            local = ts - bt
            mask = (local > -0.3) & (local < 0.7)
            if not mask.any():
                continue
            lt = local[mask]
            pulse = amp * (
                np.exp(-0.5 * (lt / 0.08) ** 2)
                + 0.35 * np.exp(-0.5 * ((lt - 0.25) / 0.09) ** 2)
            )
            signal[mask] += pulse
        # Respiratory baseline wander + sensor noise.
        resp = 0.12 * amp * np.sin(2 * np.pi * 0.25 * ts + rng.uniform(0, 2 * np.pi))
        noise = 0.07 * amp * rng.normal(size=n)
        return signal + resp + noise

    def _gsr_trial(
        self,
        params: ArchetypeParams,
        intensity: float,
        duration: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        fs = self.fs_gsr
        n = int(duration * fs)
        ts = np.arange(n) / fs
        rest_amp = max(0.03, 0.4 * params.fear_scr_amp)
        scr_rate = params.scr_rate_rest + intensity * (
            params.fear_scr_rate - params.scr_rate_rest
        )
        scr_amp = rest_amp + intensity * (params.fear_scr_amp - rest_amp)
        drift = intensity * params.fear_scl_drift / 60.0
        tonic = params.scl_base + drift * ts + 0.02 * np.sin(2 * np.pi * 0.01 * ts)
        phasic = np.zeros(n)
        # Poisson SCR arrivals; each SCR: 1 s rise, ~3 s exponential decay.
        expected = scr_rate * duration / 60.0
        num_scrs = rng.poisson(expected)
        for _ in range(num_scrs):
            onset = rng.uniform(0, max(duration - 4.0, 0.5))
            amplitude = max(0.01, rng.normal(scr_amp, 0.3 * scr_amp))
            local = ts - onset
            rise = np.clip(local / 1.0, 0.0, 1.0)
            decay = np.exp(-np.clip(local - 1.0, 0.0, None) / 3.0)
            phasic += amplitude * np.where(local > 0, rise * decay, 0.0)
        noise = 0.02 * rng.normal(size=n)
        return tonic + phasic + noise

    def _skt_trial(
        self,
        params: ArchetypeParams,
        intensity: float,
        duration: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        fs = self.fs_skt
        n = int(duration * fs)
        ts = np.arange(n) / fs
        slope = intensity * params.fear_skt_slope / 60.0
        base = params.skt_base + slope * ts
        # Slow thermal oscillation + quantization-scale noise.
        wave = 0.03 * np.sin(2 * np.pi * 0.005 * ts + rng.uniform(0, 2 * np.pi))
        noise = 0.015 * rng.normal(size=n)
        return base + wave + noise

    # -- public API -------------------------------------------------------
    def simulate_trial(
        self,
        profile: SubjectProfile,
        label: int,
        duration: float,
        rng: np.random.Generator,
    ) -> Dict[str, np.ndarray]:
        """Generate one trial's raw traces: keys 'bvp', 'gsr', 'skt'.

        Emotional *intensity* varies per trial: fear videos elicit a
        response of random strength, and some neutral videos still
        produce mild arousal.  This class overlap is what keeps the
        classification task realistically hard (and leaves headroom for
        fine-tuning to exploit subject-specific response styles).
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if label == FEAR:
            intensity = float(rng.uniform(0.45, 1.25))
        else:
            intensity = float(rng.uniform(0.0, 0.35))
        return {
            "bvp": self._bvp_trial(profile.params, intensity, duration, rng),
            "gsr": self._gsr_trial(profile.params, intensity, duration, rng),
            "skt": self._skt_trial(profile.params, intensity, duration, rng),
        }

    def simulate_schedule(
        self,
        profile: SubjectProfile,
        schedule: StimulusSchedule,
        rng: np.random.Generator,
    ) -> List[Dict[str, np.ndarray]]:
        """Generate raw traces for every trial in a schedule."""
        return [
            self.simulate_trial(profile, trial.label, trial.duration_seconds, rng)
            for trial in schedule.trials
        ]
