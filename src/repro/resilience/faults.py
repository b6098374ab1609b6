"""Seeded, composable fault plans for chaos-testing the edge pipeline.

A :class:`FaultPlan` bundles named faults — per-channel dropout, NaN
bursts, flatlines, sample loss, clock skew, value clipping, checkpoint
bit-corruption — behind one seed, so the exact same corruption can be
replayed across runs (the chaos gate requires bit-identical outcomes
for the same seed).  Plans wrap the three surfaces a wearable
deployment can lose:

* **sample streams** — ``plan.apply_to_signals({"bvp": ..., ...}, fs)``
* **feature maps** — ``plan.apply_to_feature_map(fmap)``
* **checkpoint files** — ``plan.apply_to_checkpoint(path)``

Every realistic fault the paper's deployment story can encounter is
registered in :data:`FAULT_PLANS`; ``tests/resilience`` sweeps that
registry through the full cold-start pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..signals.feature_map import FeatureMap
from ..signals.quality import (
    inject_clipping,
    inject_dropout,
    inject_motion_spikes,
)

SignalDict = Dict[str, np.ndarray]


def _require_channel(signals: Mapping[str, np.ndarray], channel: str) -> np.ndarray:
    if channel not in signals:
        raise ValueError(
            f"fault targets channel {channel!r} but the stream only has "
            f"{sorted(signals)}"
        )
    return np.asarray(signals[channel], dtype=np.float64)


class Fault:
    """One corruption primitive; subclasses override the surface they hit."""

    def apply_to_signals(
        self, signals: SignalDict, fs: Mapping[str, float], rng: np.random.Generator
    ) -> SignalDict:
        return signals

    def apply_to_feature_map(
        self, fmap: FeatureMap, rng: np.random.Generator
    ) -> FeatureMap:
        return fmap

    def apply_to_checkpoint(self, path: Path, rng: np.random.Generator) -> Path:
        return path


@dataclass
class ChannelDropout(Fault):
    """Sensor loses skin contact: a contiguous flatline over ``fraction``."""

    channel: str
    fraction: float = 0.5
    hold_value: Optional[float] = None

    def apply_to_signals(self, signals, fs, rng):
        x = _require_channel(signals, self.channel)
        out = dict(signals)
        out[self.channel] = inject_dropout(
            x, rng, self.fraction, fs[self.channel], hold_value=self.hold_value
        )
        return out


@dataclass
class Flatline(Fault):
    """Channel is completely dead: every sample pinned to one value."""

    channel: str
    value: float = 0.0

    def apply_to_signals(self, signals, fs, rng):
        x = _require_channel(signals, self.channel)
        out = dict(signals)
        out[self.channel] = np.full_like(x, self.value)
        return out


@dataclass
class NaNBurst(Fault):
    """A contiguous run of NaN samples (ADC glitch / bus error)."""

    channel: str
    fraction: float = 0.3

    def apply_to_signals(self, signals, fs, rng):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        x = _require_channel(signals, self.channel).copy()
        burst = max(1, int(self.fraction * x.size))
        start = int(rng.integers(0, max(1, x.size - burst)))
        x[start : start + burst] = np.nan
        out = dict(signals)
        out[self.channel] = x
        return out


@dataclass
class SampleLoss(Fault):
    """Random samples dropped in transit; the channel shortens."""

    channel: str
    fraction: float = 0.2

    def apply_to_signals(self, signals, fs, rng):
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must be in [0, 1)")
        x = _require_channel(signals, self.channel)
        keep = rng.random(x.size) >= self.fraction
        if not keep.any():
            keep[0] = True
        out = dict(signals)
        out[self.channel] = x[keep]
        return out


@dataclass
class ClockSkew(Fault):
    """Channel clock runs fast/slow: resampled to ``factor`` x length."""

    channel: str
    factor: float = 0.9

    def apply_to_signals(self, signals, fs, rng):
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        x = _require_channel(signals, self.channel)
        n_out = max(2, int(round(x.size * self.factor)))
        old_t = np.linspace(0.0, 1.0, x.size)
        new_t = np.linspace(0.0, 1.0, n_out)
        out = dict(signals)
        out[self.channel] = np.interp(new_t, old_t, x)
        return out


@dataclass
class ValueClipping(Fault):
    """ADC rails saturate the channel at a fraction of its range."""

    channel: str
    fraction_of_range: float = 0.5

    def apply_to_signals(self, signals, fs, rng):
        x = _require_channel(signals, self.channel)
        out = dict(signals)
        out[self.channel] = inject_clipping(x, rng, self.fraction_of_range)
        return out


@dataclass
class MotionBurst(Fault):
    """Motion artifacts: biphasic spikes at ``rate_per_minute``."""

    channel: str
    rate_per_minute: float = 40.0

    def apply_to_signals(self, signals, fs, rng):
        x = _require_channel(signals, self.channel)
        out = dict(signals)
        out[self.channel] = inject_motion_spikes(
            x, rng, self.rate_per_minute, fs[self.channel]
        )
        return out


@dataclass
class FeatureNaN(Fault):
    """Random cells of a feature map replaced with NaN."""

    fraction: float = 0.2

    def apply_to_feature_map(self, fmap, rng):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        values = fmap.values.copy()
        mask = rng.random(values.shape) < self.fraction
        values[mask] = np.nan
        return FeatureMap(values, label=fmap.label, subject_id=fmap.subject_id)


CHECKPOINT_CORRUPTION_MODES = ("truncate", "bitflip", "garbage")


@dataclass
class CheckpointCorruption(Fault):
    """Damage a checkpoint file in place (models a bad flash / transfer).

    Modes: ``truncate`` keeps only the leading ``keep_fraction`` bytes;
    ``bitflip`` flips ``n_flips`` random bits; ``garbage`` replaces the
    whole file with random bytes.
    """

    mode: str = "truncate"
    keep_fraction: float = 0.6
    n_flips: int = 16

    def apply_to_checkpoint(self, path, rng):
        if self.mode not in CHECKPOINT_CORRUPTION_MODES:
            raise ValueError(
                f"mode must be one of {CHECKPOINT_CORRUPTION_MODES}, "
                f"got {self.mode!r}"
            )
        path = Path(path)
        raw = bytearray(path.read_bytes())
        if self.mode == "truncate":
            raw = raw[: max(1, int(len(raw) * self.keep_fraction))]
        elif self.mode == "bitflip":
            for _ in range(self.n_flips if raw else 0):
                pos = int(rng.integers(0, len(raw)))
                raw[pos] ^= 1 << int(rng.integers(0, 8))
        else:  # garbage
            raw = bytearray(rng.integers(0, 256, size=len(raw), dtype=np.uint8))
        path.write_bytes(bytes(raw))
        return path


@dataclass
class FaultPlan:
    """A named, seeded composition of faults applied in order.

    The plan owns the seed: calling any ``apply_to_*`` without an
    explicit ``rng`` derives a fresh generator from ``seed``, so the
    same plan always produces the same corruption — the property the
    chaos gate's same-seed/same-outcome check rests on.
    """

    name: str
    faults: Tuple[Fault, ...]
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault plan needs a name")
        self.faults = tuple(self.faults)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @property
    def targets_checkpoint(self) -> bool:
        return any(isinstance(f, CheckpointCorruption) for f in self.faults)

    @property
    def targets_feature_map(self) -> bool:
        return any(isinstance(f, FeatureNaN) for f in self.faults)

    def apply_to_signals(
        self,
        signals: Mapping[str, np.ndarray],
        fs: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> SignalDict:
        rng = rng if rng is not None else self.rng()
        out: SignalDict = {
            k: np.asarray(v, dtype=np.float64) for k, v in signals.items()
        }
        for fault in self.faults:
            out = fault.apply_to_signals(out, fs, rng)
        return out

    def apply_to_feature_map(
        self, fmap: FeatureMap, rng: Optional[np.random.Generator] = None
    ) -> FeatureMap:
        rng = rng if rng is not None else self.rng()
        for fault in self.faults:
            fmap = fault.apply_to_feature_map(fmap, rng)
        return fmap

    def apply_to_checkpoint(
        self, path: Union[str, Path], rng: Optional[np.random.Generator] = None
    ) -> Path:
        rng = rng if rng is not None else self.rng()
        path = Path(path)
        for fault in self.faults:
            path = fault.apply_to_checkpoint(path, rng)
        return path


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

FAULT_PLANS: Dict[str, FaultPlan] = {}


def register_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Add a plan to the global registry the chaos suite sweeps."""
    if plan.name in FAULT_PLANS:
        raise ValueError(f"duplicate fault plan name {plan.name!r}")
    FAULT_PLANS[plan.name] = plan
    return plan


def get_fault_plan(name: str) -> FaultPlan:
    if name not in FAULT_PLANS:
        raise KeyError(
            f"unknown fault plan {name!r}; registered: {sorted(FAULT_PLANS)}"
        )
    return FAULT_PLANS[name]


def registered_fault_plans() -> Tuple[FaultPlan, ...]:
    """Every registered plan, in a stable name order."""
    return tuple(FAULT_PLANS[name] for name in sorted(FAULT_PLANS))


def _register_builtins() -> None:
    builtin = (
        FaultPlan(
            "gsr_dead",
            (Flatline("gsr", value=0.0),),
            seed=11,
            description="GSR electrode fully detached: dead-zero channel",
        ),
        FaultPlan(
            "gsr_dropout",
            (ChannelDropout("gsr", fraction=0.6),),
            seed=12,
            description="GSR loses contact for 60% of the window (held value)",
        ),
        FaultPlan(
            "skt_flatline",
            (Flatline("skt", value=33.0),),
            seed=13,
            description="SKT thermistor stuck at a constant reading",
        ),
        FaultPlan(
            "bvp_motion",
            (MotionBurst("bvp", rate_per_minute=60.0), ValueClipping("bvp", 0.6)),
            seed=14,
            description="wrist motion: spike bursts plus rail clipping on BVP",
        ),
        FaultPlan(
            "bvp_nan_burst",
            (NaNBurst("bvp", fraction=0.4),),
            seed=15,
            description="optical sensor glitch: 40% NaN burst on BVP",
        ),
        FaultPlan(
            "multi_channel_dropout",
            (ChannelDropout("bvp", fraction=0.5), Flatline("gsr")),
            seed=16,
            description="loose strap: BVP half-dropout and GSR dead together",
        ),
        FaultPlan(
            "sample_loss",
            (SampleLoss("bvp", fraction=0.2), SampleLoss("gsr", fraction=0.2)),
            seed=17,
            description="BLE packet loss: 20% of samples dropped in transit",
        ),
        FaultPlan(
            "clock_skew",
            (ClockSkew("gsr", factor=0.88),),
            seed=18,
            description="GSR clock runs slow: channel covers 12% less time",
        ),
        FaultPlan(
            "feature_nan",
            (FeatureNaN(fraction=0.3),),
            seed=19,
            description="corrupted feature cache: 30% NaN cells in the map",
        ),
        FaultPlan(
            "checkpoint_truncated",
            (CheckpointCorruption(mode="truncate"),),
            seed=20,
            description="interrupted checkpoint download: file cut at 60%",
        ),
        FaultPlan(
            "checkpoint_bitflip",
            (CheckpointCorruption(mode="bitflip", n_flips=24),),
            seed=21,
            description="bad flash sector: 24 random bit flips in the .npz",
        ),
        FaultPlan(
            "checkpoint_garbage",
            (CheckpointCorruption(mode="garbage"),),
            seed=22,
            description="wrong file shipped: checkpoint replaced by noise",
        ),
    )
    for plan in builtin:
        register_fault_plan(plan)


_register_builtins()
