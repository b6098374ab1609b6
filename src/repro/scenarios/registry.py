"""Named scenario registry: one string names a full population spec.

Benchmarks, CI smoke jobs, and the serving load generator select
populations by name + scale instead of constructing configs by hand,
so "run the cross-scenario matrix" is a loop over
:func:`available_scenarios`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Scenario
from .circumplex import circumplex_scenario
from .stress import stress_scenario
from .wemac import wemac_scenario

#: Subject counts per symbolic scale, for the feature-space scenarios.
#: (WEMAC interprets scales through its own config variants.)
SCALES: Dict[str, int] = {
    "tiny": 12,
    "small": 48,
    "bench": 400,
    "scale": 100_000,
}


def _wemac(scale: str, seed: int, **overrides) -> Scenario:
    wemac_scale = {"tiny": "tiny", "small": "small"}.get(scale, "small")
    num_subjects = overrides.pop("num_subjects", None)
    if num_subjects is None and scale in ("bench", "scale"):
        # Mechanistic simulation is too expensive at 100k; the bench
        # scale caps WEMAC at a population where full physiological
        # simulation still finishes in seconds.
        num_subjects = 48
    return wemac_scenario(
        scale=wemac_scale, seed=seed, num_subjects=num_subjects, **overrides
    )


def _circumplex(scale: str, seed: int, **overrides) -> Scenario:
    overrides.setdefault("num_subjects", SCALES[scale])
    return circumplex_scenario(seed=seed, **overrides)


def _stress(scale: str, seed: int, **overrides) -> Scenario:
    overrides.setdefault("num_subjects", SCALES[scale])
    return stress_scenario(seed=seed, **overrides)


SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    "wemac": _wemac,
    "circumplex": _circumplex,
    "stress": _stress,
}


def available_scenarios() -> List[str]:
    """Registered scenario names, in deterministic order."""
    return sorted(SCENARIO_FACTORIES)


def get_scenario(name: str, scale: str = "tiny", seed: int = 0, **overrides):
    """Build a registered scenario at a symbolic scale."""
    if name not in SCENARIO_FACTORIES:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    return SCENARIO_FACTORIES[name](scale, seed, **overrides)
