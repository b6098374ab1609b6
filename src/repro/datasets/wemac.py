"""Scale of the synthetic WEMAC-compatible corpus.

WEMAC (Miranda et al., 2022) is request-gated and unavailable offline,
so the reproduction generates a corpus with the same statistical
structure: ~44 volunteers drawn from latent archetypes, multi-modal
physiological recordings (BVP 64 Hz, GSR 4 Hz, SKT 4 Hz) under fear /
non-fear video stimuli, converted into ~800 labelled 2D feature maps
(123 features x W windows), exactly the pipeline input the paper uses.

:class:`WEMACConfig` sizes that corpus; the corpus itself is
``WEMACScenario(config).materialize()`` (:mod:`repro.scenarios.wemac`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .subject import NUM_ARCHETYPES


@dataclass(frozen=True)
class WEMACConfig:
    """Corpus-scale knobs.

    The defaults match the paper's setup (44 volunteers as implied by
    the 17/13/7/7 cluster sizes, ~18 maps each => ~800 feature maps).
    ``tiny()`` and ``small()`` provide fast variants for tests and
    benchmarks.
    """

    num_subjects: int = 44
    trials_per_subject: int = 18
    windows_per_map: int = 8
    window_seconds: float = 10.0
    fs_bvp: float = 64.0
    fs_gsr: float = 4.0
    fs_skt: float = 4.0
    subject_jitter: float = 0.12
    #: Relative archetype mix; normalized to num_subjects.  The default
    #: skew mirrors the paper's uneven 17/13/7/7 cluster sizes.
    archetype_weights: tuple = (0.39, 0.29, 0.16, 0.16)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_subjects < NUM_ARCHETYPES:
            raise ValueError(
                f"need at least {NUM_ARCHETYPES} subjects "
                f"(one per archetype), got {self.num_subjects}"
            )
        if self.trials_per_subject < 2:
            raise ValueError("need at least 2 trials per subject")
        if self.windows_per_map < 1:
            raise ValueError("windows_per_map must be >= 1")
        if len(self.archetype_weights) != NUM_ARCHETYPES:
            raise ValueError(
                f"archetype_weights must have {NUM_ARCHETYPES} entries"
            )

    @property
    def trial_seconds(self) -> float:
        return self.windows_per_map * self.window_seconds

    @staticmethod
    def tiny(seed: int = 0) -> "WEMACConfig":
        """Minutes-scale config for unit tests."""
        return WEMACConfig(
            num_subjects=8,
            trials_per_subject=4,
            windows_per_map=4,
            window_seconds=8.0,
            fs_bvp=32.0,
            seed=seed,
        )

    @staticmethod
    def small(seed: int = 0) -> "WEMACConfig":
        """Benchmark-scale config: all paper orderings emerge, runs fast."""
        return WEMACConfig(
            num_subjects=16,
            trials_per_subject=8,
            windows_per_map=6,
            window_seconds=8.0,
            fs_bvp=32.0,
            seed=seed,
        )

