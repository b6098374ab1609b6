"""The 123-feature extractor combining BVP, GSR and SKT channels.

This is the feature-map generation front end of CLEAR (Section III-A.1
of the paper): 84 BVP + 34 GSR + 5 SKT = 123 features per time window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bvp import BVP_FEATURE_NAMES, bvp_feature_columns
from .gsr import GSR_FEATURE_NAMES, gsr_feature_columns
from .skt import SKT_FEATURE_NAMES, skt_feature_columns
from .windows import num_windows, sliding_windows

#: Canonical ordering of all 123 features (BVP, then GSR, then SKT).
ALL_FEATURE_NAMES: List[str] = (
    BVP_FEATURE_NAMES + GSR_FEATURE_NAMES + SKT_FEATURE_NAMES
)

NUM_FEATURES = len(ALL_FEATURE_NAMES)


@dataclass
class SensorRates:
    """Per-channel sampling rates in Hz."""

    bvp: float = 64.0
    gsr: float = 4.0
    skt: float = 4.0

    def validate(self) -> None:
        for name in ("bvp", "gsr", "skt"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} rate must be positive")


@dataclass
class FeatureExtractor:
    """Windowed extractor producing 123-dimensional feature vectors.

    Parameters
    ----------
    rates:
        Sampling rates for the three channels.
    window_seconds:
        Analysis window duration (the paper windows each stimulus
        response; 20 s is a typical choice for fear detection).
    step_seconds:
        Hop between consecutive windows; defaults to non-overlapping.
    """

    rates: SensorRates = field(default_factory=SensorRates)
    window_seconds: float = 20.0
    step_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        self.rates.validate()
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.step_seconds is None:
            self.step_seconds = self.window_seconds
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")

    @property
    def feature_names(self) -> List[str]:
        return list(ALL_FEATURE_NAMES)

    def _extract(
        self, bvp: np.ndarray, gsr: np.ndarray, skt: np.ndarray
    ) -> np.ndarray:
        """(windows, 123) features of aligned (windows, samples) arrays."""
        columns: Dict[str, np.ndarray] = {}
        columns.update(bvp_feature_columns(bvp, self.rates.bvp))
        columns.update(gsr_feature_columns(gsr, self.rates.gsr))
        columns.update(skt_feature_columns(skt, self.rates.skt))
        rows = np.stack([columns[name] for name in ALL_FEATURE_NAMES], axis=1)
        # Guard against numerical blowups (entropies, ratios) so downstream
        # clustering and DL training never see NaN/inf.
        return np.nan_to_num(rows, nan=0.0, posinf=0.0, neginf=0.0)

    def extract_window(
        self, bvp: np.ndarray, gsr: np.ndarray, skt: np.ndarray
    ) -> np.ndarray:
        """Extract the 123 features from one aligned window triple.

        This is the one-row case of :meth:`extract_recording`.
        """
        return self._extract(
            *(np.asarray(x, dtype=np.float64).reshape(1, -1) for x in (bvp, gsr, skt))
        )[0]

    def _geometry(self) -> List[Tuple[int, int]]:
        """(window, step) in samples for BVP, GSR and SKT."""
        return [
            (int(self.window_seconds * fs), int(self.step_seconds * fs))
            for fs in (self.rates.bvp, self.rates.gsr, self.rates.skt)
        ]

    def window_counts(self, n_bvp: int, n_gsr: int, n_skt: int) -> int:
        """Number of aligned windows available across the three channels."""
        return min(
            num_windows(n, w, s)
            for n, (w, s) in zip((n_bvp, n_gsr, n_skt), self._geometry())
        )

    def extract_recording(
        self, bvp: np.ndarray, gsr: np.ndarray, skt: np.ndarray
    ) -> np.ndarray:
        """Slide over a full recording; returns (num_windows, 123).

        The three channels are segmented over the same wall-clock grid
        so window *i* covers the same time span in each channel.  Each
        channel is cut once into a (windows, samples) array and every
        feature family runs over that array; row *i* is bit-identical
        to :meth:`extract_window` on window *i*.
        """
        channels = [
            np.asarray(x, dtype=np.float64) for x in (bvp, gsr, skt)
        ]
        count = self.window_counts(*(x.size for x in channels))
        if count == 0:
            return np.empty((0, NUM_FEATURES), dtype=np.float64)
        windows = [
            sliding_windows(x, w, s)[:count]
            for x, (w, s) in zip(channels, self._geometry())
        ]
        return self._extract(*windows)
