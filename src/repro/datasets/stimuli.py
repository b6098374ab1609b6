"""Stimulus schedules: the video protocol that elicits emotions.

WEMAC shows each volunteer a sequence of validated emotion-eliciting
video clips.  Here a schedule is a list of trials, each with a binary
label (fear / non-fear, the paper's target task) and a duration that
the simulator turns into raw physiological signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Binary task labels used throughout the reproduction.
NON_FEAR = 0
FEAR = 1


@dataclass(frozen=True)
class Trial:
    """One video-watching trial."""

    label: int
    duration_seconds: float

    def __post_init__(self) -> None:
        if self.label not in (NON_FEAR, FEAR):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration_seconds}"
            )


@dataclass(frozen=True)
class StimulusSchedule:
    """An ordered list of trials one volunteer experiences."""

    trials: tuple

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def total_duration(self) -> float:
        return float(sum(t.duration_seconds for t in self.trials))

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trials], dtype=np.int64)


def balanced_schedule(
    num_trials: int,
    trial_seconds: float,
    rng: np.random.Generator,
) -> StimulusSchedule:
    """Half fear / half non-fear trials in randomized order.

    With an odd count the extra trial is non-fear (neutral videos
    outnumber fear videos in WEMAC).
    """
    if num_trials < 2:
        raise ValueError(f"need at least 2 trials, got {num_trials}")
    n_fear = num_trials // 2
    labels = [FEAR] * n_fear + [NON_FEAR] * (num_trials - n_fear)
    order = rng.permutation(num_trials)
    trials = tuple(Trial(labels[i], trial_seconds) for i in order)
    return StimulusSchedule(trials)
