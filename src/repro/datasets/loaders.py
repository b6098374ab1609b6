"""Dataset splitting: per-subject label-fraction splits."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..signals.feature_map import FeatureMap


def split_maps_by_fraction(
    maps: Sequence[FeatureMap],
    fraction: float,
    rng: np.random.Generator,
    stratified: bool = True,
) -> Tuple[List[FeatureMap], List[FeatureMap]]:
    """Split one subject's maps into (selected, remainder) by fraction.

    Used for the paper's protocols: 10 % unlabeled data for cluster
    assignment, 20 % labelled data for fine-tuning (remainder is the
    test set).  Stratification keeps both classes represented in the
    selected portion whenever possible.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    maps = list(maps)
    if len(maps) < 2:
        raise ValueError("need at least 2 maps to split")

    n_select = max(1, int(round(fraction * len(maps))))
    n_select = min(n_select, len(maps) - 1)

    if stratified:
        labels = np.array([m.label for m in maps])
        selected_idx: List[int] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(labels == cls)
            cls_idx = rng.permutation(cls_idx)
            take = max(1, int(round(fraction * cls_idx.size)))
            selected_idx.extend(cls_idx[:take].tolist())
        selected_idx = selected_idx[:n_select] if len(selected_idx) > n_select else selected_idx
        chosen = set(selected_idx)
    else:
        order = rng.permutation(len(maps))
        chosen = set(order[:n_select].tolist())

    selected = [m for i, m in enumerate(maps) if i in chosen]
    remainder = [m for i, m in enumerate(maps) if i not in chosen]
    if not remainder:
        remainder = [selected.pop()]
    return selected, remainder
