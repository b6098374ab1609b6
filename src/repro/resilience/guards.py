"""Runtime screens between raw faults and the classifier.

Two guards, for the feature and checkpoint surfaces the faults in
:mod:`.faults` attack (signal windows are gated by
:func:`repro.signals.quality.quality_report`):

* :func:`screen_features` — NaN/Inf detection on feature vectors (the
  last line of defense before the CNN-LSTM sees a number).  It reports;
  the caller imputes (:func:`impute_features`).
* :func:`verify_checkpoint` — checkpoint integrity: checksum (stored in
  the ``.npz`` by :func:`repro.nn.checkpoint.save_model`) plus the
  static graph validator over the decoded architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CheckpointError


@dataclass
class FeatureScreenReport:
    """Outcome of NaN/Inf screening over one feature vector."""

    finite: bool
    bad_indices: Tuple[int, ...]
    size: int

    @property
    def bad_fraction(self) -> float:
        return len(self.bad_indices) / self.size if self.size else 0.0


def screen_features(vector: np.ndarray) -> FeatureScreenReport:
    """Locate non-finite entries in a feature vector."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    bad = np.flatnonzero(~np.isfinite(vector))
    return FeatureScreenReport(
        finite=bad.size == 0,
        bad_indices=tuple(int(i) for i in bad),
        size=int(vector.size),
    )


def impute_features(
    vector: np.ndarray,
    bad_indices: Sequence[int],
    fallback: Optional[np.ndarray] = None,
    fill: float = 0.0,
) -> np.ndarray:
    """Replace the given entries with ``fallback`` values (or ``fill``).

    ``fallback`` is typically a running mean of recent clean vectors —
    the "impute a dead modality's features" arm of the degradation
    policy.  Non-finite fallback entries fall through to ``fill`` so
    the result is always finite.
    """
    out = np.asarray(vector, dtype=np.float64).copy()
    idx = np.asarray(list(bad_indices), dtype=np.int64)
    if idx.size == 0:
        return out
    if fallback is not None:
        fallback = np.asarray(fallback, dtype=np.float64)
        if fallback.shape != out.shape:
            raise ValueError(
                f"fallback shape {fallback.shape} != vector shape {out.shape}"
            )
        replacement = fallback[idx]
        replacement[~np.isfinite(replacement)] = fill
    else:
        replacement = np.full(idx.size, fill)
    out[idx] = replacement
    return out


@dataclass
class CheckpointVerification:
    """Successful checkpoint verification summary."""

    path: str
    checksum_present: bool
    num_layers: int
    num_params: int
    output_shape: Optional[Tuple[int, ...]] = None


def verify_checkpoint(
    path: Union[str, Path],
    input_shape: Optional[Tuple[int, ...]] = None,
) -> CheckpointVerification:
    """Verify a checkpoint end to end; raise ``CheckpointError`` if bad.

    Loads the file (which validates structure and the stored SHA-256
    checksum), and — when ``input_shape`` is given — runs the static
    graph validator over the decoded architecture, so a checkpoint that
    parses but cannot run on the deployment's feature-map shape is
    rejected before it ships.
    """
    from ..analysis.graph import validate_model
    from ..analysis.shapes import GraphValidationError
    from ..nn.checkpoint import CHECKSUM_KEY, load_model

    path = Path(path)
    model = load_model(path)  # raises CheckpointError on any corruption
    checksum_present = False
    try:
        with np.load(path, allow_pickle=False) as data:
            checksum_present = CHECKSUM_KEY in data.files
    except Exception as exc:  # pragma: no cover - load_model already passed
        raise CheckpointError(
            f"checkpoint {path} became unreadable during verification: {exc}"
        ) from exc
    output_shape: Optional[Tuple[int, ...]] = None
    if input_shape is not None:
        try:
            report = validate_model(model, input_shape)
        except GraphValidationError as exc:
            raise CheckpointError(
                f"checkpoint {path} fails graph validation for input shape "
                f"{tuple(input_shape)}: {exc}"
            ) from exc
        output_shape = tuple(report.output_shape)
    return CheckpointVerification(
        path=str(path),
        checksum_present=checksum_present,
        num_layers=len(model.layers),
        num_params=int(model.num_params),
        output_shape=output_shape,
    )
