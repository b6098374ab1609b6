"""Dependency-free ASCII visualization for terminals and logs.

The repository runs in environments without plotting libraries, so the
diagnostics the examples print (a metric trace, the cold-start cluster
scores) render as text.  Every function returns a string (print it,
log it, or snapshot it in tests).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

#: Eight-level block characters for sparklines.
_BLOCKS = " ▁▂▃▄▅▆▇█"


def _normalize(values: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < 1e-12:
        return np.zeros_like(values, dtype=np.float64)
    return (values - lo) / (hi - lo)


def sparkline(values: Sequence[float]) -> str:
    """One-line block-character trace of a series."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return ""
    levels = np.round(_normalize(values) * (len(_BLOCKS) - 2)).astype(int)
    return "".join(_BLOCKS[1 + level] for level in levels)


def assignment_scores(scores: Dict[int, float]) -> str:
    """Bar chart of cold-start CA scores (lower bar = better fit)."""
    if not scores:
        return ""
    label_width = max(len(f"cluster {c}") for c in scores)
    max_value = max(abs(float(v)) for v in scores.values()) or 1.0
    lines = []
    for c in sorted(scores):
        label, value = f"cluster {c}", float(scores[c])
        bar = "█" * int(round(abs(value) / max_value * 40))
        lines.append(f"{label:<{label_width}} |{bar:<40} {value:.2f}")
    return "\n".join(lines)
