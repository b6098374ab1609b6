"""Compute backends for the nn substrate.

Every model runs on :class:`OptimizedBackend`: preallocated workspaces,
stacked recurrent caches and batched BPTT GEMMs, with float64 forward
passes bit-identical to :class:`ReferenceBackend`.  The reference
backend stays as the float64 oracle the tests compare against (and the
class the optimized one subclasses); pin it on a layer or model with
``set_backend(ReferenceBackend())``.  Backends are stateless: all
per-layer caches live in the layers' own state dicts.
"""

from __future__ import annotations

from .base import ComputeBackend, PadPairs, require_state
from .optimized import OptimizedBackend
from .reference import (
    ReferenceBackend,
    as_pad_pairs,
    col2im,
    conv_output_size,
    im2col,
)

__all__ = [
    "ComputeBackend",
    "OptimizedBackend",
    "PadPairs",
    "ReferenceBackend",
    "as_pad_pairs",
    "col2im",
    "conv_output_size",
    "im2col",
    "require_state",
]
