"""Op-level cost profiling: MACs, parameters, and activation memory.

The edge cost model charges time and energy per multiply-accumulate, so
every layer type reports its MAC count for a given input shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..nn.layers import GRU, LSTM, Conv2D, Dense, MaxPool2D, SimpleRNN, TemporalAttention
from ..nn.model import Sequential


@dataclass
class LayerProfile:
    """Cost attribution for one layer."""

    name: str
    kind: str
    macs: int
    params: int
    output_shape: Tuple[int, ...]


@dataclass
class ModelProfile:
    """Aggregate model cost."""

    layers: List[LayerProfile] = field(default_factory=list)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    def macs_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for l in self.layers:
            out[l.kind] = out.get(l.kind, 0) + l.macs
        return out

    def memory_bytes(self, bytes_per_param: int = 4) -> int:
        """Parameter memory under a given precision (4 = fp32, 1 = int8)."""
        return self.total_params * bytes_per_param

    def render(self) -> str:
        lines = [f"{'layer':<18}{'kind':<14}{'MACs':>12}{'params':>10}  output"]
        lines.append("-" * 68)
        for l in self.layers:
            lines.append(
                f"{l.name:<18}{l.kind:<14}{l.macs:>12,}{l.params:>10,}  {l.output_shape}"
            )
        lines.append("-" * 68)
        lines.append(
            f"total MACs {self.total_macs:,}   total params {self.total_params:,}"
        )
        return "\n".join(lines)


def _layer_macs(layer, input_shape: Tuple[int, ...], output_shape: Tuple[int, ...]) -> int:
    """MAC count of one layer for a single example."""
    if isinstance(layer, Conv2D):
        _, out_h, out_w = output_shape
        in_c = input_shape[0]
        kh, kw = layer.kernel_size
        return out_h * out_w * layer.filters * in_c * kh * kw
    if isinstance(layer, Dense):
        return int(np.prod(input_shape)) * layer.units
    if isinstance(layer, LSTM):
        t, f = input_shape
        h = layer.units
        return t * 4 * h * (f + h)
    if isinstance(layer, GRU):
        t, f = input_shape
        h = layer.units
        return t * 3 * h * (f + h)
    if isinstance(layer, SimpleRNN):
        t, f = input_shape
        h = layer.units
        return t * h * (f + h)
    if isinstance(layer, TemporalAttention):
        # Per step: the F->A score projection, the A->1 score and the
        # step's share of the weighted sum over F features.
        t, f = input_shape
        a = layer.attention_units
        return t * (f * a + a + f)
    if isinstance(layer, MaxPool2D):
        # Comparisons, charged as one op per window element.
        c, out_h, out_w = output_shape
        kh, kw = layer.pool_size
        return c * out_h * out_w * kh * kw
    # Activations / reshapes: one op per element (negligible but counted).
    return int(np.prod(output_shape))


def profile_model(model: Sequential, input_shape: Tuple[int, ...]) -> ModelProfile:
    """Profile per-example cost of a model for a given input shape."""
    profile = ModelProfile()
    shape = tuple(input_shape)
    for layer in model.layers:
        out_shape = layer.output_shape(shape)
        profile.layers.append(
            LayerProfile(
                name=layer.name,
                kind=type(layer).__name__,
                macs=int(_layer_macs(layer, shape, out_shape)),
                params=layer.num_params,
                output_shape=tuple(out_shape),
            )
        )
        shape = out_shape
    return profile


def training_macs_per_example(profile: ModelProfile) -> int:
    """Approximate fwd+bwd cost: backward ~ 2x forward (standard rule)."""
    return 3 * profile.total_macs
