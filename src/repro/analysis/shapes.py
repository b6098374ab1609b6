"""Symbolic shape and parameter-count inference for layer stacks.

Everything here is *static*: layers are inspected through their
constructor attributes and ``output_shape`` contracts, never executed.
That lets a mis-shaped CNN-LSTM config be rejected at submission time —
before a single forward pass, before any parameter array is allocated —
which is the cheapest possible failure mode for the cloud→edge pipeline
(a broken per-cluster training job costs epochs; a broken quantized
deployment costs a device round-trip).

The module is deliberately decoupled from :mod:`repro.nn`: layers are
duck-typed and dispatched on their class name, so ``repro.nn.model`` can
import this module lazily without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Layer classes whose inputs are sequences (N, T, F); used both for
#: rank checking and for the recurrent-after-flatten diagnostic.
SEQUENCE_LAYERS = frozenset({"LSTM", "GRU", "SimpleRNN", "TemporalAttention"})

#: Expected input rank (excluding batch) per layer class.  Classes not
#: listed accept any rank (ReLU, Dropout, Flatten).
EXPECTED_RANK: Dict[str, Tuple[int, ...]] = {
    "Conv2D": (3,),
    "MaxPool2D": (3,),
    "ToSequence": (3,),
    "LSTM": (2,),
    "GRU": (2,),
    "SimpleRNN": (2,),
    "TemporalAttention": (2,),
    "Dense": (1,),
}

#: Human-readable input contract per layer class, used in messages.
RANK_HINT: Dict[str, str] = {
    "Conv2D": "(C, H, W)",
    "MaxPool2D": "(C, H, W)",
    "ToSequence": "(C, H, W)",
    "LSTM": "(T, F)",
    "GRU": "(T, F)",
    "SimpleRNN": "(T, F)",
    "TemporalAttention": "(T, F)",
    "Dense": "(features,)",
}


class GraphValidationError(ValueError):
    """A statically-detected model graph defect.

    Subclasses :class:`ValueError` so existing ``pytest.raises(ValueError)``
    call sites keep working.  Carries enough structure (layer index/name,
    offending input shape) for CLIs and pre-flight hooks to produce an
    actionable message naming the exact layer.
    """

    def __init__(
        self,
        message: str,
        *,
        layer_index: Optional[int] = None,
        layer_name: Optional[str] = None,
        layer_class: Optional[str] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
    ):
        self.layer_index = layer_index
        self.layer_name = layer_name
        self.layer_class = layer_class
        self.input_shape = tuple(input_shape) if input_shape is not None else None
        if layer_index is not None:
            prefix = f"layer {layer_index}"
            if layer_name:
                prefix += f" ({layer_name}"
                if layer_class:
                    prefix += f": {layer_class}"
                prefix += ")"
            message = f"{prefix}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TensorSpec:
    """A symbolic tensor: batch-less shape plus dtype name."""

    shape: Tuple[int, ...]
    dtype: str = "float64"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def __str__(self) -> str:
        return f"{self.shape}:{self.dtype}"


def _layer_class(layer) -> str:
    return type(layer).__name__


def _check_rank(layer, index: int, spec: TensorSpec) -> None:
    cls = _layer_class(layer)
    allowed = EXPECTED_RANK.get(cls)
    if allowed is None or spec.rank in allowed:
        return
    hint = RANK_HINT.get(cls, "a different rank")
    message = (
        f"expects {hint} inputs (rank {' or '.join(map(str, allowed))}), "
        f"got shape {spec.shape} (rank {spec.rank})"
    )
    if cls in SEQUENCE_LAYERS and spec.rank == 1:
        message += (
            "; a recurrent/attention layer cannot follow a flattening layer "
            "— it needs a (time, features) sequence, e.g. via ToSequence"
        )
    raise GraphValidationError(
        message,
        layer_index=index,
        layer_name=getattr(layer, "name", None),
        layer_class=cls,
        input_shape=spec.shape,
    )


def infer_output_shape(layer, index: int, spec: TensorSpec) -> Tuple[int, ...]:
    """Statically infer a layer's output shape, with actionable errors."""
    _check_rank(layer, index, spec)
    try:
        out_shape = tuple(int(s) for s in layer.output_shape(spec.shape))
    except GraphValidationError:
        raise
    except Exception as exc:  # wrap opaque numpy/unpacking errors
        raise GraphValidationError(
            f"output_shape failed for input {spec.shape}: {exc}",
            layer_index=index,
            layer_name=getattr(layer, "name", None),
            layer_class=_layer_class(layer),
            input_shape=spec.shape,
        ) from exc
    bad = [dim for dim in out_shape if dim < 1]
    if bad:
        raise GraphValidationError(
            f"produces a zero/negative dimension: output shape {out_shape} "
            f"from input {spec.shape} — shrink the kernel/pool or grow the input",
            layer_index=index,
            layer_name=getattr(layer, "name", None),
            layer_class=_layer_class(layer),
            input_shape=spec.shape,
        )
    return out_shape


# -- parameter counting (no allocation) ---------------------------------

def _params_dense(layer, shape: Tuple[int, ...]) -> int:
    n = int(shape[0]) * layer.units
    return n + (layer.units if layer.use_bias else 0)


def _params_conv2d(layer, shape: Tuple[int, ...]) -> int:
    kh, kw = layer.kernel_size
    n = layer.filters * int(shape[0]) * kh * kw
    return n + (layer.filters if layer.use_bias else 0)


def _gated_recurrent(gates: int) -> Callable:
    def count(layer, shape: Tuple[int, ...]) -> int:
        features, h = int(shape[1]), layer.units
        return gates * h * (features + h + 1)

    return count


def _params_attention(layer, shape: Tuple[int, ...]) -> int:
    features, a = int(shape[1]), layer.attention_units
    return features * a + a + a  # W, b, v


PARAM_COUNTERS: Dict[str, Callable] = {
    "Dense": _params_dense,
    "Conv2D": _params_conv2d,
    "LSTM": _gated_recurrent(4),
    "GRU": _gated_recurrent(3),
    "SimpleRNN": _gated_recurrent(1),
    "TemporalAttention": _params_attention,
}


def estimate_param_count(layer, spec: TensorSpec) -> int:
    """Parameter count the layer *would* allocate for this input shape."""
    counter = PARAM_COUNTERS.get(_layer_class(layer))
    return counter(layer, spec.shape) if counter else 0


