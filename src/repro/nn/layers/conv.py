"""2D convolution and max-pooling layers (NCHW layout) built on im2col.

im2col turns convolution into a single large matrix multiply, which is
the standard trick for getting acceptable performance from a pure-numpy
implementation while keeping backprop exact and simple.  The tensor
kernels themselves live in :mod:`repro.nn.backends`; the layers here
hold parameters and shape logic and delegate all math to their backend
(``im2col``/``col2im``/``conv_output_size`` are re-exported for
backwards compatibility).

Padding semantics: ``'same'`` with an odd kernel uses the historical
symmetric ``(k - 1) // 2`` pads, which already yield ``ceil(in / s)``
outputs for every stride.  Even kernels need *asymmetric* ceil-mode
pads that depend on the input size, so :class:`Conv2D` resolves them
per batch; :func:`resolve_padding` — whose static ``(ph, pw)`` return
type cannot express that — raises a typed
:class:`~repro.errors.PaddingError` instead of silently under-padding
as it used to.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ...errors import PaddingError
from ..initializers import he_uniform, zeros
from ..backends.base import PadPairs
from ..backends.reference import (  # noqa: F401  (re-exported API)
    col2im,
    conv_output_size,
    im2col,
)
from .base import Layer

PadSpec = Union[str, int, Tuple[int, int]]


def _pair(value) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a (h, w) tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def same_axis_pads(size: int, kernel: int, stride: int) -> Tuple[int, int]:
    """Ceil-mode ``'same'`` pads (before, after) along one axis.

    Odd kernels keep the historical symmetric ``(k - 1) // 2`` pads
    (already ceil-mode for every stride, and pinned by the repo's golden
    fingerprints).  Even kernels get the TF-style asymmetric split of
    the minimal total pad reaching ``ceil(size / stride)`` outputs.
    """
    if kernel % 2 == 1:
        pad = (kernel - 1) // 2
        return pad, pad
    out = -(-size // stride)  # ceil division
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def resolve_padding(
    padding: PadSpec, kernel: Tuple[int, int], stride: Tuple[int, int]
) -> Tuple[int, int]:
    """Resolve a padding spec into per-axis symmetric pad sizes.

    ``'same'`` pads so that output size equals ``ceil(input / stride)``;
    ``'valid'`` means no padding.

    Raises
    ------
    PaddingError
        For ``'same'`` with an even kernel on either axis: the required
        ceil-mode pads are asymmetric and depend on the input size, so
        no symmetric ``(ph, pw)`` pair is correct (the old behaviour
        silently returned too-small pads).  Use :class:`Conv2D`, which
        resolves even-kernel ``'same'`` per input, or pass explicit
        pads.
    """
    if isinstance(padding, str):
        mode = padding.lower()
        if mode == "valid":
            return 0, 0
        if mode == "same":
            if kernel[0] % 2 == 0 or kernel[1] % 2 == 0:
                raise PaddingError(
                    f"'same' padding with even kernel {tuple(kernel)} needs "
                    f"input-dependent asymmetric pads; use Conv2D (which "
                    f"resolves it per batch) or pass explicit (ph, pw) pads"
                )
            return (kernel[0] - 1) // 2, (kernel[1] - 1) // 2
        raise ValueError(f"unknown padding mode {padding!r}")
    return _pair(padding)


class Conv2D(Layer):
    """2D convolution over NCHW inputs.

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        Int or (kh, kw).
    stride:
        Int or (sh, sw).
    padding:
        ``'same'``, ``'valid'``, an int, or a (ph, pw) pair.
    """

    def __init__(
        self,
        filters: int,
        kernel_size=3,
        stride=1,
        padding: PadSpec = "same",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name=name)
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        self.filters = int(filters)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding_spec = padding
        kh, kw = self.kernel_size
        if (
            isinstance(padding, str)
            and padding.lower() == "same"
            and (kh % 2 == 0 or kw % 2 == 0)
        ):
            # Even-kernel 'same': ceil-mode pads depend on the input
            # size, so they are resolved per call in _pad_pairs.
            self.pad: Optional[Tuple[int, int]] = None
        else:
            self.pad = resolve_padding(padding, self.kernel_size, self.stride)
        self.use_bias = bool(use_bias)

    def _pad_pairs(self, h: int, w: int) -> PadPairs:
        """Per-side pads for a concrete (h, w) input."""
        if self.pad is not None:
            ph, pw = self.pad
            return (ph, ph), (pw, pw)
        return (
            same_axis_pads(h, self.kernel_size[0], self.stride[0]),
            same_axis_pads(w, self.kernel_size[1], self.stride[1]),
        )

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(f"Conv2D expects (C, H, W) inputs, got {input_shape}")
        in_channels = int(input_shape[0])
        kh, kw = self.kernel_size
        self.params["W"] = he_uniform((self.filters, in_channels, kh, kw), rng)
        if self.use_bias:
            self.params["b"] = zeros((self.filters,), rng)
        self.zero_grads()
        self.built = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        pad = self._pad_pairs(x.shape[2], x.shape[3])
        self._backend_state["pad"] = pad
        return self.backend.conv2d_forward(
            x,
            self.params["W"],
            self.params["b"] if self.use_bias else None,
            self.stride,
            pad,
            self._backend_state,
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        pad = self._backend_state.get("pad")
        if pad is None:
            raise RuntimeError("backward called before forward")
        dx, dw, db = self.backend.conv2d_backward(
            grad_out, self.params["W"], self.stride, pad, self._backend_state
        )
        self.grads["W"] = dw
        if self.use_bias:
            self.grads["b"] = db
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, h, w = input_shape
        (pt, pb), (pl, pr) = self._pad_pairs(h, w)
        out_h = conv_output_size(h, self.kernel_size[0], self.stride[0], (pt, pb))
        out_w = conv_output_size(w, self.kernel_size[1], self.stride[1], (pl, pr))
        return (self.filters, out_h, out_w)

    def get_config(self) -> Dict:
        return {
            "name": self.name,
            "filters": self.filters,
            "kernel_size": list(self.kernel_size),
            "stride": list(self.stride),
            "padding": self.padding_spec
            if isinstance(self.padding_spec, str)
            else list(_pair(self.padding_spec)),
            "use_bias": self.use_bias,
        }


class MaxPool2D(Layer):
    """Max pooling over NCHW inputs."""

    def __init__(self, pool_size=2, stride=None, name: Optional[str] = None):
        super().__init__(name=name)
        self.pool_size = _pair(pool_size)
        self.stride = _pair(stride) if stride is not None else self.pool_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.backend.maxpool2d_forward(
            x, self.pool_size, self.stride, self._backend_state
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.backend.maxpool2d_backward(
            grad_out, self.pool_size, self.stride, self._backend_state
        )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size[0], self.stride[0], 0)
        out_w = conv_output_size(w, self.pool_size[1], self.stride[1], 0)
        return (c, out_h, out_w)

    def get_config(self) -> Dict:
        return {
            "name": self.name,
            "pool_size": list(self.pool_size),
            "stride": list(self.stride),
        }
