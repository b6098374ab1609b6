"""Weight initialization schemes for the numpy neural-network substrate.

Each initializer is a function ``(shape, rng) -> np.ndarray``, and each
layer calls its one scheme directly: Glorot/Xavier (Glorot & Bengio,
2010) for dense, recurrent-input and attention kernels, He (He et al.,
2015) for the ReLU-fed convolutions, and orthogonal (Saxe et al., 2014)
for recurrent kernels; :func:`zeros` for biases.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def _fan_in_out(shape: Sequence[int]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor shape.

    For 2D weights ``(in, out)`` this is the obvious pair.  For
    convolution kernels ``(out_channels, in_channels, kh, kw)`` the
    receptive-field size multiplies both fans, matching Keras semantics.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def zeros(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros tensor; the conventional choice for biases."""
    del rng
    return np.zeros(shape, dtype=np.float64)


def glorot_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def he_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He uniform: U(-a, a) with a = sqrt(6 / fan_in); suited to ReLU."""
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def orthogonal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initializer; preserves norms through deep/recurrent maps.

    The tensor is flattened to 2D, a QR decomposition of a Gaussian
    matrix provides the orthonormal factor, and the result is reshaped.
    """
    if len(shape) < 2:
        return glorot_uniform(shape, rng)
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    size = (max(rows, cols), min(rows, cols))
    a = rng.normal(0.0, 1.0, size=size)
    q, r = np.linalg.qr(a)
    # Sign correction makes the distribution uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].reshape(shape).astype(np.float64)

