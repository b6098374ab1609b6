"""The reference backend: bit-identical to the historical layer code.

Every kernel here reproduces the exact floating-point operation order
the layers used before backends existed.  Models run on the optimized
backend, which subclasses this one; the reference stays as the float64
oracle the tests hold the optimized kernels to.

The only internal change from the historical code is the recurrent
cache layout: per-step dicts holding redundant ``h_prev``/``c_prev``
copies were replaced with stacked ``(N, T, ·)`` arrays (the previous
states are slices of the stacked sequence, not copies).  Forward and
backward read the same values in the same order, so results are
unchanged while peak cache memory drops by ~2 arrays per time step.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..activations import sigmoid, tanh
from .base import ComputeBackend, PadPairs, require_state

#: A per-axis pad spec: symmetric ints or (before, after) pairs.
PadLike = Union[Tuple[int, int], PadPairs]


def as_pad_pairs(pad: PadLike) -> PadPairs:
    """Normalize a pad spec to ((top, bottom), (left, right)).

    Accepts the historical symmetric ``(ph, pw)`` form and the explicit
    per-side form; both are returned as pairs of (before, after) ints.
    """
    ph, pw = pad
    if isinstance(ph, (tuple, list)):
        (pt, pb), (pl, pr) = ph, pw
    else:
        pt = pb = int(ph)
        pl = pr = int(pw)
    return (int(pt), int(pb)), (int(pl), int(pr))


def conv_output_size(size: int, kernel: int, stride: int, pad) -> int:
    """Spatial output size of a convolution along one axis.

    ``pad`` is either a symmetric int or a (before, after) pair.
    """
    if isinstance(pad, (tuple, list)):
        before, after = int(pad[0]), int(pad[1])
    else:
        before = after = int(pad)
    out = (size + before + after - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, "
            f"pad=({before}, {after}))"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pad: PadLike,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of receptive fields.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kh * kw)``.  ``pad`` may be symmetric
    ``(ph, pw)`` ints or per-side ``((top, bottom), (left, right))``
    pairs (ceil-mode 'same' padding for even kernels is asymmetric).
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    (pt, pb), (pl, pr) = as_pad_pairs(pad)
    out_h = conv_output_size(h, kh, sh, (pt, pb))
    out_w = conv_output_size(w, kw, sw, (pl, pr))
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)), mode="constant")
    # Strided view: (N, C, out_h, out_w, kh, kw)
    s_n, s_c, s_h, s_w = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s_n, s_c, s_h * sh, s_w * sw, s_h, s_w),
        writeable=False,
    )
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    pad: PadLike,
) -> np.ndarray:
    """Fold gradient columns back into an image tensor (adjoint of im2col)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    (pt, pb), (pl, pr) = as_pad_pairs(pad)
    out_h = conv_output_size(h, kh, sh, (pt, pb))
    out_w = conv_output_size(w, kw, sw, (pl, pr))
    padded = np.zeros((n, c, h + pt + pb, w + pl + pr), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols6[
                :, :, :, :, i, j
            ]
    if pt or pb or pl or pr:
        return padded[:, :, pt : pt + h, pl : pl + w]
    return padded


class ReferenceBackend(ComputeBackend):
    """Pure-numpy kernels preserving the historical operation order."""

    name = "reference"

    def compute_dtype(self, dtype) -> np.dtype:
        # The historical contract: everything runs in float64.
        del dtype
        return np.dtype(np.float64)

    # -- dense -----------------------------------------------------------
    def dense_forward(self, x, w, b, state):
        state["x"] = x
        out = x @ w
        if b is not None:
            out = out + b
        return out

    def dense_backward(self, grad_out, w, state):
        x = require_state(state, "x")
        dw = x.T @ grad_out
        db = grad_out.sum(axis=0)
        dx = grad_out @ w.T
        return dx, dw, db

    # -- elementwise -----------------------------------------------------
    def relu_forward(self, x, state):
        state["x"] = x
        return np.maximum(x, 0.0)

    def relu_backward(self, grad_out, state):
        x = require_state(state, "x")
        return grad_out * (x > 0.0).astype(x.dtype)

    # -- convolution -----------------------------------------------------
    def conv2d_forward(self, x, w, b, stride, pad, state):
        n = x.shape[0]
        filters = w.shape[0]
        kernel = (w.shape[2], w.shape[3])
        cols, (out_h, out_w) = im2col(x, kernel, stride, pad)
        w2d = w.reshape(filters, -1)
        out = cols @ w2d.T
        if b is not None:
            out = out + b
        state["cols"] = cols
        state["x_shape"] = x.shape
        return out.reshape(n, out_h, out_w, filters).transpose(0, 3, 1, 2)

    def conv2d_backward(self, grad_out, w, stride, pad, state):
        cols = require_state(state, "cols")
        x_shape = state["x_shape"]
        filters = w.shape[0]
        kernel = (w.shape[2], w.shape[3])
        grad2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, filters)
        dw = (grad2d.T @ cols).reshape(w.shape)
        db = grad2d.sum(axis=0)
        grad_cols = grad2d @ w.reshape(filters, -1)
        dx = col2im(grad_cols, x_shape, kernel, stride, pad)
        return dx, dw, db

    # -- pooling ---------------------------------------------------------
    def maxpool2d_forward(self, x, pool, stride, state):
        n, c, h, w = x.shape
        kh, kw = pool
        sh, sw = stride
        out_h = conv_output_size(h, kh, sh, 0)
        out_w = conv_output_size(w, kw, sw, 0)
        s_n, s_c, s_h, s_w = x.strides
        view = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kh, kw),
            strides=(s_n, s_c, s_h * sh, s_w * sw, s_h, s_w),
            writeable=False,
        )
        windows = view.reshape(n, c, out_h, out_w, kh * kw)
        state["argmax"] = windows.argmax(axis=-1)
        state["x_shape"] = x.shape
        state["out_hw"] = (out_h, out_w)
        return windows.max(axis=-1)

    def maxpool2d_backward(self, grad_out, pool, stride, state):
        argmax = require_state(state, "argmax")
        x_shape = state["x_shape"]
        out_h, out_w = state["out_hw"]
        n, c, h, w = x_shape
        kh, kw = pool
        sh, sw = stride
        grad_in = np.zeros(x_shape, dtype=grad_out.dtype)
        # Scatter each output gradient back to its argmax location.
        oh_idx, ow_idx = np.meshgrid(
            np.arange(out_h), np.arange(out_w), indexing="ij"
        )
        rows = oh_idx[None, None] * sh + argmax // kw
        cols = ow_idx[None, None] * sw + argmax % kw
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        np.add.at(grad_in, (n_idx, c_idx, rows, cols), grad_out)
        return grad_in

    # -- LSTM ------------------------------------------------------------
    def lstm_forward(self, x, w, u, b, state):
        n, t, _ = x.shape
        h = u.shape[0]
        dtype = x.dtype
        h_prev = np.zeros((n, h), dtype=dtype)
        c_prev = np.zeros((n, h), dtype=dtype)
        hs = np.zeros((n, t, h), dtype=dtype)
        # Stacked caches: one (N, T, ·) slab per quantity instead of a
        # list of per-step dicts duplicating h_prev/c_prev.
        gates = np.empty((n, t, 4 * h), dtype=dtype)
        cs = np.empty((n, t, h), dtype=dtype)
        tanh_cs = np.empty((n, t, h), dtype=dtype)
        x_proj = x @ w  # (N, T, 4h) — hoist the input projection out of the loop
        for step in range(t):
            z = x_proj[:, step, :] + h_prev @ u + b
            i = sigmoid(z[:, :h])
            f = sigmoid(z[:, h : 2 * h])
            g = tanh(z[:, 2 * h : 3 * h])
            o = sigmoid(z[:, 3 * h :])
            c = f * c_prev + i * g
            tanh_c = tanh(c)
            h_new = o * tanh_c
            gates[:, step, :h] = i
            gates[:, step, h : 2 * h] = f
            gates[:, step, 2 * h : 3 * h] = g
            gates[:, step, 3 * h :] = o
            cs[:, step, :] = c
            tanh_cs[:, step, :] = tanh_c
            hs[:, step, :] = h_new
            h_prev, c_prev = h_new, c
        state["x"] = x
        state["gates"] = gates
        state["cs"] = cs
        state["tanh_cs"] = tanh_cs
        state["hs"] = hs
        return hs

    def lstm_backward(self, grad_hs, w, u, state):
        x = require_state(state, "x")
        gates = state["gates"]
        cs = state["cs"]
        tanh_cs = state["tanh_cs"]
        hs = state["hs"]
        n, t, features = x.shape
        h = u.shape[0]
        dtype = x.dtype

        d_w = np.zeros_like(w)
        d_u = np.zeros_like(u)
        d_b = np.zeros(4 * h, dtype=dtype)
        d_x = np.zeros_like(x)
        dh_next = np.zeros((n, h), dtype=dtype)
        dc_next = np.zeros((n, h), dtype=dtype)
        zeros_nh = np.zeros((n, h), dtype=dtype)

        for step in range(t - 1, -1, -1):
            dh = grad_hs[:, step, :] + dh_next
            i = gates[:, step, :h]
            f = gates[:, step, h : 2 * h]
            g = gates[:, step, 2 * h : 3 * h]
            o = gates[:, step, 3 * h :]
            tanh_c = tanh_cs[:, step, :]
            c_prev = cs[:, step - 1, :] if step > 0 else zeros_nh
            h_prev = hs[:, step - 1, :] if step > 0 else zeros_nh
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            do = dh * tanh_c
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            d_w += x[:, step, :].T @ dz
            d_u += h_prev.T @ dz
            d_b += dz.sum(axis=0)
            d_x[:, step, :] = dz @ w.T
            dh_next = dz @ u.T
            dc_next = dc * f
        return d_x, d_w, d_u, d_b

    # -- GRU -------------------------------------------------------------
    def gru_forward(self, x, w, u, b, state):
        n, t, _ = x.shape
        h = u.shape[0]
        dtype = x.dtype
        h_prev = np.zeros((n, h), dtype=dtype)
        hs = np.zeros((n, t, h), dtype=dtype)
        gates = np.empty((n, t, 3 * h), dtype=dtype)  # z, r, hh stacked
        rhs = np.empty((n, t, h), dtype=dtype)
        x_proj = x @ w + b  # (N, T, 3h)
        for step in range(t):
            xz = x_proj[:, step, :h]
            xr = x_proj[:, step, h : 2 * h]
            xh = x_proj[:, step, 2 * h :]
            hu = h_prev @ u
            z = sigmoid(xz + hu[:, :h])
            r = sigmoid(xr + hu[:, h : 2 * h])
            # Candidate uses the reset-gated recurrent contribution.
            rh = r * h_prev
            hh = tanh(xh + rh @ u[:, 2 * h :])
            h_new = (1.0 - z) * h_prev + z * hh
            gates[:, step, :h] = z
            gates[:, step, h : 2 * h] = r
            gates[:, step, 2 * h :] = hh
            rhs[:, step, :] = rh
            hs[:, step, :] = h_new
            h_prev = h_new
        state["x"] = x
        state["gates"] = gates
        state["rhs"] = rhs
        state["hs"] = hs
        return hs

    def gru_backward(self, grad_hs, w, u, state):
        x = require_state(state, "x")
        gates = state["gates"]
        rhs = state["rhs"]
        hs = state["hs"]
        n, t, features = x.shape
        h = u.shape[0]
        dtype = x.dtype

        d_w = np.zeros_like(w)
        d_u = np.zeros_like(u)
        d_b = np.zeros(3 * h, dtype=dtype)
        d_x = np.zeros_like(x)
        dh_next = np.zeros((n, h), dtype=dtype)
        zeros_nh = np.zeros((n, h), dtype=dtype)

        for step in range(t - 1, -1, -1):
            z = gates[:, step, :h]
            r = gates[:, step, h : 2 * h]
            hh = gates[:, step, 2 * h :]
            h_prev = hs[:, step - 1, :] if step > 0 else zeros_nh
            rh = rhs[:, step, :]
            dh = grad_hs[:, step, :] + dh_next

            dz_pre = dh * (hh - h_prev) * z * (1.0 - z)
            dhh = dh * z
            dhh_pre = dhh * (1.0 - hh * hh)
            # Candidate path: hh = tanh(xh + (r*h_prev) @ U_h)
            d_rh = dhh_pre @ u[:, 2 * h :].T
            dr_pre = d_rh * h_prev * r * (1.0 - r)

            dz_r_pre = np.concatenate([dz_pre, dr_pre], axis=1)  # (N, 2h)
            dgates_pre = np.concatenate([dz_pre, dr_pre, dhh_pre], axis=1)

            d_w += x[:, step, :].T @ dgates_pre
            d_b += dgates_pre.sum(axis=0)
            d_u[:, : 2 * h] += h_prev.T @ dz_r_pre
            d_u[:, 2 * h :] += rh.T @ dhh_pre

            d_x[:, step, :] = dgates_pre @ w.T
            dh_next = (
                dh * (1.0 - z)
                + dz_r_pre @ u[:, : 2 * h].T
                + d_rh * r
            )
        return d_x, d_w, d_u, d_b

    # -- simple RNN ------------------------------------------------------
    def rnn_forward(self, x, w, u, b, state):
        n, t, _ = x.shape
        units = u.shape[0]
        dtype = x.dtype
        h_prev = np.zeros((n, units), dtype=dtype)
        hs = np.zeros((n, t, units), dtype=dtype)
        for step in range(t):
            h_prev = tanh(x[:, step, :] @ w + h_prev @ u + b)
            hs[:, step, :] = h_prev
        state["x"] = x
        state["hs"] = hs
        return hs

    def rnn_backward(self, grad_hs, w, u, state):
        x = require_state(state, "x")
        hs = state["hs"]
        n, t, _ = x.shape
        units = u.shape[0]

        d_w = np.zeros_like(w)
        d_u = np.zeros_like(u)
        d_b = np.zeros(units, dtype=x.dtype)
        d_x = np.zeros_like(x)
        dh_next = np.zeros((n, units), dtype=x.dtype)
        for step in range(t - 1, -1, -1):
            dh = grad_hs[:, step, :] + dh_next
            h_t = hs[:, step, :]
            dz = dh * (1.0 - h_t * h_t)
            h_prev = (
                hs[:, step - 1, :] if step > 0 else np.zeros((n, units))
            )
            d_w += x[:, step, :].T @ dz
            d_u += h_prev.T @ dz
            d_b += dz.sum(axis=0)
            d_x[:, step, :] = dz @ w.T
            dh_next = dz @ u.T
        return d_x, d_w, d_u, d_b
