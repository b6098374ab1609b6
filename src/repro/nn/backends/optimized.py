"""The optimized backend: same math, engineered hot path.

Speed levers over ``reference``:

* **Workspace reuse** — im2col gathers, padded buffers, recurrent gate
  slabs, and pooling scatter buffers are preallocated in each layer's
  ``state`` dict and reused across iterations instead of reallocated.
* **Slice-based gathers** — im2col and pooling walk the ``kh * kw``
  kernel offsets with strided slice copies rather than materializing a
  6-D strided view, which is substantially faster for small kernels.
* **Batched BPTT** — recurrent backward passes precompute all gate
  derivative factors as ``(N, T, ·)`` slabs, run only the sequential
  recurrences inside the time loop, and collapse the weight/input
  gradients into single large GEMMs afterwards.
* **float32 serving** — :meth:`compute_dtype` preserves ``float32``
  end-to-end (the reference backend always promotes to ``float64``);
  parameters stay ``float64`` in the layer and are cast per call.

Guarantees: forward passes keep the reference operation order and GEMM
orientation, so for equal input dtypes they are **bit-identical** to
``reference``.  Backward passes reassociate summations (batched GEMMs)
and therefore agree to gradcheck tolerance, not bitwise.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .base import require_state
from .reference import (
    ReferenceBackend,
    as_pad_pairs,
    conv_output_size,
)


def _workspace(state: Dict, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Fetch (or allocate) a reusable uninitialized buffer."""
    ws = state.get(key)
    if ws is None or ws.shape != shape or ws.dtype != dtype:
        ws = np.empty(shape, dtype=dtype)
        state[key] = ws
    return ws


def _workspace_like(state: Dict, key: str, ref: np.ndarray, dtype=None) -> np.ndarray:
    """Reusable buffer matching ``ref``'s shape *and memory order*.

    Convolution outputs are NCHW-shaped transpose views of channels-last
    buffers; allocating elementwise workspaces in the same memory order
    (``empty_like`` order-'K') lets every ufunc downstream iterate
    contiguously instead of through permuted strides, so the whole
    conv -> relu -> pool chain stays channels-last in memory while the
    shapes remain NCHW.
    """
    dtype = ref.dtype if dtype is None else np.dtype(dtype)
    meta_key = key + "_meta"
    meta = (ref.shape, ref.strides, dtype)
    ws = state.get(key)
    if ws is None or state.get(meta_key) != meta:
        ws = np.empty_like(ref, dtype=dtype)
        state[key] = ws
        state[meta_key] = meta
    return ws


def _cast(a: np.ndarray, dtype) -> np.ndarray:
    """Cast parameters to the compute dtype; free when already matching."""
    return a.astype(dtype, copy=False)


def _elem_strides(a: np.ndarray) -> Tuple[int, ...]:
    """Strides in elements — comparable across dtypes of different widths."""
    return tuple(s // a.itemsize for s in a.strides)


def _ones(state: Dict, n: int, dtype) -> np.ndarray:
    """Cached ones vector: bias gradients as a BLAS GEMV.

    ``sum(axis=0)`` over a tall (M, F) slab runs an order of magnitude
    slower than ``ones @ slab`` for the sizes the conv layers see.
    """
    ws = state.get("ones_vec")
    if ws is None or ws.shape[0] != n or ws.dtype != dtype:
        ws = np.ones(n, dtype=dtype)
        state["ones_vec"] = ws
    return ws


def _shifted(seq: np.ndarray) -> np.ndarray:
    """Previous-step states for a stacked (N, T, H) sequence.

    Row ``t`` holds the state at ``t - 1``; row 0 is the zero initial
    state.  Used to batch ``h_prev``/``c_prev`` lookups into one slab.
    """
    out = np.zeros_like(seq)
    out[:, 1:, :] = seq[:, :-1, :]
    return out


class OptimizedBackend(ReferenceBackend):
    """Hot-path kernels; see the module docstring for the guarantees."""

    name = "optimized"

    def compute_dtype(self, dtype) -> np.dtype:
        dtype = np.dtype(dtype)
        if dtype == np.float32:
            return dtype
        return np.dtype(np.float64)

    # -- dense -----------------------------------------------------------
    def dense_forward(self, x, w, b, state):
        state["x"] = x
        out = x @ _cast(w, x.dtype)
        if b is not None:
            out += _cast(b, x.dtype)
        return out

    def dense_backward(self, grad_out, w, state):
        x = require_state(state, "x")
        dw = x.T @ grad_out
        db = grad_out.sum(axis=0)
        dx = grad_out @ _cast(w, grad_out.dtype).T
        return dx, dw, db

    # -- convolution -----------------------------------------------------
    def conv2d_forward(self, x, w, b, stride, pad, state):
        dtype = x.dtype
        if dtype == np.float32:
            # float32 has no bit-identity contract (reference promotes
            # to float64), so the serving path is free to relayout.
            return self._conv2d_forward_f32(x, w, b, stride, pad, state)
        n, c, h, w_in = x.shape
        filters = w.shape[0]
        kh, kw = w.shape[2], w.shape[3]
        sh, sw = stride
        (pt, pb), (pl, pr) = as_pad_pairs(pad)
        out_h = conv_output_size(h, kh, sh, (pt, pb))
        out_w = conv_output_size(w_in, kw, sw, (pl, pr))
        if pt or pb or pl or pr:
            xp = _workspace(
                state, "xpad", (n, c, h + pt + pb, w_in + pl + pr), dtype
            )
            xp.fill(0.0)
            xp[:, :, pt : pt + h, pl : pl + w_in] = x
        else:
            xp = x
        # Gather receptive fields by kernel offset: kh*kw strided copies
        # into a reused (N, OH, OW, C, KH, KW) slab — same values and
        # memory layout as the reference im2col, without the big 6-D
        # strided-view materialization.
        cols6 = _workspace(state, "cols6", (n, out_h, out_w, c, kh, kw), dtype)
        for i in range(kh):
            for j in range(kw):
                cols6[:, :, :, :, i, j] = xp[
                    :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
                ].transpose(0, 2, 3, 1)
        cols = cols6.reshape(n * out_h * out_w, c * kh * kw)
        w2d = _cast(w.reshape(filters, -1), dtype)
        out = cols @ w2d.T
        if b is not None:
            out += _cast(b, dtype)
        state["cols"] = cols
        state["x_shape"] = x.shape
        return out.reshape(n, out_h, out_w, filters).transpose(0, 3, 1, 2)

    @staticmethod
    def _conv_f32_banded(c, stride, kw, padded_w):
        """Single-channel stride-1 convs on narrow inputs skip im2col.

        With ``c == 1`` the im2col slab degenerates to ``kh * kw``-element
        rows — 12-byte copy runs that cost several times the GEMM they
        feed.  A width-banded weight matrix turns the whole forward into
        one GEMM over the padded input rows plus ``kh`` shifted adds.
        The flop blowup over im2col is ``padded_w / kw``, so the path is
        gated to narrow inputs where that factor stays small.
        """
        return c == 1 and stride == (1, 1) and kw <= padded_w <= 16

    def _conv2d_forward_f32(self, x, w, b, stride, pad, state):
        # NHWC im2col: with channels innermost, each kernel-offset gather
        # copies contiguous (kw * c)-element runs instead of permuted
        # strides, and the GEMM output is already channels-last.
        dtype = x.dtype
        n, c, h, w_in = x.shape
        filters = w.shape[0]
        kh, kw = w.shape[2], w.shape[3]
        sh, sw = stride
        (pt, pb), (pl, pr) = as_pad_pairs(pad)
        out_h = conv_output_size(h, kh, sh, (pt, pb))
        out_w = conv_output_size(w_in, kw, sw, (pl, pr))
        if self._conv_f32_banded(c, stride, kw, w_in + pl + pr):
            return self._conv2d_forward_f32_banded(
                x, w, b, (pt, pb, pl, pr), (out_h, out_w), state
            )
        xp = _workspace(
            state, "xpad_nhwc", (n, h + pt + pb, w_in + pl + pr, c), dtype
        )
        if pt or pb or pl or pr:
            xp.fill(0.0)
        xp[:, pt : pt + h, pl : pl + w_in, :] = x.transpose(0, 2, 3, 1)
        s_n, s_h, s_w, s_c = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp,
            shape=(n, out_h, out_w, kh, kw, c),
            strides=(s_n, s_h * sh, s_w * sw, s_h, s_w, s_c),
            writeable=False,
        )
        # One extra always-one im2col column carries the bias through the
        # GEMM (and db falls out of the dw GEMM in backward), saving a
        # full elementwise pass over the output in each direction.
        k_cols = kh * kw * c
        kb = k_cols + 1 if b is not None else k_cols
        cols = _workspace(state, "cols2d_nhwc", (n * out_h * out_w, kb), dtype)
        if b is not None and state.get("cols_ones_init") != cols.shape:
            cols[:, k_cols] = 1.0
            state["cols_ones_init"] = cols.shape
        isz = cols.itemsize
        dest = np.lib.stride_tricks.as_strided(
            cols,
            shape=(n, out_h, out_w, kh, kw, c),
            strides=(
                out_h * out_w * kb * isz,
                out_w * kb * isz,
                kb * isz,
                kw * c * isz,
                c * isz,
                isz,
            ),
        )
        np.copyto(dest, view)
        # Weight columns in matching (kh, kw, c) order, bias appended.
        w2 = np.empty((filters, kb), dtype)
        w2[:, :k_cols] = w.transpose(0, 2, 3, 1).reshape(filters, -1)
        if b is not None:
            w2[:, k_cols] = b
        out = _workspace(state, "conv_out", (n * out_h * out_w, filters), dtype)
        np.matmul(cols, w2.T, out=out)
        state["cols"] = cols
        state["cols_k"] = k_cols
        state["w2_f32"] = w2
        state["x_shape"] = x.shape
        return out.reshape(n, out_h, out_w, filters).transpose(0, 3, 1, 2)

    def _conv2d_forward_f32_banded(self, x, w, b, pads, out_hw, state):
        dtype = x.dtype
        n, _, h, w_in = x.shape
        filters, _, kh, kw = w.shape
        pt, pb, pl, pr = pads
        out_h, out_w = out_hw
        hp, wp = h + pt + pb, w_in + pl + pr
        # One extra always-one input column carries the bias through the
        # GEMM (as a band row hit once, in kernel-row block 0).
        wp1 = wp + 1 if b is not None else wp
        xp = _workspace(state, "xpad_band", (n, hp, wp1), dtype)
        init_key = (n, hp, wp1, pt, pb, pl, pr)
        if state.get("xpad_band_init") != init_key:
            # The pad border and ones column are invariant across calls;
            # only the interior is rewritten below.
            xp.fill(0.0)
            if b is not None:
                xp[:, :, wp] = 1.0
            state["xpad_band_init"] = init_key
        xp[:, pt : pt + h, pl : pl + w_in] = x[:, 0]
        # Banded weight matrix: block (i, xcol) -> (x, f) holds kernel
        # row i of every filter on the diagonal band of width positions
        # it touches.  Gathering the kh padded-row slabs per output row
        # (three contiguous copies) turns the whole forward into one
        # well-shaped GEMM with no shifted adds afterwards.
        band = np.zeros((kh, wp1, out_w, filters), dtype)
        w3 = w[:, 0]
        ar = np.arange(out_w)
        for i in range(kh):
            for j in range(kw):
                band[i, ar + j, ar, :] = w3[:, i, j]
        if b is not None:
            band[0, wp, :, :] = b
        rows = _workspace(state, "band_rows", (n, out_h, kh, wp1), dtype)
        for i in range(kh):
            rows[:, :, i, :] = xp[:, i : i + out_h, :]
        out = _workspace(state, "band_out", (n * out_h, out_w * filters), dtype)
        np.matmul(
            rows.reshape(n * out_h, kh * wp1), band.reshape(kh * wp1, -1), out=out
        )
        state["band"] = band
        state["band_wp"] = wp
        state["x_shape"] = x.shape
        return out.reshape(n, out_h, out_w, filters).transpose(0, 3, 1, 2)

    def conv2d_backward(self, grad_out, w, stride, pad, state):
        if grad_out.dtype == np.float32:
            return self._conv2d_backward_f32(grad_out, w, stride, pad, state)
        cols = require_state(state, "cols")
        x_shape = state["x_shape"]
        dtype = grad_out.dtype
        n, c, h, w_in = x_shape
        filters = w.shape[0]
        kh, kw = w.shape[2], w.shape[3]
        sh, sw = stride
        (pt, pb), (pl, pr) = as_pad_pairs(pad)
        out_h = conv_output_size(h, kh, sh, (pt, pb))
        out_w = conv_output_size(w_in, kw, sw, (pl, pr))
        grad2d = grad_out.transpose(0, 2, 3, 1).reshape(-1, filters)
        dw = (grad2d.T @ cols).reshape(w.shape)
        db = grad2d.sum(axis=0)
        grad_cols = grad2d @ _cast(w.reshape(filters, -1), dtype)
        cols6 = grad_cols.reshape(n, out_h, out_w, c, kh, kw)
        padded = _workspace(
            state, "gpad", (n, c, h + pt + pb, w_in + pl + pr), dtype
        )
        padded.fill(0.0)
        for i in range(kh):
            for j in range(kw):
                padded[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += (
                    cols6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if pt or pb or pl or pr:
            dx = padded[:, :, pt : pt + h, pl : pl + w_in].copy()
        else:
            dx = padded.copy()
        return dx, dw, db

    def _conv2d_backward_f32(self, grad_out, w, stride, pad, state):
        x_shape = require_state(state, "x_shape")
        n, c, h, w_in = x_shape
        filters = w.shape[0]
        kh, kw = w.shape[2], w.shape[3]
        sh, sw = stride
        (pt, pb), (pl, pr) = as_pad_pairs(pad)
        out_h = conv_output_size(h, kh, sh, (pt, pb))
        out_w = conv_output_size(w_in, kw, sw, (pl, pr))
        if self._conv_f32_banded(c, stride, kw, w_in + pl + pr):
            return self._conv2d_backward_f32_banded(
                grad_out, w, (pt, pb, pl, pr), (out_h, out_w), state
            )
        cols = require_state(state, "cols")
        w2 = state["w2_f32"]
        k_cols = state["cols_k"]
        dtype = grad_out.dtype
        g_t = grad_out.transpose(0, 2, 3, 1)
        if g_t.flags.c_contiguous:
            # Upstream layers keep the conv chain channels-last in
            # memory, so the incoming gradient usually already is — no
            # permuted copy needed.
            g_nhwc = g_t
        else:
            g_nhwc = _workspace(
                state, "g_nhwc", (n, out_h, out_w, filters), dtype
            )
            np.copyto(g_nhwc, g_t)
        g2d = g_nhwc.reshape(n * out_h * out_w, filters)
        dw_full = g2d.T @ cols
        dw = np.ascontiguousarray(
            dw_full[:, :k_cols].reshape(filters, kh, kw, c).transpose(0, 3, 1, 2)
        )
        if cols.shape[1] > k_cols:
            db = dw_full[:, k_cols].copy()  # the always-one bias column
        else:
            db = _ones(state, g2d.shape[0], dtype) @ g2d
        if sh == sw == 1 and pt < kh and pb < kh and pl < kw and pr < kw and c >= 4:
            # Stride-1 dx is itself a full correlation of the output
            # gradient with the flipped kernel, so it collapses into a
            # second im2col + GEMM — much cheaper than scatter-folding
            # kh*kw strided slabs when there are enough input channels
            # to amortize the gather.
            bh, bw = kh - 1 - pt, kw - 1 - pl
            gext = _workspace(
                state, "gext", (n, h + kh - 1, w_in + kw - 1, filters), dtype
            )
            init_key = (gext.shape, bh, bw)
            if state.get("gext_init") != init_key:
                # The border stays zero across calls; only the interior
                # is rewritten below.
                gext.fill(0.0)
                state["gext_init"] = init_key
            gext[:, bh : bh + out_h, bw : bw + out_w, :] = g_nhwc
            s_n, s_h, s_w, s_f = gext.strides
            view = np.lib.stride_tricks.as_strided(
                gext,
                shape=(n, h, w_in, kh, kw, filters),
                strides=(s_n, s_h, s_w, s_h, s_w, s_f),
                writeable=False,
            )
            colsdx = _workspace(
                state, "colsdx", (n, h, w_in, kh, kw, filters), dtype
            )
            np.copyto(colsdx, view)
            wflip = np.ascontiguousarray(
                w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c),
                dtype=dtype,
            )
            dx2 = _workspace(state, "dx2", (n * h * w_in, c), dtype)
            np.matmul(colsdx.reshape(n * h * w_in, -1), wflip, out=dx2)
            dx = dx2.reshape(n, h, w_in, c).transpose(0, 3, 1, 2)
            return dx, dw, db
        # w2.T @ g2d.T lays the gradient columns out as (kh, kw, c, M):
        # each kernel-offset slice is then a contiguous (c, n, oh, ow)
        # block, which folds into a channels-first padded buffer with
        # plain strided adds (the NCHW fold pays a permuted copy per
        # offset instead).
        gcols_t = (w2[:, :k_cols].T @ g2d.T).reshape(kh, kw, c, n, out_h, out_w)
        gpad = _workspace(
            state, "gpad_cnhw", (c, n, h + pt + pb, w_in + pl + pr), dtype
        )
        gpad.fill(0.0)
        for i in range(kh):
            for j in range(kw):
                gpad[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += (
                    gcols_t[i, j]
                )
        dx = gpad[:, :, pt : pt + h, pl : pl + w_in].transpose(1, 0, 2, 3).copy()
        return dx, dw, db

    def _conv2d_backward_f32_banded(self, grad_out, w, pads, out_hw, state):
        band = require_state(state, "band")
        xp = state["xpad_band"]
        n, _, h, w_in = state["x_shape"]
        filters, _, kh, kw = w.shape
        pt, pb, pl, pr = pads
        out_h, out_w = out_hw
        hp, wp = h + pt + pb, w_in + pl + pr
        wp1 = xp.shape[2]
        dtype = grad_out.dtype
        g_t = grad_out.transpose(0, 2, 3, 1)
        if g_t.flags.c_contiguous:
            g_nhwf = g_t
        else:
            g_nhwf = _workspace(
                state, "g_nhwf", (n, out_h, out_w, filters), dtype
            )
            np.copyto(g_nhwf, g_t)
        # dw: per kernel row, one batched GEMM of the padded input rows
        # against the gradient, then each kernel column is a band
        # diagonal of the result.  The forward's always-one bias column
        # shows up as row ``wp`` of the kernel-row-0 block, so db falls
        # out of the same GEMM.
        db = None
        dw = np.empty((filters, 1, kh, kw), dtype)
        g3 = g_nhwf.reshape(n, out_h, out_w * filters)
        for i in range(kh):
            di = np.matmul(xp[:, i : i + out_h, :].transpose(0, 2, 1), g3)
            di = di.sum(axis=0).reshape(wp1, out_w, filters)
            if i == 0 and wp1 > wp:
                db = di[wp].sum(axis=0)
            s0, s1, s2 = di.strides
            for j in range(kw):
                diag = np.lib.stride_tricks.as_strided(
                    di[j:], shape=(out_w, filters), strides=(s0 + s1, s2),
                    writeable=False,
                )
                dw[:, 0, i, j] = diag.sum(axis=0)
        # dx: adjoint of the banded forward — one GEMM against the band
        # transpose recovers the per-(output row, kernel row) padded-row
        # gradients, which fold back with kh shifted adds.  The bias
        # band row deposits into the ones column, which the interior
        # slice drops along with the padding.
        drows = _workspace(state, "band_drows", (n * out_h, kh * wp1), dtype)
        np.matmul(
            g_nhwf.reshape(n * out_h, out_w * filters),
            band.reshape(kh * wp1, -1).T,
            out=drows,
        )
        dr = drows.reshape(n, out_h, kh, wp1)
        dxp = _workspace(state, "band_dxp", (n, hp, wp1), dtype)
        dxp.fill(0.0)
        for i in range(kh):
            dxp[:, i : i + out_h, :] += dr[:, :, i, :]
        dx = dxp[:, pt : pt + h, pl : pl + w_in].copy().reshape(n, 1, h, w_in)
        return dx, dw, db

    # -- elementwise -----------------------------------------------------
    def relu_forward(self, x, state):
        # Cache the sign mask so backward is a single multiply instead of
        # recompute + astype.  Forward keeps np.maximum, which matches
        # the reference bitwise (including the sign of zeros).
        mask = _workspace_like(state, "mask", x, np.bool_)
        np.greater(x, 0.0, out=mask)
        out = _workspace_like(state, "relu_out", x)
        return np.maximum(x, 0.0, out=out)

    def relu_backward(self, grad_out, state):
        mask = require_state(state, "mask")
        gin = _workspace_like(state, "relu_gin", grad_out)
        return np.multiply(grad_out, mask, out=gin)

    # -- pooling ---------------------------------------------------------
    def maxpool2d_forward(self, x, pool, stride, state):
        kh, kw = pool
        if kh * kw > 255:
            # uint8 argmax can't index such a window; punt to reference.
            return super().maxpool2d_forward(x, pool, stride, state)
        n, c, h, w = x.shape
        sh, sw = stride
        out_h = conv_output_size(h, kh, sh, 0)
        out_w = conv_output_size(w, kw, sw, 0)
        x0 = x[:, :, 0 : sh * out_h : sh, 0 : sw * out_w : sw]
        state["x_shape"] = x.shape
        state["out_hw"] = (out_h, out_w)
        state["x_like"] = x
        best = _workspace_like(state, "best", x0)
        better = _workspace_like(state, "better", x0, np.bool_)
        if kh * kw == 2:
            # Two-element windows (the CNN-LSTM pools are (2, 1)): the
            # argmax is a single strict comparison, keeping reference
            # first-max tie semantics without the uint8 bookkeeping.
            i1, j1 = (1, 0) if kh == 2 else (0, 1)
            x1 = x[:, :, i1 : i1 + sh * out_h : sh, j1 : j1 + sw * out_w : sw]
            np.maximum(x0, x1, out=best)
            np.greater(x1, x0, out=better)
            return best
        # Running max/argmax over the kh*kw kernel offsets via strided
        # slices: same values and first-max tie semantics as the
        # reference reshape+argmax, minus the windowed-copy blowup.
        # The argmax update is branch-free uint8 arithmetic
        # (argmax += better * (k - argmax)) because boolean fancy
        # indexing and copyto(where=) take slow paths in numpy.
        np.copyto(best, x0)
        argmax = _workspace_like(state, "argmax8", x0, np.uint8)
        argmax.fill(0)
        karg = _workspace_like(state, "karg", x0, np.uint8)
        for k in range(1, kh * kw):
            i, j = divmod(k, kw)
            window = x[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
            np.greater(window, best, out=better)
            np.maximum(best, window, out=best)
            np.subtract(k, argmax, out=karg)
            np.multiply(karg, better, out=karg)
            np.add(argmax, karg, out=argmax)
        return best

    def maxpool2d_backward(self, grad_out, pool, stride, state):
        kh, kw = pool
        if kh * kw > 255:
            return super().maxpool2d_backward(grad_out, pool, stride, state)
        better = require_state(state, "better")
        out_h, out_w = state["out_hw"]
        sh, sw = stride
        grad_in = _workspace_like(state, "grad_in", state["x_like"])
        if _elem_strides(grad_out) != _elem_strides(better):
            # Mixed-layout ufuncs into the strided destination slices
            # below are pathological; one permuted copy into the mask's
            # memory order keeps every operand layout-aligned.
            g_ws = _workspace_like(state, "g_aligned", better, grad_out.dtype)
            np.copyto(g_ws, grad_out)
            grad_out = g_ws
        if kh * kw == 2:
            i1, j1 = (1, 0) if kh == 2 else (0, 1)
            sl0 = np.s_[:, :, 0 : sh * out_h : sh, 0 : sw * out_w : sw]
            sl1 = np.s_[
                :, :, i1 : i1 + sh * out_h : sh, j1 : j1 + sw * out_w : sw
            ]
            notb = _workspace_like(state, "notb", better)
            np.logical_not(better, out=notb)
            if sh >= kh and sw >= kw:
                # Non-overlapping windows: each input cell gets at most
                # one contribution, so the two masked multiplies write
                # straight into the strided destination slices.  Cells
                # outside the window lattice (stride gaps and remainder
                # tails) are never written below, so they only need
                # zeroing when the workspace is (re)allocated.
                init_key = (state.get("grad_in_meta"), sh, sw, out_h, out_w)
                if state.get("grad_in_zeroed") != init_key:
                    grad_in.fill(0.0)
                    state["grad_in_zeroed"] = init_key
                np.multiply(grad_out, notb, out=grad_in[sl0])
                np.multiply(grad_out, better, out=grad_in[sl1])
                return grad_in
            routed = _workspace_like(state, "routed", better, grad_out.dtype)
            grad_in.fill(0.0)
            np.multiply(grad_out, notb, out=routed)
            grad_in[sl0] += routed
            np.multiply(grad_out, better, out=routed)
            grad_in[sl1] += routed
            return grad_in
        argmax = require_state(state, "argmax8")
        # Route each output gradient to its argmax offset with a masked
        # multiply, then fold with kh*kw strided adds.  When windows
        # overlap (stride < pool) a cell can receive several
        # contributions; they are added in kernel-offset order rather
        # than the reference scatter order, so results agree to
        # round-off, not bitwise.
        routed = _workspace_like(state, "routed", better, grad_out.dtype)
        grad_in.fill(0.0)
        for k in range(kh * kw):
            i, j = divmod(k, kw)
            np.equal(argmax, k, out=better)
            np.multiply(grad_out, better, out=routed)
            grad_in[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += routed
        return grad_in

    # -- LSTM ------------------------------------------------------------
    # The float64 forward keeps the reference per-step operation order
    # (bit-identical for equal dtypes); only the parameter cast differs.
    # float32 — which the reference never runs — gets a fused step that
    # writes gate activations in place into the stacked cache slabs.
    def lstm_forward(self, x, w, u, b, state):
        dtype = x.dtype
        if dtype == np.float32:
            return self._lstm_forward_f32(
                x, _cast(w, dtype), _cast(u, dtype), _cast(b, dtype), state
            )
        return super().lstm_forward(
            x, _cast(w, dtype), _cast(u, dtype), _cast(b, dtype), state
        )

    def _lstm_forward_f32(self, x, w, u, b, state):
        n, t, features = x.shape
        h = u.shape[0]
        dtype = x.dtype
        hs = _workspace(state, "hs_ws", (n, t, h), dtype)  # fully overwritten
        gates = _workspace(state, "gates_ws", (n, t, 4 * h), dtype)
        cs = _workspace(state, "cs_ws", (n, t, h), dtype)
        tanh_cs = _workspace(state, "tanh_ws", (n, t, h), dtype)
        # One flat GEMM (stacked (N, T, ·) @ w dispatches T small GEMMs),
        # with the bias folded into the hoisted input projection.
        xp_ws = _workspace(state, "xproj_ws", (n * t, 4 * h), dtype)
        np.matmul(np.ascontiguousarray(x).reshape(n * t, features), w, out=xp_ws)
        xp_ws += b
        x_proj = xp_ws.reshape(n, t, 4 * h)
        state["wu_f32"] = (w, u)
        z = _workspace(state, "zstep", (n, 4 * h), dtype)
        ig = _workspace(state, "igstep", (n, h), dtype)
        h_prev = np.zeros((n, h), dtype=dtype)
        c_prev = np.zeros((n, h), dtype=dtype)
        # Sigmoid as negative/exp/+1/reciprocal directly into the cache
        # slabs; float32 exp overflow for very negative gates saturates
        # through inf to exactly 0, which is the correct limit.
        with np.errstate(over="ignore"):
            for step in range(t):
                np.matmul(h_prev, u, out=z)
                z += x_proj[:, step, :]
                gz = gates[:, step, :]
                sig = gz[:, : 2 * h]  # i and f share one sigmoid sweep
                np.negative(z[:, : 2 * h], out=sig)
                np.exp(sig, out=sig)
                sig += 1.0
                np.reciprocal(sig, out=sig)
                sig_o = gz[:, 3 * h :]
                np.negative(z[:, 3 * h :], out=sig_o)
                np.exp(sig_o, out=sig_o)
                sig_o += 1.0
                np.reciprocal(sig_o, out=sig_o)
                np.tanh(z[:, 2 * h : 3 * h], out=gz[:, 2 * h : 3 * h])
                c = cs[:, step, :]
                np.multiply(gz[:, h : 2 * h], c_prev, out=c)
                np.multiply(gz[:, :h], gz[:, 2 * h : 3 * h], out=ig)
                c += ig
                tanh_c = tanh_cs[:, step, :]
                np.tanh(c, out=tanh_c)
                np.multiply(gz[:, 3 * h :], tanh_c, out=hs[:, step, :])
                h_prev = hs[:, step, :]
                c_prev = c
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
        if dtype == np.float32 and "wu_f32" in state:
            w, u = state["wu_f32"]  # casts cached by the f32 forward
        else:
            w = _cast(w, dtype)
            u = _cast(u, dtype)

        i = gates[:, :, :h]
        f = gates[:, :, h : 2 * h]
        g = gates[:, :, 2 * h : 3 * h]
        o = gates[:, :, 3 * h :]
        c_prev = _shifted(cs)
        # Gate derivative factors, vectorized over the whole sequence;
        # the time loop keeps only the sequential dh/dc recurrences.
        dc_fac = o * (1.0 - tanh_cs * tanh_cs)
        di_fac = g * (i * (1.0 - i))
        df_fac = c_prev * (f * (1.0 - f))
        dg_fac = i * (1.0 - g * g)
        do_fac = tanh_cs * (o * (1.0 - o))

        dzs = _workspace(state, "dzs", (n, t, 4 * h), dtype)
        dh_next = np.zeros((n, h), dtype=dtype)
        dc_next = np.zeros((n, h), dtype=dtype)
        u_t = np.ascontiguousarray(u.T)
        for step in range(t - 1, -1, -1):
            dh = grad_hs[:, step, :] + dh_next
            dc = dc_next + dh * dc_fac[:, step, :]
            dz = dzs[:, step, :]
            np.multiply(dc, di_fac[:, step, :], out=dz[:, :h])
            np.multiply(dc, df_fac[:, step, :], out=dz[:, h : 2 * h])
            np.multiply(dc, dg_fac[:, step, :], out=dz[:, 2 * h : 3 * h])
            np.multiply(dh, do_fac[:, step, :], out=dz[:, 3 * h :])
            dh_next = dz @ u_t
            dc_next = dc * f[:, step, :]
        # Collapse per-step weight gradients into single GEMMs.
        dz2d = dzs.reshape(n * t, 4 * h)
        x2d = x.reshape(n * t, features)
        d_w = x2d.T @ dz2d
        d_u = _shifted(hs).reshape(n * t, h).T @ dz2d
        d_b = _ones(state, n * t, dtype) @ dz2d
        # d_x is consumed immediately by the upstream layer's backward,
        # so it can live in a reused workspace (d_w/d_u/d_b are returned
        # to the optimizer and stay freshly allocated).
        dxw = _workspace(state, "dx_ws", (n * t, features), dtype)
        d_x = np.matmul(dz2d, w.T, out=dxw).reshape(n, t, features)
        return d_x, d_w, d_u, d_b

    # -- GRU -------------------------------------------------------------
    def gru_forward(self, x, w, u, b, state):
        dtype = x.dtype
        return super().gru_forward(
            x, _cast(w, dtype), _cast(u, dtype), _cast(b, dtype), state
        )

    def gru_backward(self, grad_hs, w, u, state):
        x = require_state(state, "x")
        gates = state["gates"]
        rhs = state["rhs"]
        hs = state["hs"]
        n, t, features = x.shape
        h = u.shape[0]
        dtype = x.dtype
        w = _cast(w, dtype)
        u = _cast(u, dtype)

        z = gates[:, :, :h]
        r = gates[:, :, h : 2 * h]
        hh = gates[:, :, 2 * h :]
        h_prev = _shifted(hs)
        fac_z = (hh - h_prev) * (z * (1.0 - z))
        fac_hh = z * (1.0 - hh * hh)
        fac_r = h_prev * (r * (1.0 - r))
        one_minus_z = 1.0 - z

        dgates = _workspace(state, "dgates", (n, t, 3 * h), dtype)
        dh_next = np.zeros((n, h), dtype=dtype)
        u_zr_t = np.ascontiguousarray(u[:, : 2 * h].T)
        u_h_t = np.ascontiguousarray(u[:, 2 * h :].T)
        for step in range(t - 1, -1, -1):
            dh = grad_hs[:, step, :] + dh_next
            dg = dgates[:, step, :]
            np.multiply(dh, fac_z[:, step, :], out=dg[:, :h])
            dhh_pre = np.multiply(dh, fac_hh[:, step, :], out=dg[:, 2 * h :])
            d_rh = dhh_pre @ u_h_t
            np.multiply(d_rh, fac_r[:, step, :], out=dg[:, h : 2 * h])
            dh_next = (
                dh * one_minus_z[:, step, :]
                + dg[:, : 2 * h] @ u_zr_t
                + d_rh * r[:, step, :]
            )
        dg2d = dgates.reshape(n * t, 3 * h)
        x2d = x.reshape(n * t, features)
        d_w = x2d.T @ dg2d
        d_b = dg2d.sum(axis=0)
        d_u = np.empty_like(u)
        d_u[:, : 2 * h] = h_prev.reshape(n * t, h).T @ dg2d[:, : 2 * h]
        d_u[:, 2 * h :] = rhs.reshape(n * t, h).T @ dg2d[:, 2 * h :]
        d_x = (dg2d @ w.T).reshape(n, t, features)
        return d_x, d_w, d_u, d_b

    # -- simple RNN ------------------------------------------------------
    def rnn_forward(self, x, w, u, b, state):
        dtype = x.dtype
        return super().rnn_forward(
            x, _cast(w, dtype), _cast(u, dtype), _cast(b, dtype), state
        )

    def rnn_backward(self, grad_hs, w, u, state):
        x = require_state(state, "x")
        hs = state["hs"]
        n, t, features = x.shape
        units = u.shape[0]
        dtype = x.dtype
        w = _cast(w, dtype)
        u = _cast(u, dtype)

        fac = 1.0 - hs * hs
        dzs = _workspace(state, "dzs", (n, t, units), dtype)
        dh_next = np.zeros((n, units), dtype=dtype)
        u_t = np.ascontiguousarray(u.T)
        for step in range(t - 1, -1, -1):
            dh = grad_hs[:, step, :] + dh_next
            dz = np.multiply(dh, fac[:, step, :], out=dzs[:, step, :])
            dh_next = dz @ u_t
        dz2d = dzs.reshape(n * t, units)
        x2d = x.reshape(n * t, features)
        d_w = x2d.T @ dz2d
        d_u = _shifted(hs).reshape(n * t, units).T @ dz2d
        d_b = dz2d.sum(axis=0)
        d_x = (dz2d @ w.T).reshape(n, t, features)
        return d_x, d_w, d_u, d_b
