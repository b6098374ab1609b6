"""The :class:`ComputeBackend` contract: every tensor kernel in one place.

A backend owns the *inner loops* of the nn substrate — im2col/GEMM
convolutions, fused recurrent time-step kernels, pooling, dense — plus
the dtype policy applied at the model boundary.  Layers in
:mod:`repro.nn.layers` hold parameters and shapes; they delegate all
tensor math to their backend, so swapping a backend changes speed (and,
if the backend's dtype policy allows, precision) without touching a
single layer class.

Two implementations ship:

``optimized``
    The one runtime backend: every model runs on it.  Preallocated
    im2col / gate workspaces, stacked recurrent caches, batched BPTT
    GEMMs, and a dtype policy that preserves ``float32`` end-to-end.
    Forward passes are bit-identical to ``reference`` for equal input
    dtypes; backward passes agree to gradcheck tolerance.

``reference``
    The historical layer code, always ``float64``.  It is the oracle
    the tests compare ``optimized`` against, pinned per layer or model
    with ``set_backend(ReferenceBackend())``.

State protocol
--------------
Each layer passes its private ``state`` dict to every backend call.
Backends stash whatever must survive from forward to backward there
(caches, preallocated workspaces) under keys of their choosing, and may
reuse buffers across iterations.  A backward call raises
``RuntimeError`` when its forward state is missing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Per-axis padding as (before, after) pairs: ((top, bottom), (left, right)).
PadPairs = Tuple[Tuple[int, int], Tuple[int, int]]


def require_state(state: Dict, key: str):
    """Fetch a forward-pass cache entry or fail loudly."""
    try:
        return state[key]
    except KeyError:
        raise RuntimeError("backward called before forward") from None


class ComputeBackend:
    """Abstract compute backend; see the module docstring for the contract.

    Subclasses implement every kernel pair and :meth:`compute_dtype`.
    ``name`` labels the backend in reprs and bench records.
    """

    name: str = "abstract"

    # -- dtype policy ----------------------------------------------------
    def compute_dtype(self, dtype) -> np.dtype:
        """The dtype this backend runs a model on, given the input dtype.

        Called by :class:`~repro.nn.model.Sequential` at the model
        boundary (forward / predict / fit), so the backend — not the
        layers — owns precision policy.
        """
        raise NotImplementedError

    # -- dense -----------------------------------------------------------
    def dense_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        b: Optional[np.ndarray],
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    def dense_backward(
        self, grad_out: np.ndarray, w: np.ndarray, state: Dict
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Returns ``(dx, dw, db)``; ``db`` is None for bias-less layers."""
        raise NotImplementedError

    # -- elementwise -----------------------------------------------------
    def relu_forward(self, x: np.ndarray, state: Dict) -> np.ndarray:
        raise NotImplementedError

    def relu_backward(self, grad_out: np.ndarray, state: Dict) -> np.ndarray:
        raise NotImplementedError

    # -- convolution -----------------------------------------------------
    def conv2d_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        b: Optional[np.ndarray],
        stride: Tuple[int, int],
        pad: PadPairs,
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    def conv2d_backward(
        self,
        grad_out: np.ndarray,
        w: np.ndarray,
        stride: Tuple[int, int],
        pad: PadPairs,
        state: Dict,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        raise NotImplementedError

    # -- pooling ---------------------------------------------------------
    def maxpool2d_forward(
        self,
        x: np.ndarray,
        pool: Tuple[int, int],
        stride: Tuple[int, int],
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    def maxpool2d_backward(
        self,
        grad_out: np.ndarray,
        pool: Tuple[int, int],
        stride: Tuple[int, int],
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- recurrent (fused time-step kernels over full sequences) ---------
    def lstm_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        b: np.ndarray,
        state: Dict,
    ) -> np.ndarray:
        """Full hidden sequence ``hs`` of shape (N, T, H)."""
        raise NotImplementedError

    def lstm_backward(
        self,
        grad_hs: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        state: Dict,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(dx, dw, du, db)`` given dL/d(hs) of shape (N, T, H)."""
        raise NotImplementedError

    def gru_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        b: np.ndarray,
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    def gru_backward(
        self,
        grad_hs: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        state: Dict,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def rnn_forward(
        self,
        x: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        b: np.ndarray,
        state: Dict,
    ) -> np.ndarray:
        raise NotImplementedError

    def rnn_backward(
        self,
        grad_hs: np.ndarray,
        w: np.ndarray,
        u: np.ndarray,
        state: Dict,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -- serving ---------------------------------------------------------
    def forward_many(
        self,
        model,
        inputs: Sequence[np.ndarray],
        pad_rows: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Batched multi-user forward: one fused pass over many requests.

        ``inputs`` is one array per user, each shaped ``(n_i, *feature
        shape)`` with identical feature shapes but arbitrary per-user
        batch sizes.  The requests are stacked into a single batch, run
        through ``model`` in eval mode, and split back per user — the
        entry point the serving layer uses to amortize kernel overhead
        across concurrent users.

        ``pad_rows`` selects *canonical fixed-shape execution*: the
        stacked batch is processed in slabs of exactly ``pad_rows``
        rows (the last slab zero-padded), so every GEMM in the network
        runs at one batch shape no matter how requests were coalesced.
        BLAS picks its kernels (and therefore its last-ulp rounding) by
        operand shape, so without padding a request's logits depend on
        which other requests shared its batch; at a fixed shape each
        row's result depends only on that row's data.  This is what
        makes the serving layer's micro-batched results bit-identical
        to sequential per-user predicts — the same trick as padding to
        a compiled batch shape on TPU-style serving stacks.
        """
        if not inputs:
            return []
        feature_shapes = [tuple(np.shape(x)[1:]) for x in inputs]
        leader = feature_shapes[0]
        for index, shape in enumerate(feature_shapes):
            if shape != leader:
                raise ValueError(
                    f"forward_many requires identical feature shapes "
                    f"across requests: request 0 has feature shape "
                    f"{leader} but request {index} has {shape}; bucket "
                    f"requests by feature shape (as the serving "
                    f"micro-batcher does) before batching"
                )
        counts = [int(np.shape(x)[0]) for x in inputs]
        stacked = np.concatenate([np.asarray(x) for x in inputs], axis=0)
        stacked = model._cast_input(stacked)
        if pad_rows is None or stacked.shape[0] == 0:
            out = model.forward(stacked, training=False)
        else:
            if pad_rows < 1:
                raise ValueError(f"pad_rows must be >= 1, got {pad_rows}")
            slabs = []
            for start in range(0, stacked.shape[0], pad_rows):
                chunk = stacked[start : start + pad_rows]
                rows = chunk.shape[0]
                if rows < pad_rows:
                    pad_shape = (pad_rows - rows,) + chunk.shape[1:]
                    chunk = np.concatenate(
                        [chunk, np.zeros(pad_shape, dtype=chunk.dtype)],
                        axis=0,
                    )
                slabs.append(model.forward(chunk, training=False)[:rows])
            out = np.concatenate(slabs, axis=0)
        offsets = np.cumsum(counts)[:-1]
        return np.split(out, offsets, axis=0)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
