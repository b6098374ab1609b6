"""Layer protocol for the numpy neural-network substrate.

A :class:`Layer` is a stateful module with an explicit ``forward`` /
``backward`` pair.  Parameters and their gradients live in two parallel
dicts so optimizers can iterate them generically, and a ``frozen`` flag
supports the fine-tuning workflow from the CLEAR paper (freeze feature
extractor, retrain the head on-device).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

import numpy as np

from ..backends import ComputeBackend, OptimizedBackend

_name_counters = itertools.count()

#: The backend every layer runs on unless pinned with ``set_backend``.
RUNTIME_BACKEND = OptimizedBackend()


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`build` (lazy parameter creation from the
    first input shape), :meth:`forward` and :meth:`backward`.  The
    contract for ``backward`` is: given dL/d(output), populate
    ``self.grads`` for every key in ``self.params`` and return
    dL/d(input).
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name or f"{type(self).__name__.lower()}_{next(_name_counters)}"
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False
        self.frozen = False
        self.training = True
        # The state dict holds everything a call leaves behind: the
        # layer's forward caches and its backend's workspaces.  Nothing
        # else may cache per call, so __getstate__ can drop it whole.
        self._backend: ComputeBackend = RUNTIME_BACKEND
        self._backend_state: Dict = {}

    # -- backend ---------------------------------------------------------
    @property
    def backend(self) -> ComputeBackend:
        """The :class:`~repro.nn.backends.ComputeBackend` running this layer."""
        return self._backend

    def set_backend(self, backend: ComputeBackend) -> None:
        """Pin this layer to a backend instance (tests pin the reference).

        Clears the backend state dict: caches and workspaces are private
        to one backend and must not leak across implementations.
        """
        if not isinstance(backend, ComputeBackend):
            raise TypeError(
                f"expected a ComputeBackend instance, got {type(backend).__name__}"
            )
        self._backend = backend
        self._backend_state.clear()

    def __getstate__(self) -> Dict:
        # A pickled layer carries its parameters, not the last call's
        # caches and workspaces.
        state = self.__dict__.copy()
        state["_backend_state"] = {}
        return state

    # -- lifecycle -------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters from the (batch-less) input shape."""
        del input_shape, rng
        self.built = True

    def ensure_built(self, x: np.ndarray, rng: np.random.Generator) -> None:
        """Build on first use from a concrete batch ``x``."""
        if not self.built:
            self.build(tuple(x.shape[1:]), rng)
            self.built = True

    # -- computation -----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for a batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` (dL/d output) to dL/d input."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape of the output (excluding batch) for a given input shape."""
        return input_shape

    # -- bookkeeping -----------------------------------------------------
    def zero_grads(self) -> None:
        """Reset accumulated gradients to zeros."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def freeze(self) -> None:
        """Exclude this layer's parameters from optimizer updates."""
        self.frozen = True

    def unfreeze(self) -> None:
        """Re-include this layer's parameters in optimizer updates."""
        self.frozen = False

    @property
    def num_params(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))

    @property
    def trainable_params(self) -> Dict[str, np.ndarray]:
        """Parameters that the optimizer should update (empty if frozen)."""
        return {} if self.frozen else self.params

    def get_config(self) -> Dict:
        """Serializable constructor arguments (overridden by subclasses)."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, params={self.num_params})"
