"""The Sequential model: forward/backward orchestration and training loop."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import losses as losses_mod
from . import optimizers as optim_mod
from .backends import ComputeBackend
from .callbacks import Callback, EpochLogger, History
from .layers.base import RUNTIME_BACKEND, Layer
from .metrics import accuracy


def iterate_minibatches(
    n: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
):
    """Yield index arrays covering ``range(n)`` in mini-batches.

    When no ``rng`` is supplied the shuffle falls back to a fixed seed so
    that standalone calls stay reproducible (callers that want varying
    orders must thread their own generator, as ``Sequential.fit`` does).
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    indices = np.arange(n)
    if shuffle:
        if rng is None:
            rng = np.random.default_rng(0)
        rng.shuffle(indices)
    for start in range(0, n, batch_size):
        yield indices[start : start + batch_size]


class Sequential:
    """A linear stack of layers with a Keras-like training API.

    Every layer runs on the optimized compute backend (see
    :mod:`repro.nn.backends`), which also owns the dtype the model
    computes in: ``float32`` input stays ``float32``, anything else runs
    in ``float64``.

    Parameters
    ----------
    layers:
        Layer instances executed in order.
    seed:
        Seed for parameter initialization (and batch shuffling).
    """

    def __init__(
        self,
        layers: Optional[Sequence[Layer]] = None,
        seed: int = 0,
    ):
        self._backend: ComputeBackend = RUNTIME_BACKEND
        self.layers: List[Layer] = []
        for layer in layers or []:
            self.add(layer)
        self.rng = np.random.default_rng(seed)
        self.loss: Optional[losses_mod.Loss] = None
        self.optimizer: Optional[optim_mod.Optimizer] = None
        self.history = History()
        self.stop_training = False

    # -- construction ----------------------------------------------------
    @property
    def backend(self) -> ComputeBackend:
        """The compute backend this model runs on."""
        return self._backend

    def set_backend(self, backend: ComputeBackend) -> "Sequential":
        """Switch every layer to a backend instance; returns self.

        Parameters are untouched (they always live in ``float64``), so
        switching is cheap and reversible at any point — the seam tests
        use to run a model on the ``ReferenceBackend`` oracle.
        """
        for layer in self.layers:
            layer.set_backend(backend)
        self._backend = backend
        return self

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        if layer.backend is not self._backend:
            layer.set_backend(self._backend)
        self.layers.append(layer)
        return self

    def compile(
        self,
        loss: Union[str, losses_mod.Loss] = "softmax_cross_entropy",
        optimizer: Union[str, optim_mod.Optimizer] = "adam",
    ) -> "Sequential":
        """Attach a loss and optimizer; returns self for chaining."""
        self.loss = losses_mod.get(loss)
        self.optimizer = optim_mod.get(optimizer)
        return self

    def validate(self, input_shape: Tuple[int, ...], dtype: str = "float64"):
        """Statically validate the stack for ``input_shape`` (no forward).

        Walks every layer's ``output_shape`` contract symbolically and
        returns a :class:`repro.analysis.ModelReport` (per-layer shapes,
        dtypes, parameter counts, memory footprints).  Raises
        :class:`repro.analysis.GraphValidationError` — naming the layer
        index and the expected-vs-actual shapes — on the first defect.
        """
        # Imported lazily: repro.analysis is deliberately decoupled from
        # repro.nn so each can be imported without the other.
        from ..analysis.graph import validate_model

        return validate_model(self, input_shape, dtype=dtype)

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Eagerly build all layers from a (batch-less) input shape.

        The stack is statically validated first, so a mis-shaped
        architecture fails with a :class:`~repro.analysis.GraphValidationError`
        naming the offending layer instead of an opaque NumPy error.
        """
        self.validate(input_shape)
        shape = tuple(input_shape)
        for layer in self.layers:
            if not layer.built:
                layer.build(shape, self.rng)
                layer.built = True
            shape = layer.output_shape(shape)

    # -- computation -----------------------------------------------------
    def set_training(self, training: bool) -> None:
        for layer in self.layers:
            layer.training = training

    def _cast_input(self, x: np.ndarray) -> np.ndarray:
        """Apply the backend's dtype policy at the model boundary."""
        x = np.asarray(x)
        return x.astype(self.backend.compute_dtype(x.dtype), copy=False)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the full stack; builds lazily from the first batch."""
        self.set_training(training)
        out = self._cast_input(x)
        for layer in self.layers:
            layer.ensure_built(out, self.rng)
            out = layer.forward(out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient through the stack."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Forward pass in eval mode, batched to bound memory."""
        x = self._cast_input(x)
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outputs, axis=0)

    def predict_many(
        self,
        inputs: Sequence[np.ndarray],
        pad_rows: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Batched multi-user forward: one fused pass over many requests.

        Each entry of ``inputs`` is one user's batch, shape ``(n_i,
        *features)`` with identical feature shapes.  The backend stacks
        them into a single forward pass and splits the outputs back per
        user — the serving-layer entry point that amortizes kernel and
        dispatch overhead across concurrent edge requests.  ``pad_rows``
        enables canonical fixed-shape execution (see
        :meth:`~repro.nn.backends.base.ComputeBackend.forward_many`):
        every forward runs at exactly that many rows, making each
        request's logits independent of how requests were coalesced —
        the serving layer's bit-identity guarantee.
        """
        return self.backend.forward_many(self, inputs, pad_rows=pad_rows)

    def predict_classes(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Argmax class predictions."""
        return self.predict(x, batch_size=batch_size).argmax(axis=1)

    # -- training --------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimization step on a single batch; returns the loss."""
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("call compile() before training")
        logits = self.forward(x, training=True)
        loss_value = self.loss.loss(logits, y)
        grad = self.loss.grad(logits, y)
        self.backward(grad)
        self.optimizer.step(self.layers)
        return loss_value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        callbacks: Optional[Iterable[Callback]] = None,
        verbose: bool = False,
    ) -> History:
        """Mini-batch training loop with callbacks.

        Each epoch logs ``loss`` (the mean batch loss), ``accuracy`` (on
        the training data) and ``epoch``.
        """
        if self.loss is None or self.optimizer is None:
            raise RuntimeError("call compile() before training")
        x = self._cast_input(x)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x and y disagree on batch size: {x.shape[0]} vs {y.shape[0]}"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")

        callbacks = list(callbacks) if callbacks else []
        if verbose:
            # verbose=True is sugar for attaching the logging callback;
            # progress goes through the "repro.nn" logger, never print().
            callbacks.append(EpochLogger(total_epochs=epochs))
        all_callbacks: List[Callback] = [self.history] + callbacks
        self.stop_training = False
        for cb in all_callbacks:
            cb.on_train_begin(self)

        for epoch in range(epochs):
            epoch_losses = []
            for batch_idx in iterate_minibatches(x.shape[0], batch_size, self.rng):
                epoch_losses.append(self.train_batch(x[batch_idx], y[batch_idx]))
            logs: Dict[str, float] = {
                "loss": float(np.mean(epoch_losses)),
                "epoch": float(epoch),
            }
            train_pred = self.predict(x)
            logs["accuracy"] = accuracy(y, train_pred)
            for cb in all_callbacks:
                cb.on_epoch_end(self, epoch, logs)
            if any(cb.stop_training for cb in all_callbacks):
                self.stop_training = True
                break

        for cb in all_callbacks:
            cb.on_train_end(self)
        return self.history

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> Dict[str, float]:
        """Loss and accuracy on held-out data."""
        if self.loss is None:
            raise RuntimeError("call compile() before evaluate")
        logits = self.predict(x, batch_size=batch_size)
        y = np.asarray(y)
        return {
            "loss": self.loss.loss(logits, y),
            "accuracy": accuracy(y, logits),
        }

    # -- weights / freezing ----------------------------------------------
    def get_weights(self) -> List[Dict[str, np.ndarray]]:
        """Copy of every layer's parameters (ordered by layer)."""
        return [
            {key: value.copy() for key, value in layer.params.items()}
            for layer in self.layers
        ]

    def set_weights(self, weights: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError(
                f"weight list has {len(weights)} entries for {len(self.layers)} layers"
            )
        for layer, wdict in zip(self.layers, weights):
            for key, value in wdict.items():
                if key not in layer.params:
                    raise KeyError(f"layer {layer.name} has no parameter {key!r}")
                if layer.params[key].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {layer.name}.{key}: "
                        f"{layer.params[key].shape} vs {value.shape}"
                    )
                layer.params[key] = np.asarray(value, dtype=np.float64).copy()

    def freeze_layers(self, names_or_count: Union[int, Sequence[str]]) -> None:
        """Freeze the first N layers, or layers matched by name."""
        if isinstance(names_or_count, int):
            for layer in self.layers[:names_or_count]:
                layer.freeze()
        else:
            wanted = set(names_or_count)
            for layer in self.layers:
                if layer.name in wanted:
                    layer.freeze()

    def unfreeze_all(self) -> None:
        for layer in self.layers:
            layer.unfreeze()

    # -- introspection ----------------------------------------------------
    @property
    def num_params(self) -> int:
        return sum(layer.num_params for layer in self.layers)

    def __repro_content__(self) -> Dict[str, np.ndarray]:
        """Digest content: what a checkpoint stores (config, params,
        layer state), not training flags or per-call caches."""
        # Imported lazily: repro.nn.checkpoint imports this module.
        from .checkpoint import model_arrays

        return model_arrays(self)

    def summary(self, input_shape: Optional[Tuple[int, ...]] = None) -> str:
        """Human-readable table of layers, output shapes, and params."""
        lines = [f"{'layer':<28}{'output shape':<22}{'params':>10}"]
        lines.append("-" * 60)
        shape = tuple(input_shape) if input_shape else None
        for layer in self.layers:
            if shape is not None:
                shape = layer.output_shape(shape)
                shape_str = str(shape)
            else:
                shape_str = "?"
            lines.append(
                f"{layer.name:<28}{shape_str:<22}{layer.num_params:>10}"
            )
        lines.append("-" * 60)
        lines.append(f"total params: {self.num_params}")
        return "\n".join(lines)
