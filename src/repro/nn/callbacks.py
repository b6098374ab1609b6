"""Training callbacks: history, early stopping, best-weights tracking."""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

logger = logging.getLogger("repro.nn")


class Callback:
    """Base callback; hooks fire around epochs during ``Sequential.fit``."""

    def on_train_begin(self, model) -> None:
        pass

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        pass

    def on_train_end(self, model) -> None:
        pass

    @property
    def stop_training(self) -> bool:
        return False


class History(Callback):
    """Records per-epoch logs into ``self.epochs``."""

    def __init__(self):
        self.epochs: List[Dict[str, float]] = []

    def on_train_begin(self, model) -> None:
        self.epochs = []

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        self.epochs.append(dict(logs))

    def series(self, key: str) -> List[float]:
        """Extract one metric across epochs (missing epochs skipped)."""
        return [e[key] for e in self.epochs if key in e]


class EpochLogger(Callback):
    """Emit per-epoch training progress through the ``repro.nn`` logger.

    This is the logging path behind ``Sequential.fit(verbose=True)``;
    attach it explicitly to pick a different level or logger handler.
    """

    def __init__(self, total_epochs: Optional[int] = None, level: int = logging.INFO):
        self.total_epochs = total_epochs
        self.level = int(level)

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        parts = ", ".join(f"{k}={v:.4f}" for k, v in logs.items())
        total = f"/{self.total_epochs}" if self.total_epochs else ""
        logger.log(self.level, "epoch %d%s: %s", epoch + 1, total, parts)


class EarlyStopping(Callback):
    """Stop when a monitored metric stops improving.

    Parameters
    ----------
    monitor:
        Key into the epoch logs, e.g. ``'val_loss'`` or ``'loss'``.
    patience:
        Epochs without improvement to tolerate before stopping.
    min_delta:
        Minimum change that counts as an improvement.
    mode:
        ``'min'`` (losses) or ``'max'`` (accuracies).
    restore_best:
        If True, model weights are rolled back to the best epoch when
        training ends.
    """

    def __init__(
        self,
        monitor: str = "val_loss",
        patience: int = 5,
        min_delta: float = 0.0,
        mode: str = "min",
        restore_best: bool = True,
    ):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.monitor = monitor
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.mode = mode
        self.restore_best = bool(restore_best)
        self._stop = False
        self.best: Optional[float] = None
        self.best_epoch: int = -1
        self._wait = 0
        self._best_weights = None

    @property
    def stop_training(self) -> bool:
        return self._stop

    def _improved(self, value: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def on_train_begin(self, model) -> None:
        self._stop = False
        self.best = None
        self.best_epoch = -1
        self._wait = 0
        self._best_weights = None

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        if self.monitor not in logs:
            return
        value = float(logs[self.monitor])
        if self._improved(value):
            self.best = value
            self.best_epoch = epoch
            self._wait = 0
            if self.restore_best:
                self._best_weights = model.get_weights()
        else:
            self._wait += 1
            if self._wait > self.patience:
                self._stop = True

    def on_train_end(self, model) -> None:
        if self.restore_best and self._best_weights is not None:
            model.set_weights(self._best_weights)


class BestWeights(Callback):
    """Track the best weights by a monitored metric without stopping."""

    def __init__(self, monitor: str = "val_accuracy", mode: str = "max"):
        if mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
        self.monitor = monitor
        self.mode = mode
        self.best: Optional[float] = None
        self.best_weights = None

    def on_train_begin(self, model) -> None:
        self.best = None
        self.best_weights = None

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        if self.monitor not in logs:
            return
        value = float(logs[self.monitor])
        better = (
            self.best is None
            or (self.mode == "max" and value > self.best)
            or (self.mode == "min" and value < self.best)
        )
        if better:
            self.best = value
            self.best_weights = model.get_weights()

    def on_train_end(self, model) -> None:
        if self.best_weights is not None:
            model.set_weights(self.best_weights)
