"""Training callbacks: history, early stopping, best-weights tracking."""

from __future__ import annotations

from typing import Dict, List, Optional


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


class EarlyStopping(Callback):
    """Stop when the epoch's training ``loss`` stops decreasing.

    Parameters
    ----------
    patience:
        Epochs without improvement to tolerate before stopping.
    """

    def __init__(self, patience: int = 5):
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.patience = int(patience)
        self._stop = False
        self.best: Optional[float] = None
        self._wait = 0

    @property
    def stop_training(self) -> bool:
        return self._stop

    def on_train_begin(self, model) -> None:
        self._stop = False
        self.best = None
        self._wait = 0

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        value = float(logs["loss"])
        if self.best is None or value < self.best:
            self.best = value
            self._wait = 0
        else:
            self._wait += 1
            if self._wait > self.patience:
                self._stop = True


class BestWeights(Callback):
    """Keep the weights of the epoch with the best training ``accuracy``
    and restore them when training ends; never stops training."""

    def __init__(self):
        self.best: Optional[float] = None
        self.best_weights = None

    def on_train_begin(self, model) -> None:
        self.best = None
        self.best_weights = None

    def on_epoch_end(self, model, epoch: int, logs: Dict[str, float]) -> None:
        value = float(logs["accuracy"])
        if self.best is None or value > self.best:
            self.best = value
            self.best_weights = model.get_weights()

    def on_train_end(self, model) -> None:
        if self.best_weights is not None:
            model.set_weights(self.best_weights)
