"""Configuration objects for the CLEAR pipeline and validation harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class ModelConfig:
    """CNN-LSTM architecture hyper-parameters (paper Fig. 2)."""

    conv_filters: Tuple[int, int] = (8, 16)
    kernel_size: int = 3
    #: Pooling acts on the feature axis only so the window (time) axis
    #: survives for the LSTM.
    pool_size: Tuple[int, int] = (2, 1)
    lstm_units: int = 32
    dropout: float = 0.25
    num_classes: int = 2
    #: Recurrent cell: 'lstm' (the paper's choice), 'gru', or 'rnn'.
    #: Exposed for the architecture ablation.
    recurrent_cell: str = "lstm"
    #: Replace the last-state read-out with temporal-attention pooling
    #: over the full hidden sequence (architecture extension).
    attention_readout: bool = False

    def __post_init__(self) -> None:
        if len(self.conv_filters) != 2:
            raise ValueError("the paper's architecture uses exactly 2 conv layers")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.recurrent_cell not in ("lstm", "gru", "rnn"):
            raise ValueError(
                f"recurrent_cell must be 'lstm', 'gru' or 'rnn', "
                f"got {self.recurrent_cell!r}"
            )

    @property
    def backend(self) -> str:
        """Name of the compute backend every built model runs on."""
        from ..nn.backends import OptimizedBackend

        return OptimizedBackend.name


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters for cloud pre-training."""

    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 1e-3
    early_stopping_patience: int = 8
    clipnorm: float = 5.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class FineTuneConfig:
    """On-device fine-tuning hyper-parameters (paper §III-B.2).

    The convolutional feature extractor is frozen by default and only
    the LSTM + head are updated, which is what makes the retraining
    cheap enough for edge devices.
    """

    epochs: int = 15
    batch_size: int = 8
    learning_rate: float = 5e-4
    freeze_feature_extractor: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class CLEARConfig:
    """Top-level CLEAR methodology configuration.

    Defaults follow the paper: K = 4 clusters, 10 % unlabeled data for
    cold-start assignment, 20 % labelled data for fine-tuning.
    """

    num_clusters: int = 4
    subclusters_per_cluster: int = 3
    gc_refinements: int = 10
    gc_subsample_fraction: float = 0.8
    ca_data_fraction: float = 0.10
    ft_label_fraction: float = 0.20
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    fine_tuning: FineTuneConfig = field(default_factory=FineTuneConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not 0.0 < self.ca_data_fraction < 1.0:
            raise ValueError("ca_data_fraction must be in (0, 1)")
        if not 0.0 < self.ft_label_fraction < 1.0:
            raise ValueError("ft_label_fraction must be in (0, 1)")

    @staticmethod
    def paper(seed: int = 0) -> "CLEARConfig":
        """Full paper-scale settings."""
        return CLEARConfig(seed=seed)

    @staticmethod
    def fast(seed: int = 0) -> "CLEARConfig":
        """Reduced settings for tests and quick benchmarks."""
        return CLEARConfig(
            subclusters_per_cluster=2,
            gc_refinements=5,
            training=TrainingConfig(epochs=15, batch_size=8, early_stopping_patience=4),
            fine_tuning=FineTuneConfig(epochs=8),
            seed=seed,
        )
