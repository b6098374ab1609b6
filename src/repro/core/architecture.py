"""The paper's CNN-LSTM architecture (Fig. 2) built on the nn substrate.

Two convolutional blocks extract spatial structure from the 2D feature
map (features x windows); pooling shrinks only the feature axis so the
window axis survives as the LSTM's sequence dimension; the LSTM
integrates sequential context and a dense softmax head classifies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import nn
from .config import ModelConfig


def cnn_lstm_layers(
    config: Optional[ModelConfig] = None, seed: int = 0
) -> List[nn.Layer]:
    """The CLEAR CNN-LSTM layer stack, unbuilt (no parameters allocated).

    Constructing layers is cheap and side-effect free, so this is the
    entry point for *static* validation (``repro check-model``, the
    trainer/pipeline pre-flight hooks): the stack can be traced
    symbolically without ever running a forward pass.
    """
    cfg = config or ModelConfig()
    recurrent_cls = {"lstm": nn.LSTM, "gru": nn.GRU, "rnn": nn.SimpleRNN}[
        cfg.recurrent_cell
    ]
    layers: List[nn.Layer] = [
        nn.Conv2D(cfg.conv_filters[0], cfg.kernel_size, padding="same", name="conv1"),
        nn.ReLU(name="relu1"),
        nn.MaxPool2D(cfg.pool_size, name="pool1"),
        nn.Conv2D(cfg.conv_filters[1], cfg.kernel_size, padding="same", name="conv2"),
        nn.ReLU(name="relu2"),
        nn.MaxPool2D(cfg.pool_size, name="pool2"),
        nn.ToSequence(name="to_sequence"),
    ]
    if cfg.attention_readout:
        layers.append(
            recurrent_cls(cfg.lstm_units, return_sequences=True, name="lstm")
        )
        layers.append(
            nn.TemporalAttention(max(4, cfg.lstm_units // 2), name="attention")
        )
    else:
        layers.append(recurrent_cls(cfg.lstm_units, name="lstm"))
    layers.append(nn.Dropout(cfg.dropout, seed=seed, name="dropout"))
    layers.append(nn.Dense(cfg.num_classes, name="head"))
    return layers


def build_cnn_lstm(
    input_shape: Tuple[int, int, int],
    config: Optional[ModelConfig] = None,
    seed: int = 0,
) -> nn.Sequential:
    """Construct (and eagerly build) the CLEAR CNN-LSTM.

    Parameters
    ----------
    input_shape:
        ``(channels, F, W)`` — channels is 1 for a single feature map.
    config:
        Architecture hyper-parameters; paper defaults if omitted.
    seed:
        Weight initialization seed.
    """
    cfg = config or ModelConfig()
    if len(input_shape) != 3:
        raise ValueError(f"input_shape must be (C, F, W), got {input_shape}")
    _, num_features, num_windows = input_shape
    if num_windows < 1 or num_features < cfg.pool_size[0] ** 2:
        raise ValueError(
            f"feature map {num_features}x{num_windows} too small for the "
            f"architecture's pooling {cfg.pool_size}"
        )

    model = nn.Sequential(cnn_lstm_layers(cfg, seed=seed), seed=seed)
    model.build(tuple(input_shape))
    return model


#: Names of the convolutional feature-extractor layers, frozen during
#: on-device fine-tuning.
FEATURE_EXTRACTOR_LAYERS = ("conv1", "conv2")


def freeze_feature_extractor(model: nn.Sequential) -> None:
    """Freeze the conv layers for the cheap fine-tuning stage."""
    model.freeze_layers(list(FEATURE_EXTRACTOR_LAYERS))


def architecture_summary(
    input_shape: Tuple[int, int, int], config: Optional[ModelConfig] = None
) -> str:
    """Printable Fig. 2-style description with parameter counts."""
    model = build_cnn_lstm(input_shape, config)
    return model.summary(tuple(input_shape))
