"""The layers of the paper's CNN-LSTM and its architecture ablation."""

from .activation_layers import ReLU
from .attention import TemporalAttention
from .base import Layer
from .conv import Conv2D, MaxPool2D
from .dense import Dense
from .dropout import Dropout
from .gru import GRU
from .recurrent import LSTM, SimpleRNN
from .reshape import Flatten, ToSequence

LAYER_REGISTRY = {
    cls.__name__: cls
    for cls in (
        Dense,
        Conv2D,
        MaxPool2D,
        LSTM,
        GRU,
        SimpleRNN,
        TemporalAttention,
        Dropout,
        Flatten,
        ToSequence,
        ReLU,
    )
}

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "LSTM",
    "GRU",
    "SimpleRNN",
    "TemporalAttention",
    "Dropout",
    "Flatten",
    "ToSequence",
    "ReLU",
    "LAYER_REGISTRY",
]
