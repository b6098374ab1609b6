"""A compact, from-scratch numpy deep-learning framework.

This substrate replaces TensorFlow/Keras in the offline reproduction of
the CLEAR paper.  It holds the paper's CNN-LSTM (Fig. 2) — convolution,
max pooling, ReLU, LSTM, dropout and a dense head — and the GRU, plain
RNN and temporal-attention read-out its architecture ablation swaps in.
Training uses softmax cross-entropy and Adam, with best-weights
tracking, early stopping, checkpointing and layer freezing for
on-device fine-tuning, all verified by numerical gradient checks in the
test suite.
"""

from . import activations, backends, initializers
from .backends import ComputeBackend
from .callbacks import BestWeights, Callback, EarlyStopping, History
from .checkpoint import load_model, model_from_config, model_to_config, save_model
from .layers import (
    GRU,
    LSTM,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    SimpleRNN,
    TemporalAttention,
    ToSequence,
)
from .losses import SoftmaxCrossEntropy
from .metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)
from .model import Sequential, iterate_minibatches
from .optimizers import Adam

__all__ = [
    "activations",
    "backends",
    "initializers",
    "ComputeBackend",
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
    "SoftmaxCrossEntropy",
    "Adam",
    "Sequential",
    "iterate_minibatches",
    "Callback",
    "History",
    "EarlyStopping",
    "BestWeights",
    "save_model",
    "load_model",
    "model_to_config",
    "model_from_config",
    "accuracy",
    "f1_score",
    "precision_recall_f1",
    "confusion_matrix",
]
