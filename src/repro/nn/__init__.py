"""A compact, from-scratch numpy deep-learning framework.

This substrate replaces TensorFlow/Keras in the offline reproduction of
the CLEAR paper.  It provides the layers needed for the paper's
CNN-LSTM (Fig. 2) plus the training machinery (Adam, early stopping,
checkpointing, layer freezing for on-device fine-tuning), all verified
by numerical gradient checks in the test suite.
"""

from . import activations, backends, initializers
from .backends import ComputeBackend
from .callbacks import (
    BestWeights,
    Callback,
    EarlyStopping,
    EpochLogger,
    History,
)
from .checkpoint import load_model, model_from_config, model_to_config, save_model
from .layers import (
    ELU,
    GRU,
    LSTM,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool2D,
    ReLU,
    Reshape,
    Sigmoid,
    SimpleRNN,
    Softmax,
    Tanh,
    TemporalAttention,
    ToSequence,
)
from .losses import BinaryCrossEntropy, Loss, MeanSquaredError, SoftmaxCrossEntropy
from .metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    precision_recall_f1,
)
from .model import Sequential, iterate_minibatches
from .optimizers import SGD, Adam, Optimizer, RMSProp

__all__ = [
    "activations",
    "backends",
    "initializers",
    "ComputeBackend",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "LSTM",
    "GRU",
    "SimpleRNN",
    "TemporalAttention",
    "Dropout",
    "BatchNorm",
    "Flatten",
    "Reshape",
    "ToSequence",
    "ReLU",
    "LeakyReLU",
    "ELU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "Loss",
    "SoftmaxCrossEntropy",
    "BinaryCrossEntropy",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "RMSProp",
    "Adam",
    "Sequential",
    "iterate_minibatches",
    "Callback",
    "History",
    "EpochLogger",
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
