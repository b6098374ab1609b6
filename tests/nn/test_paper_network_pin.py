"""Bit-identity pin for the paper network's initial weights and one Adam step.

The table-1 golden rounds accuracy to two decimals, so it cannot see a
change in how weights are drawn or how Adam updates them.  These digests
hash the checkpoint content (architecture config and every parameter) of
each architecture-ablation variant right after construction, and again
after one ``train_batch`` with the loss and optimizer the trainer uses.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import nn
from repro.core import build_cnn_lstm
from repro.core.config import ModelConfig

VARIANTS = {
    "lstm": {"recurrent_cell": "lstm"},
    "gru": {"recurrent_cell": "gru"},
    "rnn": {"recurrent_cell": "rnn"},
    "lstm+attn": {"recurrent_cell": "lstm", "attention_readout": True},
}

PINNED = {
    "lstm": (
        "77ec3b76be94329f8c6a9cda088ebf0ef756cb86bcb93b4debb2994dbcfa6968",
        "7987a26a30d703618de618a4725bf1faeeeda2e7f30ab3e89e5145a9b0085653",
    ),
    "gru": (
        "0fe3ae4a2b86b5edfb261a0e61a7b42e3d7d1a2567a818dbbd315b080e787cbc",
        "41fd39ac2582993d95926228ab883c25f0fe6120f7388bac50ba75c6bd5e9182",
    ),
    "rnn": (
        "42be74df99cf47be1f7c7b3da8de5352a2bd520f895ccd453a6a3792ffb86518",
        "779024a3d8f731bb5463611cee44a9b0f567f533c82e41b94a9c2ce57ae51ce2",
    ),
    "lstm+attn": (
        "c97a79ce39468af88af628bda090e6f20a050467c8a315e61d337f823dc8fe89",
        "141b0b064e02840d7afdc195838e80b4cdd7b1e57ca3db86312c1aaab689684c",
    ),
}


def _digest(model: nn.Sequential) -> str:
    h = hashlib.sha256()
    for name, value in sorted(model.__repro_content__().items()):
        arr = np.ascontiguousarray(value)
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_initial_weights_and_one_adam_step_are_pinned(variant):
    cfg = dataclasses.replace(ModelConfig(), **VARIANTS[variant])
    model = build_cnn_lstm((1, 16, 8), cfg, seed=0)
    initial = _digest(model)

    model.compile(nn.SoftmaxCrossEntropy(), nn.Adam(clipnorm=5.0))
    # Scaled so that the gradient norm of every variant but lstm+attn
    # exceeds clipnorm: the step covers both sides of the clip.
    x = 10.0 * np.random.default_rng(123).normal(size=(4, 1, 16, 8))
    y = np.array([0, 1, 0, 1])
    model.train_batch(x, y)
    stepped = _digest(model)

    assert (initial, stepped) == PINNED[variant]
