"""repro: reproduction of "Solving the Cold-Start Problem for the Edge:
Clustering and Adaptive Deep Learning for Emotion Detection" (DATE 2025).

Subpackages
-----------
``repro.nn``
    From-scratch numpy deep-learning framework (Conv2D, LSTM, Adam, ...).
``repro.signals``
    Physiological DSP and the 123-feature / feature-map front end.
``repro.datasets``
    Synthetic WEMAC-compatible corpus (archetype-structured volunteers).
``repro.clustering``
    k-means, internal indices, global clustering (GC), cold-start CA.
``repro.core``
    The CLEAR methodology: pipeline, CNN-LSTM, Table-I validation harness.
``repro.edge``
    Quantization + device cost models for the Table-II edge experiments.
``repro.analysis``
    Static model/graph validator + repo-invariant lint engine.
``repro.resilience``
    Fault-injection harness + graceful-degradation runtime (typed
    errors in :mod:`repro.errors`).
``repro.runtime``
    Deterministic serial/parallel executors + content-addressed cache
    for feature maps and trained-fold checkpoints.
``repro.orchestration``
    Typed Stage/Artifact pipeline graphs with provenance capture; the
    single injection point for executors and caches.
``repro.scenarios``
    Streamed populations: lazy chunked subject generation (bit-identical
    to materialized), population dynamics, device fleets, streaming
    k-means over scenario signature streams.
``repro.serving``
    Fleet-scale micro-batched online inference with a deterministic
    load generator (imported lazily; see :mod:`repro.serving`).
"""

__version__ = "1.0.0"

import importlib

#: Subpackages, imported on first attribute access (PEP 562) so that
#: ``import repro`` — and the AST-only analyzer behind it — does not load
#: the scientific stack.
_SUBPACKAGES = (
    "analysis",
    "nn",
    "signals",
    "datasets",
    "clustering",
    "core",
    "edge",
    "errors",
    "experiments",
    "orchestration",
    "resilience",
    "runtime",
    "scenarios",
    "viz",
)


def __getattr__(name):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*_SUBPACKAGES, "__version__"]
