"""Static analysis for the CLEAR reproduction.

Two parts:

``repro.analysis.shapes`` / ``repro.analysis.graph``
    Symbolic shape + dtype inference over layer stacks and architecture
    configs — rejects mis-shaped models before any forward pass runs
    (``Sequential.validate``, ``repro check-model``, and the pre-flight
    hooks in :mod:`repro.core.trainer` / :mod:`repro.core.pipeline`).
``repro check-determinism``
    The one source analyzer (:mod:`repro.analysis.dataflow.engine`).
    It parses each file once and runs every row of the rule table in
    :mod:`repro.analysis.rules`: the per-file rules (RPR001–RPR009,
    RPR018–RPR021) for syntactically visible reproduction-killers, and
    the whole-repo rules (RPR010–RPR017) for hazards no single file
    reveals — interprocedural unseeded-RNG flow, Stage purity
    contracts, cross-process dispatch hazards and unused
    ``# repro: noqa`` suppressions.  ``repro.analysis.sarif`` prints its
    findings as SARIF 2.1.0 for code-scanning UIs.
"""

from .graph import (
    LayerReport,
    ModelReport,
    PRECISION_BYTES,
    trace_layers,
    validate_architecture,
    validate_config,
    validate_model,
)
from .shapes import GraphValidationError, TensorSpec, estimate_param_count

__all__ = [
    "GraphValidationError",
    "TensorSpec",
    "estimate_param_count",
    "LayerReport",
    "ModelReport",
    "PRECISION_BYTES",
    "trace_layers",
    "validate_architecture",
    "validate_config",
    "validate_model",
]
