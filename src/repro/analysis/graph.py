"""Static graph validation: trace a layer stack symbolically, no forward pass.

:func:`trace_layers` walks a list of layer instances with a symbolic
:class:`~repro.analysis.shapes.TensorSpec`, producing a
:class:`ModelReport` (per-layer shapes, dtypes, parameter counts, memory
footprints) or raising :class:`~repro.analysis.shapes.GraphValidationError`
naming the first offending layer.  Higher-level entry points accept a
built/unbuilt :class:`repro.nn.Sequential`, a checkpoint architecture
config (``model_to_config`` output), or a :class:`repro.core.ModelConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .shapes import (
    GraphValidationError,
    TensorSpec,
    estimate_param_count,
    infer_output_shape,
)

#: Bytes per parameter for the deployment precisions the edge stage
#: cares about (fp64 is the training substrate; fp16/int8 mirror the
#: NCS2 / Coral TPU quantization paths in :mod:`repro.edge`).
PRECISION_BYTES: Dict[str, int] = {"fp64": 8, "fp32": 4, "fp16": 2, "int8": 1}


@dataclass(frozen=True)
class LayerReport:
    """Statically-inferred facts about one layer in the stack."""

    index: int
    name: str
    layer_class: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    params: int
    input_dtype: str
    output_dtype: str


@dataclass(frozen=True)
class ModelReport:
    """The result of a successful static trace of a layer stack."""

    input_shape: Tuple[int, ...]
    input_dtype: str
    layers: Tuple[LayerReport, ...]
    warnings: Tuple[str, ...] = ()

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self.layers[-1].output_shape if self.layers else self.input_shape

    @property
    def total_params(self) -> int:
        return sum(rep.params for rep in self.layers)

    def footprint_bytes(self, precision: str = "fp64") -> int:
        """Estimated parameter memory at a deployment precision."""
        try:
            return self.total_params * PRECISION_BYTES[precision]
        except KeyError:
            raise ValueError(
                f"unknown precision {precision!r}; "
                f"choose from {sorted(PRECISION_BYTES)}"
            ) from None

    def footprints(self) -> Dict[str, int]:
        """Parameter memory at every supported precision (bytes)."""
        return {p: self.total_params * b for p, b in PRECISION_BYTES.items()}

    def summary(self) -> str:
        """Printable per-layer table, akin to ``Sequential.summary``."""
        lines = [
            f"{'#':<4}{'layer':<24}{'class':<18}{'output shape':<20}{'params':>10}"
        ]
        lines.append("-" * 76)
        for rep in self.layers:
            lines.append(
                f"{rep.index:<4}{rep.name:<24}{rep.layer_class:<18}"
                f"{str(rep.output_shape):<20}{rep.params:>10}"
            )
        lines.append("-" * 76)
        foot = self.footprints()
        lines.append(
            f"total params: {self.total_params}  "
            f"(fp32 {foot['fp32']} B, fp16 {foot['fp16']} B, int8 {foot['int8']} B)"
        )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable form for machine consumers."""
        return {
            "input_shape": list(self.input_shape),
            "input_dtype": self.input_dtype,
            "output_shape": list(self.output_shape),
            "total_params": self.total_params,
            "footprint_bytes": self.footprints(),
            "warnings": list(self.warnings),
            "layers": [
                {
                    "index": rep.index,
                    "name": rep.name,
                    "class": rep.layer_class,
                    "input_shape": list(rep.input_shape),
                    "output_shape": list(rep.output_shape),
                    "params": rep.params,
                    "input_dtype": rep.input_dtype,
                    "output_dtype": rep.output_dtype,
                }
                for rep in self.layers
            ],
        }


def trace_layers(
    layers: Sequence, input_shape: Sequence[int], dtype: str = "float64"
) -> ModelReport:
    """Symbolically walk a layer stack; raise on the first defect.

    Parameters
    ----------
    layers:
        Layer instances (built or unbuilt — parameters are never touched).
    input_shape:
        Batch-less input shape, e.g. ``(1, F, W)`` for the CNN-LSTM.
    dtype:
        Input activation dtype.  The model casts it once, at its input,
        to the runtime backend's ``compute_dtype``; every layer keeps
        that dtype.  A cast that changes the dtype is reported as a
        warning.
    """
    from ..nn.layers.base import RUNTIME_BACKEND

    compute = RUNTIME_BACKEND.compute_dtype(dtype).name
    spec = TensorSpec(tuple(input_shape), compute)
    if any(dim < 1 for dim in spec.shape):
        raise GraphValidationError(
            f"input shape {spec.shape} has a zero/negative dimension"
        )
    reports: List[LayerReport] = []
    warnings: List[str] = []
    if compute != np.dtype(dtype).name:
        warnings.append(
            f"model input casts {dtype} activations to {compute} "
            f"({RUNTIME_BACKEND.name} backend dtype policy); reduced-precision "
            f"inputs do not stay reduced inside the model"
        )
    for index, layer in enumerate(layers):
        out_shape = infer_output_shape(layer, index, spec)
        reports.append(
            LayerReport(
                index=index,
                name=getattr(layer, "name", type(layer).__name__),
                layer_class=type(layer).__name__,
                input_shape=spec.shape,
                output_shape=out_shape,
                params=estimate_param_count(layer, spec),
                input_dtype=spec.dtype,
                output_dtype=spec.dtype,
            )
        )
        spec = TensorSpec(out_shape, spec.dtype)
    return ModelReport(
        input_shape=tuple(int(s) for s in input_shape),
        input_dtype=dtype,
        layers=tuple(reports),
        warnings=tuple(warnings),
    )


def validate_model(model, input_shape: Sequence[int], dtype: str = "float64") -> ModelReport:
    """Validate a :class:`repro.nn.Sequential` without running it."""
    return trace_layers(model.layers, input_shape, dtype=dtype)


def validate_config(
    config: List[Dict], input_shape: Sequence[int], dtype: str = "float64"
) -> ModelReport:
    """Validate a checkpoint architecture config (``model_to_config`` form).

    Layers are instantiated from the registry — constructors allocate no
    parameter arrays, so this stays cheap and static.
    """
    from ..nn.checkpoint import model_from_config

    model = model_from_config(config)
    return trace_layers(model.layers, input_shape, dtype=dtype)


def validate_architecture(
    input_shape: Sequence[int], model_config=None, dtype: str = "float64"
) -> ModelReport:
    """Validate the paper CNN-LSTM for a :class:`repro.core.ModelConfig`.

    This is the pre-flight hook used by the trainer/pipeline: it traces
    the exact layer stack ``build_cnn_lstm`` would construct, but without
    building it, so a bad config is rejected before epoch 0.
    """
    from ..core.architecture import cnn_lstm_layers

    layers = cnn_lstm_layers(model_config)
    return trace_layers(layers, input_shape, dtype=dtype)
