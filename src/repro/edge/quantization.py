"""Post-training quantization: int8 (Coral TPU) and fp16 (NCS2) emulation.

Quantization is *simulated* ("fake quant"): weights and activations are
rounded to the target grid and mapped back to float64 for computation.
This reproduces the accuracy effects of deployment (the paper's Coral
TPU loses ~6 accuracy points because it only supports 8-bit data) while
staying inside the numpy substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn.checkpoint import model_from_config, model_to_config
from ..nn.model import Sequential

#: Supported numeric schemes, in decreasing precision.
SCHEMES = ("fp32", "fp16", "int8")


def quantize_dequantize_int8(
    x: np.ndarray, scale: Optional[float] = None
) -> np.ndarray:
    """Symmetric per-tensor int8 fake quantization.

    ``scale`` defaults to max|x| / 127; values are rounded to the int8
    grid and mapped back to float.
    """
    x = np.asarray(x, dtype=np.float64)
    if scale is None:
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        scale = max_abs / 127.0
        if scale == 0.0:
            # All-zero tensor, or magnitudes so subnormal the scale
            # underflows: the tensor is numerically zero at int8
            # resolution either way.
            return x.copy()
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    q = np.clip(np.round(x / scale), -127, 127)
    return q * scale


def quantize_dequantize_fp16(x: np.ndarray) -> np.ndarray:
    """Round-trip through IEEE half precision."""
    return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)


@dataclass
class ActivationRange:
    """Calibrated symmetric activation range for one layer boundary."""

    max_abs: float

    @property
    def scale(self) -> float:
        return self.max_abs / 127.0 if self.max_abs > 0 else 1.0


def calibrate_activation_ranges(
    model: Sequential, calibration_x: np.ndarray, percentile: float = 99.9
) -> List[ActivationRange]:
    """Observe per-layer activation magnitudes on calibration data.

    Uses a high percentile of |activation| rather than the max so a
    single outlier doesn't blow up the quantization grid (standard
    PTQ calibration practice).
    """
    if calibration_x.shape[0] == 0:
        raise ValueError("calibration set is empty")
    ranges: List[ActivationRange] = []
    out = np.asarray(calibration_x, dtype=np.float64)
    model.set_training(False)
    for layer in model.layers:
        layer.ensure_built(out, model.rng)
        out = layer.forward(out)
        max_abs = float(np.percentile(np.abs(out), percentile))
        ranges.append(ActivationRange(max_abs=max_abs))
    return ranges


class QuantizedModel:
    """A deployment copy of a model under a numeric scheme.

    The original model is untouched; this wrapper owns a weight-copied
    clone.  For ``int8``, weights are fake-quantized per tensor at
    construction and activations are fake-quantized at every layer
    boundary during inference, using calibrated ranges.  For ``fp16``
    both pass through half precision.  ``fp32`` is a passthrough
    baseline.
    """

    def __init__(
        self,
        model: Sequential,
        scheme: str = "int8",
        calibration_x: Optional[np.ndarray] = None,
    ):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")
        self.scheme = scheme
        self.model = model_from_config(model_to_config(model), seed=0)
        # Copy parameters directly so the clone works even when no
        # calibration data is available to build it.
        for src, dst in zip(model.layers, self.model.layers):
            for key, value in src.params.items():
                dst.params[key] = value.copy()
            if src.params:
                dst.zero_grads()
            dst.built = src.built

        self.activation_ranges: Optional[List[ActivationRange]] = None
        if scheme == "int8":
            if calibration_x is None:
                raise ValueError("int8 quantization requires calibration data")
            self.activation_ranges = calibrate_activation_ranges(
                self.model, calibration_x
            )
            self._quantize_weights_int8()
        elif scheme == "fp16":
            self._quantize_weights_fp16()

    # -- weight quantization ----------------------------------------------
    def _quantize_weights_int8(self) -> None:
        for layer in self.model.layers:
            for key, value in layer.params.items():
                layer.params[key] = quantize_dequantize_int8(value)

    def _quantize_weights_fp16(self) -> None:
        for layer in self.model.layers:
            for key, value in layer.params.items():
                layer.params[key] = quantize_dequantize_fp16(value)

    # -- inference ----------------------------------------------------------
    def _forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        self.model.set_training(False)
        if self.scheme == "int8":
            # Quantize the input tensor too (8-bit input path of the TPU).
            out = quantize_dequantize_int8(out)
            for layer, act_range in zip(self.model.layers, self.activation_ranges):
                layer.ensure_built(out, self.model.rng)
                out = layer.forward(out)
                out = np.clip(out, -act_range.max_abs, act_range.max_abs)
                out = quantize_dequantize_int8(out, scale=act_range.scale)
            return out
        if self.scheme == "fp16":
            out = quantize_dequantize_fp16(out)
            for layer in self.model.layers:
                layer.ensure_built(out, self.model.rng)
                out = quantize_dequantize_fp16(layer.forward(out))
            return out
        for layer in self.model.layers:
            layer.ensure_built(out, self.model.rng)
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Quantized inference logits."""
        x = np.asarray(x, dtype=np.float64)
        outputs = [
            self._forward(x[i : i + batch_size])
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict_classes(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return self.predict(x, batch_size=batch_size).argmax(axis=1)

    def weight_error(self, reference: Sequential) -> float:
        """Mean relative weight distortion vs. the float reference."""
        errors = []
        for ref_layer, q_layer in zip(reference.layers, self.model.layers):
            for key in ref_layer.params:
                ref = ref_layer.params[key]
                diff = np.abs(ref - q_layer.params[key])
                denom = np.maximum(np.abs(ref), 1e-8)
                errors.append(float(np.mean(diff / denom)))
        return float(np.mean(errors)) if errors else 0.0
