"""Cloud-edge deployment of CLEAR checkpoints (paper §IV-C).

A :class:`EdgeDeployment` takes one trained cluster checkpoint and a
device profile, quantizes the model to the device's numeric scheme,
and exposes evaluation, on-device fine-tuning, and the time/power
accounting of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .. import nn
from ..core.config import FineTuneConfig
from ..core.trainer import TrainedModel, fine_tune
from ..signals.feature_map import FeatureMap, maps_to_arrays
from .devices import DeviceProfile
from .profiler import ModelProfile, profile_model
from .quantization import QuantizedModel


@dataclass
class CostReport:
    """Table II's MTC/MPC entries for one deployment."""

    device: str
    test_time_s: float
    retrain_time_s: Optional[float]
    power_idle_w: float
    power_test_w: float
    power_retrain_w: float
    test_energy_j: float
    retrain_energy_j: Optional[float]


class EdgeDeployment:
    """One cluster checkpoint deployed on one edge device."""

    def __init__(
        self,
        trained: TrainedModel,
        device: DeviceProfile,
        calibration_maps: Optional[Sequence[FeatureMap]] = None,
    ):
        """Quantize ``trained`` for ``device``.

        ``calibration_maps`` are required for int8 targets (activation
        range calibration); a slice of the cluster's training maps is
        the natural choice.
        """
        self.trained = trained
        self.device = device
        self._input_shape = None

        calibration_x = None
        if calibration_maps:
            calibration_x, _ = maps_to_arrays(
                trained.normalizer.transform_all(list(calibration_maps))
            )
        if device.scheme == "int8" and calibration_x is None:
            raise ValueError(
                f"{device.name} is int8-only and needs calibration maps"
            )
        self.quantized = QuantizedModel(
            trained.model, scheme=device.scheme, calibration_x=calibration_x
        )

    # -- inference ------------------------------------------------------------
    def _prepare(self, maps: Sequence[FeatureMap]) -> tuple:
        normalized = self.trained.normalizer.transform_all(list(maps))
        x, y = maps_to_arrays(normalized)
        self._input_shape = x.shape[1:]
        return x, y

    def predict_classes(self, maps: Sequence[FeatureMap]) -> np.ndarray:
        x, _ = self._prepare(maps)
        return self.quantized.predict_classes(x)

    def evaluate(self, maps: Sequence[FeatureMap]) -> Dict[str, float]:
        """On-device accuracy / F1 under the device's numeric scheme."""
        if not maps:
            raise ValueError("cannot evaluate on an empty map set")
        x, y = self._prepare(maps)
        preds = self.quantized.predict_classes(x)
        return {
            "accuracy": nn.accuracy(y, preds),
            "f1": nn.f1_score(y, preds, positive_class=1),
        }

    # -- fine-tuning ------------------------------------------------------------
    def fine_tune_on_device(
        self,
        labeled_maps: Sequence[FeatureMap],
        config: Optional[FineTuneConfig] = None,
        seed: int = 0,
    ) -> "EdgeDeployment":
        """Personalize on the device and redeploy.

        Fine-tuning runs in float (both platforms train in higher
        precision host-side), then the updated weights are re-quantized
        to the device scheme — so an int8 target keeps paying its
        quantization penalty after personalization, exactly the
        mechanism behind Table II's TPU-vs-GPU post-FT gap.
        """
        config = config or FineTuneConfig()
        tuned = fine_tune(self.trained, labeled_maps, config, seed=seed)
        return EdgeDeployment(
            tuned, self.device, calibration_maps=list(labeled_maps)
        )

    # -- cost accounting -----------------------------------------------------
    def profile(self, maps: Sequence[FeatureMap]) -> ModelProfile:
        x, _ = self._prepare(maps)
        return profile_model(self.trained.model, x.shape[1:])

    def cost_report(
        self,
        maps: Sequence[FeatureMap],
        ft_examples: Optional[int] = None,
        ft_epochs: Optional[int] = None,
    ) -> CostReport:
        """Time / power / energy for single-map inference and fine-tuning."""
        profile = self.profile(maps)
        test_time = self.device.inference_time_s(profile, batch=1)
        retrain_time = None
        retrain_energy = None
        if ft_examples is not None:
            epochs = ft_epochs if ft_epochs is not None else FineTuneConfig().epochs
            retrain_time = self.device.training_time_s(profile, ft_examples, epochs)
            retrain_energy = self.device.training_energy_j(
                profile, ft_examples, epochs
            )
        return CostReport(
            device=self.device.name,
            test_time_s=test_time,
            retrain_time_s=retrain_time,
            power_idle_w=self.device.power_idle_w,
            power_test_w=self.device.power_test_w,
            power_retrain_w=self.device.power_retrain_w,
            test_energy_j=self.device.inference_energy_j(profile, batch=1),
            retrain_energy_j=retrain_energy,
        )
