"""Edge device profiles and the analytic time/power cost model.

The paper measures wall-clock time and power on physical hardware
(Coral Edge TPU Dev Board; Raspberry Pi + Intel NCS2).  Offline we
replace the hardware with explicit cost models: time is a fixed host
overhead plus MACs divided by effective throughput, and power is a
per-phase constant.  The constants below are **calibrated to the
magnitudes of Table II** so the reproduction lands in the measured
regime (TPU ~5x faster test, ~2.4x faster retraining, roughly half the
power of the Pi + NCS2 stack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .profiler import ModelProfile, training_macs_per_example


@dataclass(frozen=True)
class DeviceProfile:
    """Cost model of one deployment target.

    Attributes
    ----------
    name:
        Human-readable platform name.
    scheme:
        Numeric scheme the accelerator supports ('fp32', 'fp16', 'int8').
    inference_overhead_s:
        Fixed host/runtime latency added to every inference call.
    inference_macs_per_s:
        Effective accelerator throughput for inference.
    training_setup_s:
        One-time cost of starting an on-device fine-tuning run (graph
        rebuild, weight transfer, runtime warm-up).
    training_macs_per_s:
        Effective throughput for training steps (far below inference —
        on-device training is not what these accelerators optimize).
    power_idle_w, power_test_w, power_retrain_w:
        Mean power draw in each phase (paper's MPC rows).
    """

    name: str
    scheme: str
    inference_overhead_s: float
    inference_macs_per_s: float
    training_setup_s: float
    training_macs_per_s: float
    power_idle_w: float
    power_test_w: float
    power_retrain_w: float

    def __post_init__(self) -> None:
        if self.scheme not in ("fp32", "fp16", "int8"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.inference_macs_per_s <= 0 or self.training_macs_per_s <= 0:
            raise ValueError("throughputs must be positive")

    # -- time ---------------------------------------------------------------
    def inference_time_s(self, profile: ModelProfile, batch: int = 1) -> float:
        """Wall-clock seconds for one inference call of ``batch`` examples."""
        return self.inference_overhead_s + batch * profile.total_macs / self.inference_macs_per_s

    def training_time_s(
        self, profile: ModelProfile, num_examples: int, epochs: int
    ) -> float:
        """Wall-clock seconds for an on-device fine-tuning run."""
        if num_examples < 1 or epochs < 1:
            raise ValueError("num_examples and epochs must be >= 1")
        total = epochs * num_examples * training_macs_per_example(profile)
        return self.training_setup_s + total / self.training_macs_per_s

    # -- energy ---------------------------------------------------------------
    def inference_energy_j(self, profile: ModelProfile, batch: int = 1) -> float:
        return self.power_test_w * self.inference_time_s(profile, batch)

    def training_energy_j(
        self, profile: ModelProfile, num_examples: int, epochs: int
    ) -> float:
        return self.power_retrain_w * self.training_time_s(
            profile, num_examples, epochs
        )


#: Cloud/workstation GPU: the accuracy baseline (fp32, no edge limits).
GPU_BASELINE = DeviceProfile(
    name="GPU (baseline)",
    scheme="fp32",
    inference_overhead_s=1.0e-3,
    inference_macs_per_s=5.0e11,
    training_setup_s=0.5,
    training_macs_per_s=2.0e10,
    power_idle_w=45.0,
    power_test_w=180.0,
    power_retrain_w=250.0,
)

#: Coral Edge TPU Dev Board: int8 only, ML accelerator.
#: Constants calibrated to Table II: test ~47 ms, retrain ~32 s,
#: power 1.28 / 1.64 / 1.82 W.
CORAL_TPU = DeviceProfile(
    name="Coral TPU",
    scheme="int8",
    inference_overhead_s=0.045,
    inference_macs_per_s=5.0e8,
    training_setup_s=25.0,
    training_macs_per_s=3.0e7,
    power_idle_w=1.28,
    power_test_w=1.64,
    power_retrain_w=1.82,
)

#: Raspberry Pi 4 + Intel Movidius NCS2: fp16 VPU over USB.
#: Constants calibrated to Table II: test ~240 ms, retrain ~79 s,
#: power 2.76 / 3.43 / 3.78 W.
PI_NCS2 = DeviceProfile(
    name="Pi + NCS2",
    scheme="fp16",
    inference_overhead_s=0.225,
    inference_macs_per_s=1.0e8,
    training_setup_s=60.0,
    training_macs_per_s=1.2e7,
    power_idle_w=2.76,
    power_test_w=3.43,
    power_retrain_w=3.78,
)

#: All platforms the Table II benches sweep over.
ALL_DEVICES: Dict[str, DeviceProfile] = {
    "gpu": GPU_BASELINE,
    "coral_tpu": CORAL_TPU,
    "pi_ncs2": PI_NCS2,
}
