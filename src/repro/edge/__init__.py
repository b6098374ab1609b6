"""Edge substrate: quantization, device cost models, deployment.

Emulates the paper's two hardware platforms — the int8-only Coral Edge
TPU and the fp16 Raspberry Pi + Intel NCS2 — via post-training fake
quantization plus analytic latency/power models calibrated to Table II.
"""

from .deployment import CostReport, EdgeDeployment
from .devices import (
    ALL_DEVICES,
    CORAL_TPU,
    GPU_BASELINE,
    PI_NCS2,
    DeviceProfile,
)
from .pruning import (
    SparsityReport,
    measure_sparsity,
    prune_model,
    prune_trained,
    sparsity_sweep,
)
from .profiler import (
    LayerProfile,
    ModelProfile,
    profile_model,
    training_macs_per_example,
)
from .streaming import (
    Detection,
    OnlineDetector,
    RingBuffer,
    StreamingFeatureExtractor,
    WindowEvent,
)
from .quantization import (
    SCHEMES,
    ActivationRange,
    QuantizedModel,
    calibrate_activation_ranges,
    quantize_dequantize_fp16,
    quantize_dequantize_int8,
)

__all__ = [
    "SparsityReport",
    "measure_sparsity",
    "prune_model",
    "prune_trained",
    "sparsity_sweep",
    "RingBuffer",
    "StreamingFeatureExtractor",
    "OnlineDetector",
    "WindowEvent",
    "Detection",
    "EdgeDeployment",
    "CostReport",
    "DeviceProfile",
    "GPU_BASELINE",
    "CORAL_TPU",
    "PI_NCS2",
    "ALL_DEVICES",
    "ModelProfile",
    "LayerProfile",
    "profile_model",
    "training_macs_per_example",
    "QuantizedModel",
    "ActivationRange",
    "SCHEMES",
    "quantize_dequantize_int8",
    "quantize_dequantize_fp16",
    "calibrate_activation_ranges",
]
