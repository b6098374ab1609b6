"""Fault injection + graceful degradation for the edge stage.

The paper's deployment target is an unattended wearable, where sensor
dropouts, NaN bursts, packet loss, and corrupted checkpoint transfers
are the norm, not the exception.  This package makes the pipeline's
behaviour under those faults explicit and testable:

``repro.resilience.faults``
    Seeded, composable fault plans (a registry the chaos suite sweeps)
    that corrupt sample streams, feature maps, and checkpoint files
    deterministically.
``repro.resilience.guards``
    Runtime screens: NaN/Inf feature screening and checkpoint integrity
    verification (checksum + graph validator).
``repro.resilience.degradation``
    The explicit :class:`DegradationPolicy` (impute / fall back /
    abstain) and the :class:`HealthStatus` attached to every decision.
``repro.resilience.retry``
    Retry/backoff-with-deadline on an injectable clock, used by
    federated round collection and edge checkpoint fetch.

The typed error hierarchy lives in :mod:`repro.errors` (package root,
so ``repro.nn.checkpoint`` can raise it without a circular import) and
is re-exported here.
"""

from ..errors import (
    CheckpointError,
    ExecutorError,
    FederatedRoundError,
    ResilienceError,
    RetryError,
)
from .degradation import (
    ABSTAINED,
    DEGRADED,
    FALLBACK,
    HEALTHY,
    IMPUTE_STRATEGIES,
    DegradationController,
    DegradationPolicy,
    HealthStatus,
    average_normalizers,
    channel_feature_slices,
    population_average_model,
    safe_probabilities,
)
from .faults import (
    CHECKPOINT_CORRUPTION_MODES,
    FAULT_PLANS,
    ChannelDropout,
    CheckpointCorruption,
    ClockSkew,
    Fault,
    FaultPlan,
    FeatureNaN,
    Flatline,
    MotionBurst,
    NaNBurst,
    SampleLoss,
    ValueClipping,
    get_fault_plan,
    register_fault_plan,
    registered_fault_plans,
)
from .guards import (
    CheckpointVerification,
    FeatureScreenReport,
    impute_features,
    screen_features,
    verify_checkpoint,
)
from .retry import Clock, FakeClock, MonotonicClock, RetryPolicy, retry_call

__all__ = [
    # errors
    "ResilienceError",
    "CheckpointError",
    "RetryError",
    "FederatedRoundError",
    "ExecutorError",
    # faults
    "Fault",
    "FaultPlan",
    "ChannelDropout",
    "Flatline",
    "NaNBurst",
    "SampleLoss",
    "ClockSkew",
    "ValueClipping",
    "MotionBurst",
    "FeatureNaN",
    "CheckpointCorruption",
    "CHECKPOINT_CORRUPTION_MODES",
    "FAULT_PLANS",
    "register_fault_plan",
    "get_fault_plan",
    "registered_fault_plans",
    # guards
    "FeatureScreenReport",
    "CheckpointVerification",
    "screen_features",
    "impute_features",
    "verify_checkpoint",
    # degradation
    "HEALTHY",
    "DEGRADED",
    "FALLBACK",
    "ABSTAINED",
    "IMPUTE_STRATEGIES",
    "DegradationPolicy",
    "DegradationController",
    "HealthStatus",
    "channel_feature_slices",
    "safe_probabilities",
    "average_normalizers",
    "population_average_model",
    # retry
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "RetryPolicy",
    "retry_call",
]
