"""CLEAR core: the paper's methodology (clustering + adaptive DL).

Public entry points:

* :class:`CLEAR` / :class:`CLEARSystem` — cloud-stage training and
  edge-stage cold-start + fine-tuning.
* :func:`build_cnn_lstm` — the paper's Fig. 2 architecture.
* Validation harness — :func:`evaluate_general_model`,
  :func:`cl_validation`, :func:`clear_validation` (Table I; its folds
  also feed Table II), and :func:`split_new_user`, the one per-user
  CA / fine-tune / test split.
"""

from .adaptation import DriftDetector, DriftObservation
from .architecture import (
    FEATURE_EXTRACTOR_LAYERS,
    architecture_summary,
    build_cnn_lstm,
    freeze_feature_extractor,
)
from .config import CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig
from .federated import (
    FederatedConfig,
    FederatedHistory,
    aggregate_normalizer,
    federated_train_cluster,
)
from .persistence import load_system, save_system
from .pipeline import CLEAR, CLEARSystem
from .semi_supervised import (
    PseudoLabelConfig,
    PseudoLabelReport,
    pseudo_label_fine_tune,
    pseudo_label_maps,
)
from .results import (
    PAPER_TABLE1_REFERENCES,
    PAPER_TABLE1_RESULTS,
    FoldMetrics,
    MetricSummary,
    render_table,
)
from .trainer import TrainedModel, fine_tune, train_on_maps
from .validation import (
    CLEARFold,
    CLEARValidationResult,
    CLValidationResult,
    UserSplit,
    cl_validation,
    clear_validation,
    evaluate_general_model,
    split_new_user,
)

__all__ = [
    "DriftDetector",
    "DriftObservation",
    "CLEAR",
    "CLEARSystem",
    "save_system",
    "load_system",
    "FederatedConfig",
    "FederatedHistory",
    "federated_train_cluster",
    "aggregate_normalizer",
    "PseudoLabelConfig",
    "PseudoLabelReport",
    "pseudo_label_maps",
    "pseudo_label_fine_tune",
    "CLEARConfig",
    "ModelConfig",
    "TrainingConfig",
    "FineTuneConfig",
    "build_cnn_lstm",
    "architecture_summary",
    "freeze_feature_extractor",
    "FEATURE_EXTRACTOR_LAYERS",
    "TrainedModel",
    "train_on_maps",
    "fine_tune",
    "FoldMetrics",
    "MetricSummary",
    "render_table",
    "PAPER_TABLE1_REFERENCES",
    "PAPER_TABLE1_RESULTS",
    "evaluate_general_model",
    "cl_validation",
    "clear_validation",
    "CLValidationResult",
    "CLEARValidationResult",
    "CLEARFold",
    "UserSplit",
    "split_new_user",
]
