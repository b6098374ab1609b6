"""The end-to-end CLEAR pipeline (paper Fig. 1).

Cloud stage: global clustering of the initial user population and one
CNN-LSTM checkpoint per cluster.  Edge stage: unsupervised cold-start
cluster assignment for new users, then optional fine-tuning with a
small labelled fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.graph import validate_architecture
from ..clustering.assignment import AssignmentResult, ColdStartAssigner
from ..clustering.global_clustering import GlobalClustering, GlobalClusteringResult
from ..clustering.subclusters import SubClusterModel, build_subclusters
from ..orchestration.context import normalize_cache_dir, resolve_executor
from ..orchestration.graph import PipelineGraph
from ..orchestration.grouping import member_maps as _member_maps
from ..orchestration.provenance import Provenance
from ..orchestration.stage import Stage, StageContext
from ..runtime.executor import Executor
from ..signals.feature_map import FeatureMap
from .config import CLEARConfig, ModelConfig, TrainingConfig
from .trainer import TrainedModel, fine_tune, train_on_maps_cached


@dataclass
class CLEARSystem:
    """A fitted CLEAR deployment: clusters, assigner, per-cluster models."""

    config: CLEARConfig
    gc: GlobalClusteringResult
    subclusters: Dict[int, SubClusterModel]
    assigner: ColdStartAssigner
    cluster_models: Dict[int, TrainedModel]
    #: Per-stage lineage of the fit graph (global clustering, sub-
    #: clustering, per-cluster pre-training), in execution order.
    provenance: Tuple[Provenance, ...] = ()
    _population: Optional[TrainedModel] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __repro_content__(self) -> Tuple:
        # Stable content of a fitted system: everything that determines
        # its predictions.  Provenance carries wall times and the lazy
        # population model is derived state.
        return (
            "CLEARSystem",
            self.config,
            self.gc,
            self.subclusters,
            self.cluster_models,
        )

    @property
    def runtime(self) -> Optional[Provenance]:
        """How the cluster pre-training ran: the ``cluster_models`` stage's
        provenance (executor shape, units, checkpoint-cache counters);
        ``None`` for a system loaded from disk."""
        for provenance in self.provenance:
            if provenance.stage == "cluster_models":
                return provenance
        return None

    # -- edge-stage operations -------------------------------------------
    def assign_new_user(self, unlabeled_maps: Sequence[FeatureMap]) -> AssignmentResult:
        """Cold-start cluster assignment from unlabeled data only."""
        return self.assigner.assign(unlabeled_maps)

    def model_for(self, cluster: int) -> TrainedModel:
        if cluster not in self.cluster_models:
            raise KeyError(f"no model for cluster {cluster}")
        return self.cluster_models[cluster]

    def population_model(self) -> TrainedModel:
        """The fallback checkpoint: average of every cluster model.

        Built lazily (averaging weights is cheap but not free) and
        cached; used when cold-start assignment confidence is too low
        to trust any single cluster checkpoint.
        """
        if self._population is None:
            from ..resilience.degradation import population_average_model

            self._population = population_average_model(self.cluster_models)
        return self._population

    def predict(
        self, maps: Sequence[FeatureMap], cluster: Optional[int] = None
    ) -> np.ndarray:
        """Classify maps with the given (or cold-start-assigned) cluster model."""
        if cluster is None:
            cluster = self.assign_new_user(maps).cluster
        return self.model_for(cluster).predict_classes(maps)

    def predict_with_health(
        self,
        maps: Sequence[FeatureMap],
        policy: Optional["DegradationPolicy"] = None,
    ) -> Tuple[np.ndarray, "HealthStatus"]:
        """Degradation-aware prediction: never NaN, never a bare crash.

        The resilient twin of :meth:`predict`: non-finite feature-map
        cells are imputed per the policy, the cold-start assignment is
        only trusted when its margin clears
        ``policy.min_assignment_margin`` (otherwise the
        population-average fallback model predicts), and a model whose
        output is non-finite triggers the same fallback.  The returned
        :class:`~repro.resilience.degradation.HealthStatus` records
        exactly which of those degradations happened.
        """
        from ..resilience.degradation import (
            DEGRADED,
            FALLBACK,
            HEALTHY,
            DegradationPolicy,
            HealthStatus,
            safe_probabilities,
        )
        from ..resilience.guards import impute_features, screen_features
        from ..signals.feature_map import FeatureMap as _FeatureMap
        from ..signals.feature_map import maps_to_arrays

        maps = list(maps)
        if not maps:
            raise ValueError("need at least one feature map to predict")
        policy = policy or DegradationPolicy()
        reasons: List[str] = []

        # 1. Screen + impute non-finite feature-map cells.
        n_imputed = 0
        sanitized: List[FeatureMap] = []
        for fmap in maps:
            flat = fmap.values.ravel()
            screen = screen_features(flat)
            if screen.finite:
                sanitized.append(fmap)
                continue
            n_imputed += len(screen.bad_indices)
            finite_mean = (
                float(np.mean(flat[np.isfinite(flat)]))
                if np.isfinite(flat).any()
                else 0.0
            )
            clean = impute_features(
                flat, screen.bad_indices, fill=finite_mean
            ).reshape(fmap.values.shape)
            sanitized.append(
                _FeatureMap(clean, label=fmap.label, subject_id=fmap.subject_id)
            )
        if n_imputed:
            reasons.append(f"non_finite_map_cells:{n_imputed}")

        # 2. Cold-start assignment, gated on its confidence margin.
        assignment = self.assign_new_user(sanitized)
        margin = assignment.margin()
        use_fallback = margin < policy.min_assignment_margin
        if use_fallback:
            reasons.append(
                f"low_assignment_confidence:{margin:.4f}"
                f"<{policy.min_assignment_margin}"
            )
        model = (
            self.population_model()
            if use_fallback
            else self.model_for(assignment.cluster)
        )

        # 3. Predict, screening the output; a non-finite cluster output
        # falls back to the population model before giving up.
        def _probs(m: TrainedModel):
            x, _ = maps_to_arrays(m.normalizer.transform_all(sanitized))
            return safe_probabilities(m.model.predict(x))

        probs, trustworthy = _probs(model)
        if not trustworthy and not use_fallback:
            reasons.append("non_finite_cluster_model_output")
            use_fallback = True
            probs, trustworthy = _probs(self.population_model())
        if not trustworthy:
            reasons.append("non_finite_fallback_output")
        preds = np.argmax(probs, axis=1)

        if use_fallback:
            state = FALLBACK
        elif reasons:
            state = DEGRADED
        else:
            state = HEALTHY
        health = HealthStatus(
            state=state,
            imputed_features=n_imputed,
            assignment_margin=float(margin),
            used_fallback_model=use_fallback,
            checkpoint_ok=trustworthy,
            reasons=tuple(reasons),
        )
        return preds, health

    def personalize(
        self,
        labeled_maps: Sequence[FeatureMap],
        cluster: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> TrainedModel:
        """Fine-tune the cluster checkpoint with a user's labelled maps."""
        if cluster is None:
            cluster = self.assign_new_user(labeled_maps).cluster
        return fine_tune(
            self.model_for(cluster),
            labeled_maps,
            self.config.fine_tuning,
            seed=self.config.seed if seed is None else seed,
        )

    def cluster_sizes(self) -> List[int]:
        return self.gc.cluster_sizes()


def _train_cluster_unit(
    args: Tuple[
        int, List[FeatureMap], ModelConfig, TrainingConfig, int, Optional[str]
    ],
) -> Tuple[int, TrainedModel, int, int]:
    """Executor work unit: pre-train (or cache-load) one cluster model.

    Returns ``(cluster, model, cache_hits, cache_misses)``; the counters
    ride back with the result because a forked worker's cache handle
    cannot update the parent's.
    """
    cluster, member_maps, model_config, training, seed, cache_dir = args
    model, hits, misses = train_on_maps_cached(
        member_maps,
        model_config=model_config,
        training=training,
        seed=seed,
        cache_dir=cache_dir,
    )
    return cluster, model, hits, misses


class CLEAR:
    """Trainer for the cloud stage of the CLEAR methodology.

    Parameters
    ----------
    config:
        The methodology configuration (defaults to the paper's).
    executor:
        Where per-cluster pre-training runs; each cluster is an
        independent work unit with its own derived seed
        (``config.seed + cluster``), so a parallel fit is bit-identical
        to the default serial one.
    cache_dir:
        Root of the content-addressed runtime cache.  Cluster
        checkpoints are keyed by training-map bytes + model/training
        config + seed; a warm fit skips pre-training entirely.
    """

    def __init__(
        self,
        config: Optional[CLEARConfig] = None,
        executor: Optional[Executor] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        self.config = config or CLEARConfig()
        self.executor = resolve_executor(executor)
        self.cache_dir = normalize_cache_dir(cache_dir)

    def _graph(self) -> PipelineGraph:
        """The cloud stage as a declared graph over the population artifact."""
        cfg = self.config

        def _gc_stage(
            ctx: StageContext, population: Dict[int, Sequence[FeatureMap]]
        ) -> GlobalClusteringResult:
            return GlobalClustering(
                k=cfg.num_clusters,
                n_refinements=cfg.gc_refinements,
                subsample_fraction=cfg.gc_subsample_fraction,
                seed=cfg.seed,
            ).fit(population)

        def _subcluster_stage(
            ctx: StageContext,
            population: Dict[int, Sequence[FeatureMap]],
            global_clustering: GlobalClusteringResult,
        ) -> Dict[int, SubClusterModel]:
            return build_subclusters(
                global_clustering,
                population,
                subclusters_per_cluster=cfg.subclusters_per_cluster,
                seed=cfg.seed,
            )

        def _train_stage(
            ctx: StageContext,
            population: Dict[int, Sequence[FeatureMap]],
            global_clustering: GlobalClusteringResult,
        ) -> Dict[int, TrainedModel]:
            units = []
            for cluster in range(cfg.num_clusters):
                maps = _member_maps(
                    population, global_clustering.members(cluster)
                )
                if len(maps) < 2:
                    raise RuntimeError(
                        f"cluster {cluster} has too few maps ({len(maps)}) "
                        "to train a model"
                    )
                units.append(
                    (
                        cluster,
                        maps,
                        cfg.model,
                        cfg.training,
                        cfg.seed + cluster,
                        ctx.cache_dir,
                    )
                )
            ctx.set_units(len(units))
            cluster_models: Dict[int, TrainedModel] = {}
            for cluster, model, hits, misses in ctx.executor.map(
                _train_cluster_unit, units
            ):
                cluster_models[cluster] = model
                ctx.record_cache(hits, misses)
            return cluster_models

        return PipelineGraph(
            "clear_fit",
            [
                Stage(
                    name="global_clustering",
                    fn=_gc_stage,
                    requires=("population",),
                    config=cfg,
                    seed=cfg.seed,
                ),
                Stage(
                    name="subclusters",
                    fn=_subcluster_stage,
                    requires=("population", "global_clustering"),
                    config=cfg,
                    seed=cfg.seed,
                ),
                Stage(
                    name="cluster_models",
                    fn=_train_stage,
                    requires=("population", "global_clustering"),
                    config=cfg,
                    seed=cfg.seed,
                ),
            ],
        )

    def fit(
        self, maps_by_subject: Dict[int, Sequence[FeatureMap]]
    ) -> CLEARSystem:
        """Run GC + sub-clustering + per-cluster pre-training.

        Parameters
        ----------
        maps_by_subject:
            The initial (pre-deployment) population: subject id to that
            subject's labelled feature maps.
        """
        cfg = self.config

        # Pre-flight: validate the architecture against the population's
        # feature-map shape once, statically, so a bad config is rejected
        # before clustering runs or any cluster model trains.
        first_map = next(
            (m for maps in maps_by_subject.values() for m in maps), None
        )
        if first_map is not None:
            validate_architecture((1,) + first_map.values.shape, cfg.model)

        run = self._graph().run(
            initial={"population": maps_by_subject},
            executor=self.executor,
            cache_dir=self.cache_dir,
            seed=cfg.seed,
        )
        gc: GlobalClusteringResult = run.value("global_clustering")
        subclusters: Dict[int, SubClusterModel] = run.value("subclusters")
        cluster_models: Dict[int, TrainedModel] = run.value("cluster_models")
        return CLEARSystem(
            config=cfg,
            gc=gc,
            subclusters=subclusters,
            assigner=ColdStartAssigner(gc, subclusters),
            cluster_models=cluster_models,
            provenance=tuple(
                run.provenance(name)
                for name in ("global_clustering", "subclusters", "cluster_models")
            ),
        )
