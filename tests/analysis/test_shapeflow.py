"""Tests for artifact shape/dtype flow checking at graph build time."""

import numpy as np
import pytest

from repro.analysis.dataflow.shapeflow import (
    ArtifactFlowError,
    ArtifactSpec,
    check_stage_flow,
    specs_compatible,
)
from repro.core import CLEARConfig, FineTuneConfig, ModelConfig, TrainingConfig
from repro.datasets import WEMACConfig
from repro.errors import OrchestrationError
from repro.orchestration import PipelineGraph, Stage


def _make(ctx):
    return np.zeros((4, 8))


def _consume(ctx, features):
    return features.sum()


class TestSpecCompatibility:
    def test_exact_match(self):
        a = ArtifactSpec(shape=(4, 8), dtype="float64")
        assert specs_compatible(a, a) is None

    def test_wildcard_dim_matches_anything(self):
        produced = ArtifactSpec(shape=(None, 8))
        required = ArtifactSpec(shape=(1024, 8))
        assert specs_compatible(produced, required) is None
        assert specs_compatible(required, produced) is None

    def test_rank_mismatch(self):
        reason = specs_compatible(
            ArtifactSpec(shape=(4, 8)), ArtifactSpec(shape=(4, 8, 1))
        )
        assert "rank" in reason

    def test_axis_mismatch_names_axis(self):
        reason = specs_compatible(
            ArtifactSpec(shape=(4, 8)), ArtifactSpec(shape=(4, 16))
        )
        assert "axis 1" in reason

    def test_dtype_mismatch(self):
        reason = specs_compatible(
            ArtifactSpec(dtype="float32"), ArtifactSpec(dtype="float64")
        )
        assert "dtype" in reason

    def test_none_sides_always_match(self):
        assert specs_compatible(ArtifactSpec(), ArtifactSpec()) is None
        assert (
            specs_compatible(ArtifactSpec(), ArtifactSpec(shape=(3,))) is None
        )

    def test_str_rendering(self):
        assert str(ArtifactSpec(shape=(None, 8), dtype="float32")) == (
            "(?, 8):float32"
        )
        assert str(ArtifactSpec()) == "(*):*"


class TestGraphBuildTimeCheck:
    def _producer(self, spec):
        return Stage("make", _make, provides="features", output_spec=spec)

    def _consumer(self, spec):
        return Stage(
            "train",
            _consume,
            requires=("features",),
            provides="model",
            input_specs={"features": spec},
        )

    def test_mismatched_graph_rejected_at_add_time(self):
        graph = PipelineGraph("bad")
        graph.add(self._producer(ArtifactSpec(shape=(None, 8))))
        with pytest.raises(ArtifactFlowError) as excinfo:
            graph.add(self._consumer(ArtifactSpec(shape=(None, 16))))
        err = excinfo.value
        # The typed error names both stages and the artifact.
        assert err.producer == "make"
        assert err.consumer == "train"
        assert err.artifact == "features"
        assert "make" in str(err) and "train" in str(err)

    def test_failed_add_leaves_graph_unchanged(self):
        graph = PipelineGraph("bad")
        graph.add(self._producer(ArtifactSpec(shape=(4, 8))))
        with pytest.raises(ArtifactFlowError):
            graph.add(self._consumer(ArtifactSpec(shape=(4, 9))))
        assert [s.name for s in graph.stages] == ["make"]

    def test_compatible_graph_builds_and_runs(self):
        graph = PipelineGraph("good")
        graph.add(self._producer(ArtifactSpec(shape=(4, 8), dtype="float64")))
        graph.add(self._consumer(ArtifactSpec(shape=(None, 8))))
        run = graph.run()
        assert run.value("model") == 0.0

    def test_order_independent_detection(self):
        # Consumer declared first: the check still fires when the
        # producer arrives with an incompatible output spec.
        graph = PipelineGraph("bad")
        graph.add(self._consumer(ArtifactSpec(shape=(None, 16))))
        with pytest.raises(ArtifactFlowError):
            graph.add(self._producer(ArtifactSpec(shape=(None, 8))))

    def test_dtype_mismatch_rejected(self):
        graph = PipelineGraph("bad")
        graph.add(self._producer(ArtifactSpec(dtype="float32")))
        with pytest.raises(ArtifactFlowError, match="dtype"):
            graph.add(self._consumer(ArtifactSpec(dtype="float64")))

    def test_spec_for_undeclared_artifact_rejected(self):
        stage = Stage(
            "oops",
            _consume,
            requires=("features",),
            input_specs={"labels": ArtifactSpec()},
        )
        with pytest.raises(OrchestrationError, match="labels"):
            PipelineGraph("bad").add(stage)

    def test_specless_graphs_skip_the_checker_entirely(self):
        graph = PipelineGraph("plain")
        graph.add(Stage("make", _make, provides="features"))
        graph.add(Stage("train", _consume, requires=("features",)))
        assert len(graph.stages) == 2

    def test_initial_specs_checked_via_function(self):
        stages = [self._consumer(ArtifactSpec(shape=(None, 16)))]
        with pytest.raises(ArtifactFlowError):
            check_stage_flow(
                stages,
                initial_specs={"features": ArtifactSpec(shape=(4, 8))},
            )

    def test_checked_edges_reported(self):
        edges = check_stage_flow(
            [
                self._producer(ArtifactSpec(shape=(4, 8))),
                self._consumer(ArtifactSpec(shape=(4, 8))),
            ]
        )
        assert edges == [("make", "train", "features")]


class TestExperimentGraphsPass:
    """All six experiment graphs must build under the flow checker."""

    @pytest.fixture(scope="class")
    def tiny_scale(self):
        from repro.experiments import ExperimentScale

        return ExperimentScale(
            dataset=WEMACConfig.tiny(seed=0),
            clear=CLEARConfig(
                num_clusters=4,
                subclusters_per_cluster=2,
                gc_refinements=2,
                model=ModelConfig(
                    conv_filters=(4, 8), lstm_units=8, dropout=0.0
                ),
                training=TrainingConfig(
                    epochs=2, batch_size=8, early_stopping_patience=1
                ),
                fine_tuning=FineTuneConfig(epochs=1),
                seed=0,
            ),
            max_folds=1,
        )

    @pytest.fixture(scope="class")
    def tiny_dataset(self, tiny_scale):
        from repro.scenarios import WEMACScenario

        return WEMACScenario(tiny_scale.dataset).materialize()

    @pytest.fixture(scope="class")
    def captured_graphs(self, tiny_scale, tiny_dataset):
        """Build every experiment graph, capturing it instead of running.

        ``PipelineGraph.add`` has already applied the build-time flow
        check by the time ``run`` is reached, so intercepting ``run``
        proves all six graphs construct cleanly without paying for
        stage execution.
        """
        from repro.experiments import runner as runner_module

        class _Captured(Exception):
            def __init__(self, graph):
                self.graph = graph

        original = PipelineGraph.run

        def capture(self, *args, **kwargs):
            raise _Captured(self)

        runners = [
            (runner_module.run_table1, {"dataset": tiny_dataset}),
            (runner_module.run_table2_upper, {"dataset": tiny_dataset}),
            (runner_module.run_table2_lower, {"dataset": tiny_dataset}),
            (runner_module.run_fig1_pipeline, {"dataset": tiny_dataset}),
            (runner_module.run_fig2_architecture, {}),
            (runner_module.run_setup_statistics, {"dataset": tiny_dataset}),
        ]
        graphs = {}
        PipelineGraph.run = capture
        try:
            for run_experiment, kwargs in runners:
                with pytest.raises(_Captured) as excinfo:
                    run_experiment(tiny_scale, **kwargs)
                graphs[run_experiment.__name__] = excinfo.value.graph
        finally:
            PipelineGraph.run = original
        return graphs

    def test_all_six_graphs_build(self, captured_graphs):
        assert len(captured_graphs) == 6
        assert all(g.stages for g in captured_graphs.values())

    def test_all_six_graphs_pass_flow_check(self, captured_graphs):
        for name, graph in captured_graphs.items():
            check_stage_flow(graph.stages)  # must not raise
