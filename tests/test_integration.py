"""Cross-module integration tests: the full CLEAR story end to end."""

import numpy as np
import pytest

from repro.core import (
    CLEAR,
    CLEARConfig,
    FineTuneConfig,
    ModelConfig,
    TrainingConfig,
    load_system,
    save_system,
)
from repro.datasets import split_maps_by_fraction
from repro.edge import ALL_DEVICES, EdgeDeployment, OnlineDetector, StreamingFeatureExtractor
from repro.signals import SensorRates

FAST_CFG = CLEARConfig(
    num_clusters=4,
    subclusters_per_cluster=2,
    gc_refinements=2,
    model=ModelConfig(conv_filters=(4, 8), lstm_units=8, dropout=0.0),
    training=TrainingConfig(epochs=8, batch_size=8, early_stopping_patience=3),
    fine_tuning=FineTuneConfig(epochs=4),
    seed=0,
)


@pytest.fixture(scope="module")
def deployment_story(small_dataset, tmp_path_factory):
    """Fit on N-1 users, ship to disk, reload, cold-start the held-out user."""
    new_user = small_dataset.subjects[4]
    population = {
        s.subject_id: list(s.maps)
        for s in small_dataset.subjects
        if s.subject_id != new_user.subject_id
    }
    system = CLEAR(FAST_CFG).fit(population)
    bundle = tmp_path_factory.mktemp("integration") / "bundle"
    save_system(system, bundle)
    edge_system = load_system(bundle)
    return edge_system, new_user, population


class TestColdStartToPersonalizedPipeline:
    def test_full_new_user_journey(self, deployment_story):
        edge_system, new_user, _ = deployment_story
        rng = np.random.default_rng(0)

        # 1. Cold start from 10 % unlabeled data.
        ca_maps, rest = split_maps_by_fraction(
            new_user.maps, 0.10, rng, stratified=False
        )
        assignment = edge_system.assign_new_user(ca_maps)
        assert 0 <= assignment.cluster < 4

        # 2. Use the cluster checkpoint immediately (no labels).
        checkpoint = edge_system.model_for(assignment.cluster)
        preds = checkpoint.predict_classes(rest)
        assert preds.shape == (len(rest),)

        # 3. Fine-tune with 20 % labels; remaining data is the test set.
        ft_maps, test_maps = split_maps_by_fraction(rest, 0.25, rng)
        before = checkpoint.evaluate(test_maps)["accuracy"]
        tuned = edge_system.personalize(ft_maps, cluster=assignment.cluster)
        after = tuned.evaluate(test_maps)["accuracy"]
        assert after >= before - 0.25  # personalization never catastrophic

    def test_quantized_deployment_of_personalized_model(self, deployment_story):
        edge_system, new_user, population = deployment_story
        cluster = edge_system.assign_new_user(new_user.maps[:1]).cluster
        tuned = edge_system.personalize(new_user.maps[1:3], cluster=cluster)
        calibration = [
            m for sid in edge_system.gc.members(cluster) for m in population[sid]
        ][:10]
        for device in ALL_DEVICES.values():
            deployment = EdgeDeployment(tuned, device, calibration_maps=calibration)
            metrics = deployment.evaluate(new_user.maps[3:])
            assert 0.0 <= metrics["accuracy"] <= 1.0
            cost = deployment.cost_report(new_user.maps[3:], ft_examples=2)
            assert cost.test_time_s > 0


class TestStreamingWithDeployedModel:
    def test_streaming_detection_with_cluster_checkpoint(
        self, deployment_story
    ):
        """Stream a simulated trial through the deployed checkpoint."""
        from repro.datasets import FEAR, PhysiologicalSimulator, WEMACConfig
        from repro.scenarios import WEMACScenario

        edge_system, new_user, _ = deployment_story
        cluster = edge_system.assign_new_user(new_user.maps[:1]).cluster
        checkpoint = edge_system.model_for(cluster)

        cfg = WEMACConfig.small(seed=0)  # the ``small_dataset`` config
        profile = WEMACScenario.draw_subject(
            WEMACScenario(cfg).build_config(), new_user.subject_id
        ).profile
        rates = SensorRates(bvp=cfg.fs_bvp, gsr=cfg.fs_gsr, skt=cfg.fs_skt)
        streaming = StreamingFeatureExtractor(
            rates, window_seconds=cfg.window_seconds
        )
        detector = OnlineDetector(
            checkpoint,
            windows_per_map=cfg.windows_per_map,
            streaming=streaming,
            smoothing=3,
        )

        rng = np.random.default_rng(1)
        sim = PhysiologicalSimulator(cfg.fs_bvp, cfg.fs_gsr, cfg.fs_skt)
        seconds = cfg.window_seconds * (cfg.windows_per_map + 2)
        raw = sim.simulate_trial(profile, FEAR, seconds, rng)
        # Stream in 1-second chunks.
        chunk_b, chunk_g = int(cfg.fs_bvp), int(cfg.fs_gsr)
        for i in range(int(seconds)):
            detector.push(
                bvp=raw["bvp"][i * chunk_b : (i + 1) * chunk_b],
                gsr=raw["gsr"][i * chunk_g : (i + 1) * chunk_g],
                skt=raw["skt"][i * chunk_g : (i + 1) * chunk_g],
            )
        assert len(detector.detections) >= 2
        assert all(
            d.smoothed_prediction in (0, 1) for d in detector.detections
        )


class TestRobustnessAcrossSeeds:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_pipeline_stable_across_corpus_seeds(self, seed):
        """The pipeline must run green regardless of corpus randomness."""
        from repro.datasets import WEMACConfig
        from repro.scenarios import WEMACScenario

        dataset = WEMACScenario(WEMACConfig.tiny(seed=seed)).materialize()
        population = {s.subject_id: list(s.maps) for s in dataset.subjects[:-1]}
        system = CLEAR(FAST_CFG).fit(population)
        new_user = dataset.subjects[-1]
        assignment = system.assign_new_user(new_user.maps[:1])
        metrics = system.model_for(assignment.cluster).evaluate(new_user.maps[1:])
        assert 0.0 <= metrics["accuracy"] <= 1.0
