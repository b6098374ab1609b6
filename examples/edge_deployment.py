#!/usr/bin/env python
"""Edge deployment: quantize a CLEAR checkpoint for each platform.

Reproduces the flavour of the paper's Table II: accuracy under each
platform's numeric scheme (GPU fp32, Coral TPU int8, Pi+NCS2 fp16),
plus the analytic time/power cost model for inference and on-device
fine-tuning.

Run:  python examples/edge_deployment.py
"""

from repro.core import CLEAR, CLEARConfig
from repro.datasets import WEMACConfig
from repro.edge import ALL_DEVICES, EdgeDeployment
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== Cloud-edge deployment of CLEAR ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    # Pick a new user from the most common archetype so their cluster
    # model was trained on several similar volunteers.
    new_user = dataset.subjects[0]
    population = {
        s.subject_id: list(s.maps)
        for s in dataset.subjects
        if s.subject_id != new_user.subject_id
    }
    config = CLEARConfig.fast(seed=0)
    system = CLEAR(config).fit(population)

    assignment = system.assign_new_user(new_user.maps[:1])
    checkpoint = system.model_for(assignment.cluster)
    cluster_maps = [
        m
        for sid in system.gc.members(assignment.cluster)
        for m in population[sid]
    ]
    from numpy.random import default_rng

    from repro.datasets import split_maps_by_fraction

    ft_maps, test_maps = split_maps_by_fraction(
        new_user.maps[1:], 0.3, default_rng(0), stratified=True
    )
    print(
        f"new user {new_user.subject_id} -> cluster {assignment.cluster}; "
        f"evaluating on {len(test_maps)} maps\n"
    )

    header = (
        f"{'platform':<16}{'scheme':<8}{'acc':>7}{'acc+FT':>8}"
        f"{'test ms':>9}{'retrain s':>11}{'P(test) W':>11}"
    )
    print(header)
    print("-" * len(header))
    for device in ALL_DEVICES.values():
        deployment = EdgeDeployment(
            checkpoint, device, calibration_maps=cluster_maps[:8]
        )
        acc = deployment.evaluate(test_maps)["accuracy"]
        tuned = deployment.fine_tune_on_device(ft_maps, config.fine_tuning)
        acc_ft = tuned.evaluate(test_maps)["accuracy"]
        cost = deployment.cost_report(
            test_maps, ft_examples=len(ft_maps), ft_epochs=config.fine_tuning.epochs
        )
        print(
            f"{device.name:<16}{device.scheme:<8}{acc:>7.2%}{acc_ft:>8.2%}"
            f"{cost.test_time_s * 1e3:>9.1f}{cost.retrain_time_s:>11.1f}"
            f"{cost.power_test_w:>11.2f}"
        )

    print("\nTime/power shape of the paper's Table II: the TPU is ~5x faster")
    print("and draws about half the power of the Pi + NCS2 stack. On a single")
    print("easy user the accuracies can saturate; the aggregate int8 penalty")
    print("(TPU < NCS2 < GPU) appears in benchmarks/test_table2_*.py, which")
    print("averages over every LOSO fold.")


if __name__ == "__main__":
    main()
