#!/usr/bin/env python
"""Zero-label personalization with pseudo-labels + system persistence.

Extends the paper along its own future-work axis ("reduce the need for
labelled data"): after the cold-start assignment, the cluster
checkpoint pseudo-labels the new user's *unlabeled* stream and
fine-tunes on its own confident predictions.  Also demonstrates saving
the fitted CLEAR system to disk and reloading it — the cloud-to-edge
shipping step.

Run:  python examples/zero_label_personalization.py
"""

import tempfile
from pathlib import Path

from repro.core import (
    CLEAR,
    CLEARConfig,
    PseudoLabelConfig,
    load_system,
    pseudo_label_fine_tune,
    save_system,
)
from repro.datasets import WEMACConfig
from repro.scenarios import WEMACScenario


def main() -> None:
    print("=== Zero-label personalization ===\n")
    dataset = WEMACScenario(WEMACConfig.small(seed=0)).materialize()
    new_user = dataset.subjects[4]
    population = {
        s.subject_id: list(s.maps)
        for s in dataset.subjects
        if s.subject_id != new_user.subject_id
    }

    print("Fitting CLEAR on the cloud...")
    config = CLEARConfig.fast(seed=0)
    system = CLEAR(config).fit(population)

    with tempfile.TemporaryDirectory() as tmp:
        deploy_dir = Path(tmp) / "edge_bundle"
        save_system(system, deploy_dir)
        files = sorted(p.name for p in deploy_dir.iterdir())
        print(f"saved deployment bundle: {files}")
        edge_system = load_system(deploy_dir)
        print("reloaded system on the 'edge'\n")

    assignment = edge_system.assign_new_user(new_user.maps[:1])
    checkpoint = edge_system.model_for(assignment.cluster)
    stream = new_user.maps[1:6]  # unlabeled data accumulating on-device
    test_maps = new_user.maps[6:]
    print(
        f"new user {new_user.subject_id} -> cluster {assignment.cluster}; "
        f"{len(stream)} unlabeled maps on device"
    )

    before = checkpoint.evaluate(test_maps)
    print(f"accuracy before personalization: {before['accuracy']:.2%}")

    tuned, report = pseudo_label_fine_tune(
        checkpoint,
        stream,
        config=PseudoLabelConfig(fine_tuning=config.fine_tuning),
        seed=0,
    )
    print(
        f"pseudo-labels: {report.num_selected}/{report.num_candidates} maps "
        f"selected (mean confidence {report.mean_confidence:.2f}, "
        f"class counts {report.class_counts})"
    )
    after = tuned.evaluate(test_maps)
    print(f"accuracy after zero-label personalization: {after['accuracy']:.2%}")
    print("\nNo user labelling was required at any point.")


if __name__ == "__main__":
    main()
