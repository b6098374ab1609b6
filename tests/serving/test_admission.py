"""Admission control: thresholds and outcome counters."""

import pytest

from repro.serving import (
    ACCEPT,
    REJECT,
    SHED,
    AdmissionController,
    AdmissionPolicy,
)


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": 10, "hard_limit": 5}, "hard_limit"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AdmissionPolicy(**kwargs)


class TestController:
    def test_three_outcomes_by_depth(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=2, hard_limit=4))
        assert ctrl.admit(0) == ACCEPT
        assert ctrl.admit(1) == ACCEPT
        assert ctrl.admit(2) == SHED
        assert ctrl.admit(3) == SHED
        assert ctrl.admit(4) == REJECT
        assert (ctrl.accepted, ctrl.shed, ctrl.rejected) == (2, 2, 1)

    def test_rates(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=1, hard_limit=2))
        assert ctrl.shed_rate == 0.0  # no traffic yet
        ctrl.admit(0)
        ctrl.admit(1)
        ctrl.admit(2)
        ctrl.admit(2)
        assert ctrl.shed_rate == pytest.approx(0.25)
        assert ctrl.reject_rate == pytest.approx(0.5)
        report = ctrl.to_dict()
        assert report["accepted"] == 1 and report["rejected"] == 2
