"""Sessions: the service's session table, smoothing, reorder-buffer ordering."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.resilience.retry import FakeClock
from repro.serving import InferenceService, UserSession


def _session(user_id=1, cluster=0, **kwargs):
    return UserSession(user_id=user_id, cluster=cluster, margin=0.5, **kwargs)


class TestShardedSessions:
    """The session table: one session per user id, held by the service."""

    def test_duplicate_connect_typed(self, serving_system, some_maps):
        svc = InferenceService(serving_system, clock=FakeClock())
        first = svc.connect(3, some_maps[:2])
        # The id is normalised to int, so a numpy id names the same user.
        with pytest.raises(ServingError, match="already connected"):
            svc.connect(np.int64(3), some_maps[:2])
        assert svc.sessions == {3: first}

    def test_unknown_user_typed(self, serving_system, some_maps):
        svc = InferenceService(serving_system, clock=FakeClock())
        svc.connect(3, some_maps[:2])
        with pytest.raises(ServingError, match="no session for user 9"):
            svc.submit(9, some_maps[0])
        assert list(svc.sessions) == [3]


class TestUserSession:
    def test_group_key_flips_on_personalize(self):
        s = _session(user_id=4, cluster=2)
        assert s.group_key() == ("cluster", 2)
        s.mark_personalized()
        assert s.group_key() == ("user", 4)

    def test_request_indices_monotonic(self):
        s = _session()
        assert [s.next_request_index() for _ in range(3)] == [0, 1, 2]

    def test_smoothing_majority_vote(self):
        s = _session(smoothing=3)
        assert s.smooth(1) == 1
        assert s.smooth(0) == 0  # tie at {0,1}: argmax picks class 0
        assert s.smooth(1) == 1  # {1,0,1} -> 1
        assert s.smooth(0) == 0  # {0,1,0} -> 0

    def test_smoothing_validated(self):
        with pytest.raises(ValueError, match="smoothing"):
            _session(smoothing=0)

    def test_reorder_buffer_releases_in_request_order(self):
        s = _session()
        for _ in range(3):
            s.next_request_index()
        s.hold(2, ("c",))
        s.hold(0, ("a",))
        assert [idx for idx, _ in s.release_ready()] == [0]  # 1 missing
        s.hold(1, ("b",))
        assert [idx for idx, _ in s.release_ready()] == [1, 2]
        assert s.pending_results == 0

    def test_double_completion_typed(self):
        s = _session()
        s.next_request_index()
        s.hold(0, ("a",))
        with pytest.raises(ServingError, match="completed twice"):
            s.hold(0, ("again",))

    def test_completion_below_watermark_typed(self):
        s = _session()
        s.next_request_index()
        s.hold(0, ("a",))
        s.release_ready()
        with pytest.raises(ServingError, match="completed twice"):
            s.hold(0, ("late",))
