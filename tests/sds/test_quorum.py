"""Unit and property tests for quorum plans, the quorum system and
configuration history.

``TestQuorumSystemAgainstBruteForce`` enumerates every quorum for
N = 1..7; wall time ~0.1 s.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig
from repro.sds.quorum import ConfigurationHistory, QuorumPlan, QuorumSystem

N = 5
SYSTEM = QuorumSystem(N)

quorum_strategy = st.integers(1, N).map(
    lambda w: QuorumConfig.from_write(w, N)
)
plan_strategy = st.builds(
    QuorumPlan,
    default=quorum_strategy,
    overrides=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), quorum_strategy, max_size=4
    ),
)


class TestQuorumPlan:
    def test_default_applies_without_override(self):
        plan = QuorumPlan.uniform(QuorumConfig(3, 3))
        assert plan.quorum_for("anything") == QuorumConfig(3, 3)

    def test_override_wins(self):
        plan = QuorumPlan(
            default=QuorumConfig(3, 3),
            overrides={"hot": QuorumConfig(1, 5)},
        )
        assert plan.quorum_for("hot") == QuorumConfig(1, 5)
        assert plan.quorum_for("cold") == QuorumConfig(3, 3)

    def test_with_overrides_is_non_destructive(self):
        plan = QuorumPlan.uniform(QuorumConfig(3, 3))
        updated = plan.with_overrides({"x": QuorumConfig(5, 1)})
        assert plan.quorum_for("x") == QuorumConfig(3, 3)
        assert updated.quorum_for("x") == QuorumConfig(5, 1)

    def test_with_default_keeps_overrides(self):
        plan = QuorumPlan(
            default=QuorumConfig(3, 3),
            overrides={"x": QuorumConfig(5, 1)},
        )
        updated = plan.with_default(QuorumConfig(1, 5))
        assert updated.quorum_for("x") == QuorumConfig(5, 1)
        assert updated.quorum_for("y") == QuorumConfig(1, 5)

    def test_max_read_write_span_overrides(self):
        plan = QuorumPlan(
            default=QuorumConfig(3, 3),
            overrides={"x": QuorumConfig(5, 1), "y": QuorumConfig(1, 5)},
        )
        assert SYSTEM.fence_quorum(plan) == 5
        assert SYSTEM.recovery_quorum(plan, peers=9) == 5
        assert SYSTEM.recovery_quorum(plan, peers=2) == 2
        assert SYSTEM.recovery_quorum(plan, peers=0) == 0

    def test_validate_rejects_non_strict_override(self):
        plan = QuorumPlan(
            default=QuorumConfig(3, 3),
            overrides={"x": QuorumConfig(2, 2)},
        )
        with pytest.raises(ConfigurationError, match="override"):
            SYSTEM.require_strict_plan(plan)

    @given(old=plan_strategy, new=plan_strategy)
    def test_transition_plan_intersects_both_per_object(self, old, new):
        """Per-object generalization of the Algorithm 3 transition rule."""
        transition = SYSTEM.transition_plan(old, new)
        objects = ["a", "b", "c", "d", "never-overridden"]
        for object_id in objects:
            t = transition.quorum_for(object_id)
            for other_plan in (old, new):
                o = other_plan.quorum_for(object_id)
                assert t.read + o.write > N
                assert t.write + o.read > N

    @given(old=plan_strategy, new=plan_strategy)
    def test_transition_plan_still_strict(self, old, new):
        SYSTEM.require_strict_plan(SYSTEM.transition_plan(old, new))


class TestQuorumSystem:
    def test_admissible_writes_respect_bounds(self):
        assert list(SYSTEM.admissible_writes(2, 4)) == [2, 3, 4]
        assert list(SYSTEM.admissible_writes()) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("bounds", [(0, None), (4, 2), (1, 9)])
    def test_inadmissible_bounds_rejected(self, bounds):
        with pytest.raises(ConfigurationError, match="bounds"):
            SYSTEM.admissible_writes(*bounds)

    def test_clamp_write(self):
        writes = SYSTEM.admissible_writes(2, 4)
        clamped = [SYSTEM.clamp_write(w, writes) for w in range(7)]
        assert clamped == [2, 2, 2, 3, 4, 4, 4]

    def test_minimal_configs_follow_from_write(self):
        configs = SYSTEM.minimal_configs()
        assert [c.write for c in configs] == [1, 2, 3, 4, 5]
        assert all(c.read + c.write == N + 1 for c in configs)

    def test_degree_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QuorumSystem(0)


DEGREES = range(1, 8)


def _subsets(n: int, size: int, exclude: int = 0) -> list[int]:
    """Every ``size``-subset of ``range(n)`` as a bitmask, skipping any
    subset that touches a replica in ``exclude``."""
    return [
        mask
        for mask in (sum(1 << i for i in c) for c in combinations(range(n), size))
        if not mask & exclude
    ]


@lru_cache(maxsize=None)
def _meets(n: int, a: int, b: int, exclude: int = 0) -> bool:
    """Every ``a``-subset avoiding ``exclude`` shares a replica outside
    ``exclude`` with every ``b``-subset of ``range(n)``."""
    return all(
        x & y & ~exclude
        for x in _subsets(n, a, exclude)
        for y in _subsets(n, b)
    )


def _strict(n: int, quorum: QuorumConfig) -> bool:
    """Ground truth: the sizes can be formed and always intersect."""
    return max(quorum.read, quorum.write) <= n and _meets(
        n, quorum.read, quorum.write
    )


def _plans(n: int) -> list[QuorumPlan]:
    """Every uniform strict plan, and every two-object minimal plan."""
    system = QuorumSystem(n)
    strict = [
        QuorumConfig(r, w)
        for r in range(1, n + 1)
        for w in range(1, n + 1)
        if system.admits(QuorumConfig(r, w))
    ]
    minimal = system.minimal_configs()
    return [QuorumPlan.uniform(q) for q in strict] + [
        QuorumPlan(default=a, overrides={"x": b})
        for a in minimal
        for b in minimal
    ]


def _configs_of(plan: QuorumPlan) -> list[QuorumConfig]:
    return [plan.default, *plan.overrides.values()]


class TestQuorumSystemAgainstBruteForce:
    """Every ``QuorumSystem`` answer, checked against enumerated quorums."""

    def test_strictness_agrees_with_real_intersection(self):
        for n in DEGREES:
            system = QuorumSystem(n)
            for r in range(1, n + 2):
                for w in range(1, n + 2):
                    quorum = QuorumConfig(r, w)
                    assert system.admits(quorum) == _strict(n, quorum)

    def test_minimal_configs_have_the_smallest_strict_read(self):
        for n in DEGREES:
            expected = [
                QuorumConfig(
                    min(r for r in range(1, n + 1) if _meets(n, r, w)), w
                )
                for w in range(1, n + 1)
            ]
            assert QuorumSystem(n).minimal_configs() == expected

    def test_transition_plan_meets_both_plans(self):
        for n in DEGREES:
            system = QuorumSystem(n)
            plans = _plans(n)
            uniform = [p for p in plans if not p.overrides]
            mixed = [p for p in plans if p.overrides]
            pairs = [(a, b) for a in uniform for b in uniform] + [
                (a, b) for a in mixed for b in mixed
            ]
            for old, new in pairs:
                transition = system.transition_plan(old, new)
                for object_id in ("x", "y"):
                    t = transition.quorum_for(object_id)
                    assert _strict(n, t)
                    for plan in (old, new):
                        q = plan.quorum_for(object_id)
                        assert _meets(n, t.read, q.write)
                        assert _meets(n, t.write, q.read)

    def test_fence_quorum_meets_every_read_and_write_quorum(self):
        for n in DEGREES:
            system = QuorumSystem(n)
            for plan in _plans(n):
                fence = system.fence_quorum(plan)
                assert fence <= n
                for q in _configs_of(plan):
                    assert _meets(n, fence, q.read)
                    assert _meets(n, fence, q.write)

    def test_recovery_quorum_meets_every_write_quorum(self):
        for n in DEGREES:
            system = QuorumSystem(n)
            for plan in _plans(n):
                everyone = system.recovery_quorum(plan, peers=n)
                for q in _configs_of(plan):
                    assert _meets(n, everyone, q.write)
                # I6 proper: replica 0 rejoins and asks its n - 1 peers.
                # Whenever every write also reached a peer (W >= 2), the
                # caught-up peers hold each acknowledged write.
                if min(q.write for q in _configs_of(plan)) < 2:
                    continue
                needed = system.recovery_quorum(plan, peers=n - 1)
                for q in _configs_of(plan):
                    assert _meets(n, needed, q.write, exclude=1)


class TestConfigurationHistory:
    def test_records_and_queries(self):
        history = ConfigurationHistory()
        history.record(0, QuorumPlan.uniform(QuorumConfig(3, 3)))
        history.record(1, QuorumPlan.uniform(QuorumConfig(1, 5)))
        history.record(2, QuorumPlan.uniform(QuorumConfig(5, 1)))
        assert history.max_read_quorum("x", 0, 2) == 5
        assert history.max_read_quorum("x", 0, 1) == 3
        assert history.max_read_quorum("x", 1, 1) == 1

    def test_query_respects_overrides(self):
        history = ConfigurationHistory()
        history.record(
            0,
            QuorumPlan(
                default=QuorumConfig(3, 3),
                overrides={"hot": QuorumConfig(5, 1)},
            ),
        )
        assert history.max_read_quorum("hot", 0, 0) == 5
        assert history.max_read_quorum("cold", 0, 0) == 3

    def test_empty_range_returns_zero(self):
        history = ConfigurationHistory()
        history.record(3, QuorumPlan.uniform(QuorumConfig(3, 3)))
        assert history.max_read_quorum("x", 0, 2) == 0

    def test_stale_redelivery_ignored(self):
        history = ConfigurationHistory()
        history.record(1, QuorumPlan.uniform(QuorumConfig(3, 3)))
        history.record(1, QuorumPlan.uniform(QuorumConfig(5, 1)))
        assert len(history) == 1
        assert history.max_read_quorum("x", 1, 1) == 3

    def test_latest(self):
        history = ConfigurationHistory()
        assert history.latest() is None
        history.record(0, QuorumPlan.uniform(QuorumConfig(3, 3)))
        history.record(4, QuorumPlan.uniform(QuorumConfig(1, 5)))
        latest = history.latest()
        assert latest.cfg_no == 4
        assert latest.plan.default == QuorumConfig(1, 5)

    @given(
        configs=st.lists(st.integers(1, N), min_size=1, max_size=8),
        since=st.integers(0, 7),
        until=st.integers(0, 7),
    )
    def test_max_read_quorum_matches_naive_scan(self, configs, since, until):
        history = ConfigurationHistory()
        plans = {}
        for cfg_no, write in enumerate(configs):
            plan = QuorumPlan.uniform(QuorumConfig.from_write(write, N))
            history.record(cfg_no, plan)
            plans[cfg_no] = plan
        expected = max(
            (
                plan.quorum_for("x").read
                for cfg_no, plan in plans.items()
                if since <= cfg_no <= until
            ),
            default=0,
        )
        assert history.max_read_quorum("x", since, until) == expected
