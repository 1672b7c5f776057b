"""Unit and property tests for the core value types."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.types import (
    NodeId,
    OpType,
    QuorumConfig,
    Version,
    VersionStamp,
    ZERO_STAMP,
    missing_version,
)
from repro.sds.quorum import QuorumPlan, QuorumSystem


class TestNodeId:
    def test_string_form(self):
        assert str(NodeId.proxy(3)) == "proxy-3"
        assert str(NodeId.storage(0)) == "storage-0"

    def test_ordering_is_deterministic(self):
        ids = [NodeId.storage(2), NodeId.proxy(1), NodeId.storage(0)]
        assert sorted(ids) == sorted(ids[::-1])

    def test_usable_as_dict_key(self):
        mapping = {NodeId.proxy(1): "a"}
        assert mapping[NodeId.proxy(1)] == "a"


def _transition(n: int, old: QuorumConfig, new: QuorumConfig) -> QuorumConfig:
    return (
        QuorumSystem(n)
        .transition_plan(QuorumPlan.uniform(old), QuorumPlan.uniform(new))
        .default
    )


class TestQuorumConfig:
    def test_strictness(self):
        assert QuorumSystem(5).admits(QuorumConfig(3, 3))
        assert not QuorumSystem(5).admits(QuorumConfig(2, 3))

    def test_validate_strict_raises_on_violation(self):
        with pytest.raises(ConfigurationError):
            QuorumSystem(5).require_strict(QuorumConfig(2, 3))

    def test_validate_strict_rejects_oversized_quorum(self):
        with pytest.raises(ConfigurationError):
            QuorumSystem(5).require_strict(QuorumConfig(6, 1))

    def test_zero_quorum_rejected(self):
        with pytest.raises(ConfigurationError):
            QuorumConfig(0, 3)

    def test_from_write_derivation(self):
        # R = N - W + 1 (Section 4).
        for write in range(1, 6):
            config = QuorumConfig.from_write(write, 5)
            assert config.write == write
            assert config.read == 5 - write + 1
            assert QuorumSystem(5).admits(config)

    def test_from_write_bounds(self):
        with pytest.raises(ConfigurationError):
            QuorumConfig.from_write(0, 5)
        with pytest.raises(ConfigurationError):
            QuorumConfig.from_write(6, 5)

    @given(
        old_w=st.integers(1, 5),
        new_w=st.integers(1, 5),
    )
    def test_transition_quorum_intersects_both(self, old_w, new_w):
        """Property behind Algorithm 3 line 13: the transition quorum's
        read (write) quorum intersects the write (read) quorums of both
        the old and new configurations."""
        n = 5
        old = QuorumConfig.from_write(old_w, n)
        new = QuorumConfig.from_write(new_w, n)
        transition = _transition(n, old, new)
        for other in (old, new):
            assert transition.read + other.write > n
            assert transition.write + other.read > n

    @given(old_w=st.integers(1, 5), new_w=st.integers(1, 5))
    def test_transition_is_commutative(self, old_w, new_w):
        old = QuorumConfig.from_write(old_w, 5)
        new = QuorumConfig.from_write(new_w, 5)
        assert _transition(5, old, new) == _transition(5, new, old)


class TestVersionStamp:
    def test_total_order_by_timestamp(self):
        early = VersionStamp(1.0, "proxy-0")
        late = VersionStamp(2.0, "proxy-0")
        assert early < late

    def test_proxy_id_breaks_ties(self):
        a = VersionStamp(1.0, "proxy-0")
        b = VersionStamp(1.0, "proxy-1")
        assert a < b
        assert max(a, b) == b

    def test_zero_stamp_is_minimal(self):
        assert ZERO_STAMP < VersionStamp(-1e18, "proxy-0")

    @given(
        stamps=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(["p0", "p1", "p2"]),
            ),
            min_size=2,
            max_size=10,
        )
    )
    def test_max_is_order_independent(self, stamps):
        """Last-writer-wins merge is commutative and associative: the max
        over any permutation is identical."""
        versions = [VersionStamp(t, p) for t, p in stamps]
        assert max(versions) == max(reversed(versions))


class TestVersion:
    def test_missing_version_is_oldest(self):
        real = Version(b"x", VersionStamp(0.0, "p"), cfg_no=0, size=1)
        assert real.is_newer_than(missing_version())

    def test_newer_comparison(self):
        older = Version(b"a", VersionStamp(1.0, "p"), cfg_no=0)
        newer = Version(b"b", VersionStamp(2.0, "p"), cfg_no=1)
        assert newer.is_newer_than(older)
        assert not older.is_newer_than(newer)


class TestOpType:
    def test_write_flag(self):
        assert OpType.WRITE.is_write
        assert not OpType.READ.is_write
