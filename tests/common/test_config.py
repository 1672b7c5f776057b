"""Unit tests for configuration validation and derived quantities."""

from __future__ import annotations

import pytest

from repro.common.config import (
    AutonomicConfig,
    ClusterConfig,
    NetworkConfig,
    ProxyConfig,
    StorageConfig,
)
from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig
from repro.sds.quorum import QuorumSystem


class TestNetworkConfig:
    def test_defaults_valid(self):
        NetworkConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_latency": -1.0},
            {"bandwidth": 0.0},
            {"jitter_fraction": -0.1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NetworkConfig(**kwargs).validate()


class TestStorageConfig:
    def test_defaults_valid(self):
        StorageConfig().validate()

    def test_writes_slower_than_reads_by_default(self):
        config = StorageConfig()
        size = 64 * 1024
        assert config.mean_write_time(size) > config.mean_read_time(size)

    def test_mean_times_scale_with_size(self):
        config = StorageConfig()
        assert config.mean_read_time(1 << 20) > config.mean_read_time(1 << 10)
        assert config.mean_write_time(1 << 20) > config.mean_write_time(0)

    def test_mean_read_time_includes_miss_penalty(self):
        hot = StorageConfig(read_miss_ratio=0.0)
        cold = StorageConfig(read_miss_ratio=1.0)
        assert cold.mean_read_time(0) > hot.mean_read_time(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_service_time": -1.0},
            {"write_bandwidth": 0.0},
            {"read_miss_ratio": 1.5},
            {"concurrency": 0},
            {"replication_interval": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StorageConfig(**kwargs).validate()


class TestProxyConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"per_replica_cpu": -1.0},
            {"concurrency": 0},
            {"fallback_timeout": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProxyConfig(**kwargs).validate()


class TestClusterConfig:
    def test_paper_testbed_defaults(self):
        config = ClusterConfig().validate()
        assert config.num_storage_nodes == 10
        assert config.num_proxies == 5
        assert config.clients_per_proxy == 10
        assert config.replication_degree == 5
        assert config.total_clients == 50

    def test_replication_degree_bounded_by_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                num_storage_nodes=3, replication_degree=5
            ).validate()

    def test_non_strict_initial_quorum_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(
                initial_quorum=QuorumConfig(read=2, write=2)
            ).validate()

    def test_with_quorum_replaces_only_quorum(self):
        base = ClusterConfig()
        changed = base.with_quorum(QuorumConfig(read=1, write=5))
        assert changed.initial_quorum == QuorumConfig(read=1, write=5)
        assert changed.num_storage_nodes == base.num_storage_nodes


class TestAutonomicConfig:
    def test_defaults_valid(self):
        AutonomicConfig().validate(5)

    def test_write_quorum_range_respects_bounds(self):
        config = AutonomicConfig(min_write_quorum=2, max_write_quorum=4)
        writes = QuorumSystem(5).admissible_writes(
            config.min_write_quorum, config.max_write_quorum
        )
        assert list(writes) == [2, 3, 4]

    def test_unbounded_range_covers_all(self):
        config = AutonomicConfig()
        writes = QuorumSystem(5).admissible_writes(
            config.min_write_quorum, config.max_write_quorum
        )
        assert list(writes) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"round_duration": 0.0},
            {"gamma": 0},
            {"theta": -0.1},
            {"quarantine": -1.0},
            {"min_write_quorum": 0},
            {"min_write_quorum": 4, "max_write_quorum": 2},
            {"max_write_quorum": 9},
            {"max_rounds": 0},
            {"kpi": "goodput"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutonomicConfig(**kwargs).validate(5)
