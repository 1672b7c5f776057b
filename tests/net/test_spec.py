"""ClusterSpec: topology derivation, JSON round-trip, port allocation."""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, QuorumConfig
from repro.net.cluster import allocate_ports
from repro.net.spec import (
    ClusterSpec,
    build_spec,
    parse_node_name,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_parse_node_name_round_trips() -> None:
    for node_id in (
        NodeId.storage(0),
        NodeId.proxy(12),
        parse_node_name("reconfig-manager-0"),
    ):
        assert parse_node_name(str(node_id)) == node_id


def test_parse_node_name_rejects_garbage() -> None:
    for bad in ("storage", "storage-", "-3", "storage-x", ""):
        with pytest.raises(ConfigurationError):
            parse_node_name(bad)


def test_build_spec_topology() -> None:
    spec = build_spec(replicas=5, proxies=2, write_quorum=4, seed=7)
    assert [a.name for a in spec.replicas] == [
        f"storage-{i}" for i in range(5)
    ]
    assert [a.name for a in spec.proxies] == ["proxy-0", "proxy-1"]
    (shard,) = spec.shards
    assert shard.initial_quorum() == QuorumConfig(read=2, write=4)
    assert shard.initial_plan().default == shard.initial_quorum()
    assert len(spec.all_addresses()) == 8
    assert len(spec.directory()) == 8


def test_ring_is_identical_across_reconstructions() -> None:
    """Every process derives placement from the spec; it must agree."""
    spec = build_spec(replicas=5)
    first = spec.shards[0].ring()
    second = ClusterSpec.from_json(
        allocate_ports(spec).to_json()
    ).shards[0].ring()
    for object_id in ("obj-1", "alpha", "Ω"):
        assert first.replicas(object_id) == second.replicas(object_id)


def test_json_round_trip_preserves_everything() -> None:
    spec = allocate_ports(build_spec(replicas=5, proxies=2, seed=3))
    clone = ClusterSpec.from_json(spec.to_json())
    assert clone == spec


def test_json_version_mismatch_rejected() -> None:
    text = allocate_ports(build_spec()).to_json().replace(
        '"version": 1', '"version": 999'
    )
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_json(text)


def test_address_of_unknown_node() -> None:
    with pytest.raises(ConfigurationError):
        build_spec().address_of("storage-99")


def test_invalid_write_quorum_rejected() -> None:
    with pytest.raises(ConfigurationError):
        build_spec(replicas=5, write_quorum=6)


def test_allocate_ports_fills_every_zero_with_distinct_ports() -> None:
    spec = allocate_ports(build_spec(replicas=5, proxies=2))
    ports = []
    for address in spec.all_addresses():
        assert address.port > 0
        assert address.http_port > 0
        ports.extend([address.port, address.http_port])
    assert len(ports) == len(set(ports))


def test_allocate_ports_respects_fixed_ports() -> None:
    spec = build_spec(base_port=42000)
    assert allocate_ports(spec) == spec


# -- satellite: versioned spec format ----------------------------------------


class TestVersionedFormat:
    """The spec format is versioned: version 1 (single ring) and
    version 2 (with the shard map) both round-trip byte-for-byte."""

    @pytest.mark.parametrize(
        "fixture",
        sorted(path.name for path in FIXTURES.glob("spec_v*_*.json")),
    )
    def test_every_pre_shard_fixture_round_trips_byte_identically(
        self, fixture
    ) -> None:
        text = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert ClusterSpec.from_json(text).to_json() + "\n" == text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"replicas": 5, "proxies": 2, "write_quorum": 4, "seed": 7},
            {"data_dir": "/tmp/qopt-wal", "seed": 1},
            {
                "replicas": 3,
                "write_quorum": 2,
                "base_port": 42000,
                "seed": 3,
            },
        ],
    )
    def test_build_spec_output_round_trips_byte_identically(
        self, kwargs
    ) -> None:
        text = build_spec(**kwargs).to_json()
        assert ClusterSpec.from_json(text).to_json() == text

    def test_unsharded_specs_still_serialize_as_version_1(self) -> None:
        spec = build_spec()
        assert '"version": 1' in spec.to_json()
        assert '"shards"' not in spec.to_json()

    def test_sharded_specs_serialize_as_version_2(self) -> None:
        spec = build_spec(shards=2, replicas=5, proxies=2)
        text = spec.to_json()
        assert '"version": 2' in text
        clone = ClusterSpec.from_json(text)
        assert clone == spec
        assert clone.to_json() == text

    def test_a_named_single_shard_keeps_version_2(self) -> None:
        """Version 1 has no room for a shard name, so only the default
        one-shard spec is written in it."""
        spec = build_spec()
        renamed = dataclasses.replace(
            spec, shards=(dataclasses.replace(spec.shards[0], name="solo"),)
        )
        text = renamed.to_json()
        assert '"version": 2' in text
        assert ClusterSpec.from_json(text) == renamed

    def test_version_1_spec_cannot_smuggle_a_shard_map(self) -> None:
        text = build_spec(shards=2).to_json().replace(
            '"version": 2', '"version": 1'
        )
        with pytest.raises(ConfigurationError):
            ClusterSpec.from_json(text)

    def test_version_2_spec_requires_a_shard_map(self) -> None:
        text = build_spec().to_json().replace(
            '"version": 1', '"version": 2'
        )
        with pytest.raises(ConfigurationError):
            ClusterSpec.from_json(text)

    def test_shard_entry_with_missing_keys_rejected(self) -> None:
        raw = json.loads(build_spec(shards=2).to_json())
        del raw["shards"][0]["manager"]
        with pytest.raises(ConfigurationError, match="missing keys"):
            ClusterSpec.from_json(json.dumps(raw))


# -- sharded topology ---------------------------------------------------------


def sharded_spec(**kwargs) -> ClusterSpec:
    defaults = dict(replicas=5, proxies=2, shards=2, seed=1)
    defaults.update(kwargs)
    return build_spec(**defaults)


class TestShardTopology:
    def test_build_spec_shards_scale_the_fleet(self) -> None:
        spec = sharded_spec(shards=3)
        assert len(spec.replicas) == 15
        assert len(spec.proxies) == 6
        assert [a.name for a in spec.all_addresses()[-3:]] == [
            f"reconfig-manager-{i}" for i in range(3)
        ]
        assert [shard.name for shard in spec.shards] == [
            "shard-0", "shard-1", "shard-2",
        ]
        for index, shard in enumerate(spec.shards):
            assert len(shard.replicas) == 5
            assert len(shard.proxies) == 2
            assert shard.manager.name == f"reconfig-manager-{index}"

    def test_unsharded_spec_exposes_one_implicit_shard(self) -> None:
        spec = build_spec(replicas=5, proxies=2)
        (shard,) = spec.shards
        assert shard.name == "shard-0"
        assert shard.replicas == tuple(spec.replicas)
        assert shard.proxy_ids() == spec.proxy_ids()
        assert shard.manager == spec.manager
        assert spec.shard_map().shard_names == ("shard-0",)

    def test_shard_write_quorums_arm_each_shard_independently(self) -> None:
        spec = sharded_spec(shard_write_quorums=[4, 2])
        first, second = spec.shards
        assert first.initial_quorum() == QuorumConfig(read=2, write=4)
        assert second.initial_quorum() == QuorumConfig(read=4, write=2)
        # The file's top-level initial quorum mirrors shard 0's W.
        assert json.loads(spec.to_json())["initial_write_quorum"] == 4

    def test_shard_for_places_every_node_in_exactly_one_shard(self) -> None:
        spec = sharded_spec()
        assert spec.shard_for("storage-0").name == "shard-0"
        assert spec.shard_for("storage-7").name == "shard-1"
        assert spec.shard_for("proxy-3").name == "shard-1"
        assert spec.shard_for("reconfig-manager-1").name == "shard-1"
        with pytest.raises(ConfigurationError):
            spec.shard_for("storage-99")

    def test_shard_rings_are_disjoint(self) -> None:
        shards = sharded_spec().shards
        for key in ("obj-1", "alpha", "Ω"):
            first = set(shards[0].ring().replicas(key))
            second = set(shards[1].ring().replicas(key))
            assert not first & second

    def test_allocate_ports_fills_extra_manager_ports(self) -> None:
        spec = allocate_ports(sharded_spec())
        ports = []
        for address in spec.all_addresses():
            assert address.port > 0
            assert address.http_port > 0
            ports.extend([address.port, address.http_port])
        assert len(ports) == len(set(ports))

    def test_wrong_quorum_list_length_rejected(self) -> None:
        with pytest.raises(ConfigurationError):
            build_spec(shards=3, shard_write_quorums=[4, 2])


class TestShardMapValidation:
    """Every way a topology can be malformed gets an explicit error.

    Structural mistakes are made on the in-memory :class:`Shard`; wrong
    node names can only come from outside input, so those are made on a
    version-2 JSON file and caught by ``ClusterSpec.from_json``.
    """

    def mutate(self, **changes) -> ClusterSpec:
        spec = sharded_spec()
        shards = list(spec.shards)
        shards[0] = dataclasses.replace(shards[0], **changes)
        return dataclasses.replace(spec, shards=tuple(shards))

    def load_mutated(self, **changes) -> ClusterSpec:
        raw = json.loads(sharded_spec().to_json())
        raw["shards"][0].update(changes)
        return ClusterSpec.from_json(json.dumps(raw))

    def test_duplicate_shard_names(self) -> None:
        with pytest.raises(ConfigurationError, match="duplicate shard"):
            self.mutate(name="shard-1").validate()

    def test_empty_shard_name(self) -> None:
        with pytest.raises(ConfigurationError, match="non-empty"):
            self.mutate(name="").validate()

    def test_shard_without_replicas(self) -> None:
        with pytest.raises(ConfigurationError, match="no replicas"):
            self.mutate(replicas=()).validate()

    def test_shard_without_proxies(self) -> None:
        with pytest.raises(ConfigurationError, match="no proxies"):
            self.mutate(proxies=()).validate()

    def test_no_shards(self) -> None:
        with pytest.raises(ConfigurationError, match="at least one shard"):
            dataclasses.replace(sharded_spec(), shards=()).validate()

    def test_node_in_two_shards(self) -> None:
        spec = sharded_spec()
        with pytest.raises(ConfigurationError, match="used twice"):
            self.mutate(manager=spec.shards[1].manager).validate()

    def test_unknown_replica_reference(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown replica"):
            self.load_mutated(replicas=["storage-0", "storage-999"])

    def test_replica_assigned_to_two_shards(self) -> None:
        with pytest.raises(ConfigurationError, match="assigned to both"):
            self.load_mutated(
                replicas=[
                    "storage-0", "storage-1", "storage-2",
                    "storage-3", "storage-5",
                ]
            )

    def test_replica_left_out_of_every_shard(self) -> None:
        with pytest.raises(ConfigurationError, match="not in any shard"):
            self.load_mutated(
                replicas=["storage-0", "storage-1", "storage-2", "storage-3"],
                replication_degree=4,
                write_quorum=3,
            )

    def test_unknown_proxy_reference(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown proxy"):
            self.load_mutated(proxies=["proxy-0", "proxy-999"])

    def test_unknown_manager_reference(self) -> None:
        with pytest.raises(ConfigurationError, match="unknown manager"):
            self.load_mutated(manager="reconfig-manager-9")

    def test_manager_shared_between_shards(self) -> None:
        with pytest.raises(ConfigurationError, match="assigned to both"):
            self.load_mutated(manager="reconfig-manager-1")

    def test_shard_degree_exceeding_its_replicas(self) -> None:
        with pytest.raises(ConfigurationError, match="replication degree"):
            self.mutate(replication_degree=6).validate()

    def test_non_strict_shard_quorum(self) -> None:
        with pytest.raises(ConfigurationError):
            self.mutate(write_quorum=9).validate()
