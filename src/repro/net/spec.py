"""Cluster specification shared by every live-runtime process.

``python -m repro cluster`` allocates ports, writes the spec as JSON and
spawns one ``python -m repro serve`` process per node; ``serve``,
``loadgen`` and the examples all reconstruct the same topology from that
file.  The spec is also the place where the live profile lives: the sim
service-time model priced in *simulated* seconds what the live runtime
now pays in real CPU, syscalls and wire time, so the live configs zero
out the modelled service times and keep only the protocol-level knobs
(deadlines, retry budgets, anti-entropy cadence).

**Topology:** a fleet is a non-empty list of shards (:class:`Shard`),
each a complete Q-OPT instance — replica set, proxy set, reconfiguration
manager, placement ring and initial quorum — owning a disjoint slice of
the keyspace.  The classic single-ring cluster is simply S = 1.

**File format:** only JSON knows about versions.  Version 1 (no shard
map) is the form of a one-shard spec; version 2 adds the shard map,
which names its nodes and is resolved against the address lists on
load.  Both parse and serialize byte-identically.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import ClientConfig, ProxyConfig, StorageConfig
from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, NodeKind, QuorumConfig
from repro.sds.quorum import QuorumPlan
from repro.sds.ring import PlacementRing
from repro.shard.map import ShardMap

#: Newest spec format version.  Version 1 (single ring, single manager)
#: is still read and written unchanged; version 2 adds the shard map.
SPEC_VERSION = 2

#: The version emitted for one-shard specs: no shard map.
_SINGLE_SHARD_VERSION = 1

#: The name a version-1 file gives its one shard.
_SINGLE_SHARD_NAME = "shard-0"


def parse_node_name(name: str) -> NodeId:
    """Parse the ``kind-index`` string form back into a :class:`NodeId`."""
    kind, _, index = name.rpartition("-")
    if not kind or not index.isdigit():
        raise ConfigurationError(f"malformed node name {name!r}")
    return NodeId(kind=kind, index=int(index))


@dataclass(frozen=True)
class NodeAddress:
    """Where one protocol node lives: transport plus HTTP endpoints."""

    name: str
    host: str
    port: int
    http_port: int

    @property
    def node_id(self) -> NodeId:
        return parse_node_name(self.name)


@dataclass(frozen=True)
class Shard:
    """One independent Q-OPT instance: its nodes and initial quorum."""

    name: str
    replicas: Tuple[NodeAddress, ...]
    proxies: Tuple[NodeAddress, ...]
    manager: NodeAddress
    write_quorum: int
    replication_degree: int

    def storage_ids(self) -> List[NodeId]:
        return [address.node_id for address in self.replicas]

    def proxy_ids(self) -> List[NodeId]:
        return [address.node_id for address in self.proxies]

    def initial_quorum(self) -> QuorumConfig:
        return QuorumConfig.from_write(
            self.write_quorum, self.replication_degree
        )

    def initial_plan(self) -> QuorumPlan:
        return QuorumPlan.uniform(self.initial_quorum())

    def ring(self) -> PlacementRing:
        """This shard's placement ring — identical in every process."""
        return PlacementRing(
            self.storage_ids(),
            replication_degree=self.replication_degree,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Topology + tuning of one live fleet, as shipped between processes."""

    #: The fleet's shards; never empty.  Shard 0 is the whole fleet when
    #: there is only one.
    shards: Tuple[Shard, ...]
    seed: int = 0
    #: Root of per-replica durable state (``<data_dir>/<node-name>/``).
    #: ``None`` keeps replicas on the in-memory backend — the default, so
    #: existing smoke/bench flows are untouched; the chaos harness sets
    #: it to give every storage node a crash-recoverable WAL.
    data_dir: Optional[str] = None
    storage: StorageConfig = field(default_factory=lambda: live_storage_config())
    proxy: ProxyConfig = field(default_factory=lambda: live_proxy_config())
    client: ClientConfig = field(default_factory=lambda: live_client_config())

    def validate(self) -> "ClusterSpec":
        if not self.shards:
            raise ConfigurationError("spec needs at least one shard")
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate shard names in shard map: {sorted(names)}"
            )
        if any(not name for name in names):
            raise ConfigurationError("shard names must be non-empty")
        for shard in self.shards:
            if not shard.replicas:
                raise ConfigurationError(
                    f"shard {shard.name!r} has no replicas"
                )
            if not shard.proxies:
                raise ConfigurationError(
                    f"shard {shard.name!r} has no proxies"
                )
            if shard.replication_degree > len(shard.replicas):
                raise ConfigurationError(
                    f"shard {shard.name!r}: replication degree "
                    f"{shard.replication_degree} exceeds its "
                    f"{len(shard.replicas)} replicas"
                )
            shard.initial_quorum()  # raises unless 1 <= W <= N
        counts = Counter(address.name for address in self.all_addresses())
        reused = sorted(name for name, count in counts.items() if count > 1)
        if reused:
            raise ConfigurationError(f"node names used twice: {reused}")
        self.storage.validate()
        self.proxy.validate()
        self.client.validate()
        return self

    # -- derived topology ----------------------------------------------------

    @property
    def replicas(self) -> List[NodeAddress]:
        return [a for shard in self.shards for a in shard.replicas]

    @property
    def proxies(self) -> List[NodeAddress]:
        return [a for shard in self.shards for a in shard.proxies]

    @property
    def manager(self) -> NodeAddress:
        """Shard 0's reconfiguration manager."""
        return self.shards[0].manager

    def proxy_ids(self) -> List[NodeId]:
        return [address.node_id for address in self.proxies]

    def all_addresses(self) -> List[NodeAddress]:
        """Every node: replicas, then proxies, then managers."""
        return (
            self.replicas
            + self.proxies
            + [shard.manager for shard in self.shards]
        )

    def address_of(self, name: str) -> NodeAddress:
        for address in self.all_addresses():
            if address.name == name:
                return address
        raise ConfigurationError(f"node {name!r} not in spec")

    def directory(self) -> Dict[NodeId, Tuple[str, int]]:
        """Static transport directory: node id -> (host, port)."""
        return {
            address.node_id: (address.host, address.port)
            for address in self.all_addresses()
        }

    def shard_for(self, node_name: str) -> Shard:
        """The shard hosting ``node_name`` (every node is in exactly one)."""
        for shard in self.shards:
            members = shard.replicas + shard.proxies + (shard.manager,)
            if any(address.name == node_name for address in members):
                return shard
        raise ConfigurationError(f"node {node_name!r} not in any shard")

    def shard_map(self) -> ShardMap:
        """The key→shard partition every process agrees on."""
        return ShardMap([shard.name for shard in self.shards])

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> str:
        def addr(address: NodeAddress) -> dict:
            return {
                "name": address.name,
                "host": address.host,
                "port": address.port,
                "http_port": address.http_port,
            }

        first = self.shards[0]
        single = len(self.shards) == 1 and first.name == _SINGLE_SHARD_NAME
        # The top-level quorum fields are shard 0's; in version 2 they
        # only mirror the shard map.
        payload: Dict[str, object] = {
            "version": _SINGLE_SHARD_VERSION if single else SPEC_VERSION,
            "replication_degree": first.replication_degree,
            "initial_write_quorum": first.write_quorum,
            "seed": self.seed,
            "data_dir": self.data_dir,
            "replicas": [addr(a) for a in self.replicas],
            "proxies": [addr(a) for a in self.proxies],
            "manager": addr(first.manager),
            "storage": vars(self.storage),
            "proxy": vars(self.proxy),
            "client": vars(self.client),
        }
        if not single:
            payload["extra_managers"] = [
                addr(shard.manager) for shard in self.shards[1:]
            ]
            payload["shards"] = [
                {
                    "name": shard.name,
                    "replicas": [a.name for a in shard.replicas],
                    "proxies": [a.name for a in shard.proxies],
                    "manager": shard.manager.name,
                    "write_quorum": shard.write_quorum,
                    "replication_degree": shard.replication_degree,
                }
                for shard in self.shards
            ]
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ClusterSpec":
        raw = json.loads(text)
        version = raw.get("version")
        if version not in (_SINGLE_SHARD_VERSION, SPEC_VERSION):
            raise ConfigurationError(
                f"spec version {version!r} not in "
                f"({_SINGLE_SHARD_VERSION}, {SPEC_VERSION})"
            )
        replicas = [_address(a) for a in raw["replicas"]]
        proxies = [_address(a) for a in raw["proxies"]]
        manager = _address(raw["manager"])
        if version == SPEC_VERSION:
            managers = [manager] + [
                _address(a) for a in raw.get("extra_managers", [])
            ]
            shards = _resolve_shard_map(
                raw.get("shards", []), replicas, proxies, managers
            )
        elif "shards" in raw or "extra_managers" in raw:
            raise ConfigurationError(
                "version 1 spec cannot carry a shard map; bump to "
                f"version {SPEC_VERSION}"
            )
        else:
            shards = [
                Shard(
                    name=_SINGLE_SHARD_NAME,
                    replicas=tuple(replicas),
                    proxies=tuple(proxies),
                    manager=manager,
                    write_quorum=int(raw["initial_write_quorum"]),
                    replication_degree=int(raw["replication_degree"]),
                )
            ]
        return ClusterSpec(
            shards=tuple(shards),
            seed=int(raw["seed"]),
            data_dir=raw.get("data_dir"),
            storage=StorageConfig(**raw["storage"]),
            proxy=ProxyConfig(**raw["proxy"]),
            client=ClientConfig(**raw["client"]),
        ).validate()

    @staticmethod
    def load(path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return ClusterSpec.from_json(handle.read())


def _address(data: dict) -> NodeAddress:
    return NodeAddress(
        name=data["name"],
        host=data["host"],
        port=int(data["port"]),
        http_port=int(data["http_port"]),
    )


def _resolve_shard_map(
    entries: Sequence[object],
    replicas: Sequence[NodeAddress],
    proxies: Sequence[NodeAddress],
    managers: Sequence[NodeAddress],
) -> List[Shard]:
    """Resolve a version-2 shard map of node names into shards.

    The map is outside input, so every way it can be wrong gets a named
    error: each name must resolve against its address list, and every
    listed node must land in exactly one shard.
    """
    pools = {
        "replica": {a.name: a for a in replicas},
        "proxy": {a.name: a for a in proxies},
        "manager": {a.name: a for a in managers},
    }
    owners: Dict[str, Dict[str, str]] = {kind: {} for kind in pools}

    def take(kind: str, node: str, shard: str) -> NodeAddress:
        if node not in pools[kind]:
            raise ConfigurationError(
                f"shard {shard!r} references unknown {kind} {node!r}"
            )
        owner = owners[kind]
        if node in owner:
            raise ConfigurationError(
                f"{kind} {node!r} assigned to both {owner[node]!r} "
                f"and {shard!r}"
            )
        owner[node] = shard
        return pools[kind][node]

    shards: List[Shard] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigurationError(f"malformed shard entry: {entry!r}")
        missing = [
            key
            for key in (
                "name", "replicas", "proxies", "manager",
                "write_quorum", "replication_degree",
            )
            if key not in entry
        ]
        if missing:
            raise ConfigurationError(
                f"shard entry missing keys {missing}: {entry!r}"
            )
        name = str(entry["name"])
        shards.append(
            Shard(
                name=name,
                replicas=tuple(
                    take("replica", str(n), name) for n in entry["replicas"]
                ),
                proxies=tuple(
                    take("proxy", str(n), name) for n in entry["proxies"]
                ),
                manager=take("manager", str(entry["manager"]), name),
                write_quorum=int(entry["write_quorum"]),
                replication_degree=int(entry["replication_degree"]),
            )
        )
    if not shards:
        raise ConfigurationError(
            f"version {SPEC_VERSION} spec must carry a non-empty "
            "shard map (use version 1 for single-shard specs)"
        )
    for kind, plural in (
        ("replica", "replicas"), ("proxy", "proxies"), ("manager", "managers")
    ):
        left_out = sorted(set(pools[kind]) - set(owners[kind]))
        if left_out:
            raise ConfigurationError(
                f"{plural} not in any shard: {left_out}"
            )
    return shards


# -- live profiles -----------------------------------------------------------


def live_storage_config() -> StorageConfig:
    """Storage knobs for real hardware.

    Modelled service times and bandwidth throttles go to ~zero — the
    process now pays real syscall and scheduling costs instead.  The
    anti-entropy replicator stays on at a relaxed cadence.
    """
    return StorageConfig(
        read_service_time=0.0,
        write_service_time=0.0,
        read_bandwidth=1e12,
        write_bandwidth=1e12,
        read_miss_ratio=0.0,
        read_miss_penalty=0.0,
        concurrency=64,
        replication_interval=5.0,
    )


def live_proxy_config() -> ProxyConfig:
    """Proxy knobs for real hardware: wall-clock-scaled deadlines."""
    return ProxyConfig(
        per_replica_cpu=0.0,
        concurrency=64,
        fallback_timeout=0.25,
        gather_deadline=2.0,
        max_gather_attempts=3,
    )


def live_client_config() -> ClientConfig:
    """Client retry/deadline policy for real round trips."""
    return ClientConfig(
        attempt_timeout=8.0,
        max_attempts=4,
        backoff_base=0.05,
        backoff_cap=1.0,
        backoff_jitter=0.5,
    )


def build_spec(
    replicas: int = 5,
    proxies: int = 1,
    write_quorum: int = 3,
    replication_degree: Optional[int] = None,
    host: str = "127.0.0.1",
    base_port: int = 0,
    seed: int = 0,
    data_dir: Optional[str] = None,
    shards: int = 1,
    shard_write_quorums: Optional[Sequence[int]] = None,
    lease_duration: float = 0.0,
) -> ClusterSpec:
    """Construct a spec for a local cluster or sharded fleet.

    ``base_port=0`` leaves every port 0 — the cluster runner then binds
    ephemeral ports and rewrites the spec before spawning workers.

    With ``shards > 1``, ``replicas``/``proxies``/``write_quorum`` are
    *per shard*: the fleet gets ``shards * replicas`` storage nodes,
    ``shards * proxies`` proxies and one reconfiguration manager per
    shard.  ``shard_write_quorums`` overrides the initial W per shard
    (e.g. ``[4, 2]`` arms the concurrent-reconfiguration benchmark with
    one shard about to shrink W and another about to grow it).
    ``shards=1`` (the default) is the single-ring cluster, written to
    JSON as a version-1 spec.

    ``lease_duration > 0`` enables per-object read leases (invariant
    I7) cluster-wide: every proxy spawned from the spec applies the
    mandatory-primary write rule and may serve lease reads.  The flag
    lives in the spec — not per process — because a fleet with mixed
    write rules would be unsound.
    """
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if shard_write_quorums is not None and len(shard_write_quorums) != shards:
        raise ConfigurationError(
            f"need one write quorum per shard: got "
            f"{len(shard_write_quorums)} for {shards} shards"
        )
    quorums = list(shard_write_quorums or [write_quorum] * shards)

    offsets = iter(range(10_000))

    def address(node_id: NodeId) -> NodeAddress:
        offset = next(offsets)
        port, http_port = (
            (base_port + 2 * offset, base_port + 2 * offset + 1)
            if base_port
            else (0, 0)
        )
        return NodeAddress(
            name=str(node_id), host=host, port=port, http_port=http_port
        )

    # Ports are numbered in all_addresses() order: every replica, then
    # every proxy, then every manager.
    storage = [address(NodeId.storage(i)) for i in range(shards * replicas)]
    proxy = [address(NodeId.proxy(i)) for i in range(shards * proxies)]
    managers = [
        address(NodeId(NodeKind.RECONFIG_MANAGER.value, i))
        for i in range(shards)
    ]
    degree = replication_degree if replication_degree is not None else replicas
    proxy_config = live_proxy_config()
    if lease_duration > 0:
        proxy_config = replace(proxy_config, lease_duration=lease_duration)
    return ClusterSpec(
        shards=tuple(
            Shard(
                name=f"shard-{index}",
                replicas=tuple(
                    storage[index * replicas:(index + 1) * replicas]
                ),
                proxies=tuple(proxy[index * proxies:(index + 1) * proxies]),
                manager=managers[index],
                write_quorum=quorums[index],
                replication_degree=degree,
            )
            for index in range(shards)
        ),
        proxy=proxy_config,
        seed=seed,
        data_dir=data_dir,
    ).validate()


__all__ = [
    "SPEC_VERSION",
    "NodeAddress",
    "Shard",
    "ClusterSpec",
    "parse_node_name",
    "build_spec",
    "live_storage_config",
    "live_proxy_config",
    "live_client_config",
]
