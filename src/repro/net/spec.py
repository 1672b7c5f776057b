"""Cluster specification shared by every live-runtime process.

``python -m repro cluster`` allocates ports, writes the spec as JSON and
spawns one ``python -m repro serve`` process per node; ``serve``,
``loadgen`` and the examples all reconstruct the same topology from that
file.  The spec is also the place where the live profile lives: the sim
service-time model priced in *simulated* seconds what the live runtime
now pays in real CPU, syscalls and wire time, so the live configs zero
out the modelled service times and keep only the protocol-level knobs
(deadlines, retry budgets, anti-entropy cadence).

**Sharding** (spec version 2): the fleet's keyspace can be partitioned
into independent shards, each with its own replica set, proxy set,
reconfiguration manager, placement ring and initial quorum.  A version-1
spec (no shard map) is still parsed — and serialized — byte-identically:
it denotes the degenerate single-shard fleet, so every pre-shard
consumer keeps working unchanged.
"""

from __future__ import annotations

import json
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

#: The version emitted for specs without a shard map (backward compat:
#: pre-shard specs must round-trip byte-identically).
_SINGLE_SHARD_VERSION = 1


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
class ShardSpec:
    """One shard of the fleet: node names plus quorum parameters.

    Node *names* (not addresses) keep the shard map readable and make
    malformed maps checkable: every name must resolve against the spec's
    address lists, exactly once across all shards.
    """

    name: str
    replicas: Tuple[str, ...]
    proxies: Tuple[str, ...]
    manager: str
    write_quorum: int
    replication_degree: int

    def initial_quorum(self) -> QuorumConfig:
        return QuorumConfig.from_write(
            self.write_quorum, self.replication_degree
        )


@dataclass(frozen=True)
class ShardView:
    """A shard's resolved topology: addresses, ring, initial plan."""

    index: int
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


@dataclass
class ClusterSpec:
    """Topology + tuning of one live fleet, as shipped between processes."""

    replicas: List[NodeAddress]
    proxies: List[NodeAddress]
    manager: NodeAddress
    replication_degree: int = 5
    initial_write_quorum: int = 3
    seed: int = 0
    #: Root of per-replica durable state (``<data_dir>/<node-name>/``).
    #: ``None`` keeps replicas on the in-memory backend — the default, so
    #: existing smoke/bench flows are untouched; the chaos harness sets
    #: it to give every storage node a crash-recoverable WAL.
    data_dir: Optional[str] = None
    version: int = SPEC_VERSION
    storage: StorageConfig = field(default_factory=lambda: live_storage_config())
    proxy: ProxyConfig = field(default_factory=lambda: live_proxy_config())
    client: ClientConfig = field(default_factory=lambda: live_client_config())
    #: Reconfiguration managers of shards 1..S-1 (:attr:`manager` is
    #: shard 0's).  Empty for single-shard specs.
    extra_managers: List[NodeAddress] = field(default_factory=list)
    #: The shard map.  Empty = one implicit shard spanning everything,
    #: which is exactly the pre-shard (version 1) topology.
    shards: List[ShardSpec] = field(default_factory=list)

    # -- derived topology ----------------------------------------------------

    def validate(self) -> "ClusterSpec":
        if not self.replicas:
            raise ConfigurationError("spec needs at least one replica")
        if not self.proxies:
            raise ConfigurationError("spec needs at least one proxy")
        if self.replication_degree > len(self.replicas) and not self.shards:
            raise ConfigurationError(
                f"replication degree {self.replication_degree} exceeds "
                f"replica count {len(self.replicas)}"
            )
        if not self.shards:
            if self.extra_managers:
                raise ConfigurationError(
                    "extra managers require a shard map: a single-shard "
                    "spec has exactly one reconfiguration manager"
                )
            self.initial_quorum()  # raises unless 1 <= W <= N
        else:
            self._validate_shard_map()
        self.storage.validate()
        self.proxy.validate()
        self.client.validate()
        return self

    def _validate_shard_map(self) -> None:
        """Explicit, named errors for every way a shard map can be wrong."""
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate shard names in shard map: {sorted(names)}"
            )
        if any(not name for name in names):
            raise ConfigurationError("shard names must be non-empty")
        replica_names = {address.name for address in self.replicas}
        proxy_names = {address.name for address in self.proxies}
        manager_names = {
            address.name for address in self.all_managers()
        }
        assigned_replicas: Dict[str, str] = {}
        assigned_proxies: Dict[str, str] = {}
        assigned_managers: Dict[str, str] = {}
        for shard in self.shards:
            if not shard.replicas:
                raise ConfigurationError(
                    f"shard {shard.name!r} has no replicas"
                )
            if not shard.proxies:
                raise ConfigurationError(
                    f"shard {shard.name!r} has no proxies"
                )
            for node in shard.replicas:
                if node not in replica_names:
                    raise ConfigurationError(
                        f"shard {shard.name!r} references unknown replica "
                        f"{node!r}"
                    )
                if node in assigned_replicas:
                    raise ConfigurationError(
                        f"replica {node!r} assigned to both "
                        f"{assigned_replicas[node]!r} and {shard.name!r}"
                    )
                assigned_replicas[node] = shard.name
            for node in shard.proxies:
                if node not in proxy_names:
                    raise ConfigurationError(
                        f"shard {shard.name!r} references unknown proxy "
                        f"{node!r}"
                    )
                if node in assigned_proxies:
                    raise ConfigurationError(
                        f"proxy {node!r} assigned to both "
                        f"{assigned_proxies[node]!r} and {shard.name!r}"
                    )
                assigned_proxies[node] = shard.name
            if shard.manager not in manager_names:
                raise ConfigurationError(
                    f"shard {shard.name!r} references unknown manager "
                    f"{shard.manager!r}"
                )
            if shard.manager in assigned_managers:
                raise ConfigurationError(
                    f"manager {shard.manager!r} assigned to both "
                    f"{assigned_managers[shard.manager]!r} and "
                    f"{shard.name!r}"
                )
            assigned_managers[shard.manager] = shard.name
            if shard.replication_degree > len(shard.replicas):
                raise ConfigurationError(
                    f"shard {shard.name!r}: replication degree "
                    f"{shard.replication_degree} exceeds its "
                    f"{len(shard.replicas)} replicas"
                )
            shard.initial_quorum()  # raises unless 1 <= W <= N
        unassigned_replicas = sorted(replica_names - set(assigned_replicas))
        if unassigned_replicas:
            raise ConfigurationError(
                f"replicas not in any shard: {unassigned_replicas}"
            )
        unassigned_proxies = sorted(proxy_names - set(assigned_proxies))
        if unassigned_proxies:
            raise ConfigurationError(
                f"proxies not in any shard: {unassigned_proxies}"
            )
        unassigned_managers = sorted(manager_names - set(assigned_managers))
        if unassigned_managers:
            raise ConfigurationError(
                f"managers not in any shard: {unassigned_managers}"
            )

    def initial_quorum(self) -> QuorumConfig:
        return QuorumConfig.from_write(
            self.initial_write_quorum, self.replication_degree
        )

    def proxy_ids(self) -> List[NodeId]:
        return [address.node_id for address in self.proxies]

    # -- shard topology -------------------------------------------------------

    def is_sharded(self) -> bool:
        return bool(self.shards)

    def shard_views(self) -> List[ShardView]:
        """Resolved shard topologies; a single implicit shard when the
        spec predates (or does not use) the shard map."""
        if not self.shards:
            return [
                ShardView(
                    index=0,
                    name="shard-0",
                    replicas=tuple(self.replicas),
                    proxies=tuple(self.proxies),
                    manager=self.manager,
                    write_quorum=self.initial_write_quorum,
                    replication_degree=self.replication_degree,
                )
            ]
        by_name = {
            address.name: address for address in self.all_addresses()
        }
        return [
            ShardView(
                index=index,
                name=shard.name,
                replicas=tuple(by_name[n] for n in shard.replicas),
                proxies=tuple(by_name[n] for n in shard.proxies),
                manager=by_name[shard.manager],
                write_quorum=shard.write_quorum,
                replication_degree=shard.replication_degree,
            )
            for index, shard in enumerate(self.shards)
        ]

    def shard_for(self, node_name: str) -> ShardView:
        """The shard hosting ``node_name`` (every node is in exactly one)."""
        for view in self.shard_views():
            members = (
                {a.name for a in view.replicas}
                | {a.name for a in view.proxies}
                | {view.manager.name}
            )
            if node_name in members:
                return view
        raise ConfigurationError(f"node {node_name!r} not in any shard")

    def shard_map(self) -> ShardMap:
        """The key→shard partition every process agrees on."""
        return ShardMap([view.name for view in self.shard_views()])

    def all_managers(self) -> List[NodeAddress]:
        return [self.manager] + list(self.extra_managers)

    def all_addresses(self) -> List[NodeAddress]:
        return (
            list(self.replicas) + list(self.proxies) + self.all_managers()
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

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> str:
        def addr(address: NodeAddress) -> dict:
            return {
                "name": address.name,
                "host": address.host,
                "port": address.port,
                "http_port": address.http_port,
            }

        payload: Dict[str, object] = {
            "version": (
                _SINGLE_SHARD_VERSION if not self.shards else SPEC_VERSION
            ),
            "replication_degree": self.replication_degree,
            "initial_write_quorum": self.initial_write_quorum,
            "seed": self.seed,
            "data_dir": self.data_dir,
            "replicas": [addr(a) for a in self.replicas],
            "proxies": [addr(a) for a in self.proxies],
            "manager": addr(self.manager),
            "storage": vars(self.storage),
            "proxy": vars(self.proxy),
            "client": vars(self.client),
        }
        if self.shards:
            payload["extra_managers"] = [
                addr(a) for a in self.extra_managers
            ]
            payload["shards"] = [
                {
                    "name": shard.name,
                    "replicas": list(shard.replicas),
                    "proxies": list(shard.proxies),
                    "manager": shard.manager,
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

        def addr(data: dict) -> NodeAddress:
            return NodeAddress(
                name=data["name"],
                host=data["host"],
                port=int(data["port"]),
                http_port=int(data["http_port"]),
            )

        extra_managers: List[NodeAddress] = []
        shards: List[ShardSpec] = []
        if version == SPEC_VERSION:
            extra_managers = [
                addr(a) for a in raw.get("extra_managers", [])
            ]
            for entry in raw.get("shards", []):
                if not isinstance(entry, dict):
                    raise ConfigurationError(
                        f"malformed shard entry: {entry!r}"
                    )
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
                shards.append(
                    ShardSpec(
                        name=str(entry["name"]),
                        replicas=tuple(str(n) for n in entry["replicas"]),
                        proxies=tuple(str(n) for n in entry["proxies"]),
                        manager=str(entry["manager"]),
                        write_quorum=int(entry["write_quorum"]),
                        replication_degree=int(entry["replication_degree"]),
                    )
                )
            if not shards:
                raise ConfigurationError(
                    f"version {SPEC_VERSION} spec must carry a non-empty "
                    "shard map (use version 1 for single-shard specs)"
                )
        elif "shards" in raw or "extra_managers" in raw:
            raise ConfigurationError(
                "version 1 spec cannot carry a shard map; bump to "
                f"version {SPEC_VERSION}"
            )

        return ClusterSpec(
            replicas=[addr(a) for a in raw["replicas"]],
            proxies=[addr(a) for a in raw["proxies"]],
            manager=addr(raw["manager"]),
            replication_degree=int(raw["replication_degree"]),
            initial_write_quorum=int(raw["initial_write_quorum"]),
            seed=int(raw["seed"]),
            data_dir=raw.get("data_dir"),
            storage=StorageConfig(**raw["storage"]),
            proxy=ProxyConfig(**raw["proxy"]),
            client=ClientConfig(**raw["client"]),
            extra_managers=extra_managers,
            shards=shards,
        ).validate()

    @staticmethod
    def load(path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return ClusterSpec.from_json(handle.read())


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
    ``shards=1`` (the default) emits the pre-shard version-1 spec,
    byte-for-byte.

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

    offsets = iter(range(10_000))

    def ports() -> Tuple[int, int]:
        offset = next(offsets)
        if base_port == 0:
            return (0, 0)
        return (base_port + 2 * offset, base_port + 2 * offset + 1)

    def address(name: str) -> NodeAddress:
        port, http_port = ports()
        return NodeAddress(
            name=name, host=host, port=port, http_port=http_port
        )

    degree = replication_degree if replication_degree is not None else replicas
    replica_addresses = [
        address(str(NodeId.storage(index)))
        for index in range(shards * replicas)
    ]
    proxy_addresses = [
        address(str(NodeId.proxy(index)))
        for index in range(shards * proxies)
    ]
    manager_addresses = [
        address(str(NodeId(NodeKind.RECONFIG_MANAGER.value, index)))
        for index in range(shards)
    ]
    shard_specs: List[ShardSpec] = []
    if shards > 1:
        for index in range(shards):
            shard_specs.append(
                ShardSpec(
                    name=f"shard-{index}",
                    replicas=tuple(
                        a.name
                        for a in replica_addresses[
                            index * replicas:(index + 1) * replicas
                        ]
                    ),
                    proxies=tuple(
                        a.name
                        for a in proxy_addresses[
                            index * proxies:(index + 1) * proxies
                        ]
                    ),
                    manager=manager_addresses[index].name,
                    write_quorum=(
                        shard_write_quorums[index]
                        if shard_write_quorums is not None
                        else write_quorum
                    ),
                    replication_degree=degree,
                )
            )
    proxy_config = live_proxy_config()
    if lease_duration > 0:
        proxy_config = replace(proxy_config, lease_duration=lease_duration)
    return ClusterSpec(
        replicas=replica_addresses,
        proxies=proxy_addresses,
        proxy=proxy_config,
        manager=manager_addresses[0],
        replication_degree=degree,
        initial_write_quorum=(
            shard_write_quorums[0]
            if shards > 1 and shard_write_quorums is not None
            else write_quorum
        ),
        seed=seed,
        data_dir=data_dir,
        extra_managers=manager_addresses[1:],
        shards=shard_specs,
    ).validate()


__all__ = [
    "SPEC_VERSION",
    "NodeAddress",
    "ShardSpec",
    "ShardView",
    "ClusterSpec",
    "parse_node_name",
    "build_spec",
    "live_storage_config",
    "live_proxy_config",
    "live_client_config",
]
