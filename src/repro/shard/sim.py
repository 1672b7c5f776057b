"""A sharded simulated deployment: S independent rings, one kernel.

:class:`ShardedSimCluster` is the sim-level analogue of the live sharded
fleet: one :class:`~repro.sim.kernel.Simulator` and one
:class:`~repro.sim.network.Network` host S complete Q-OPT instances —
each shard owns its replicas, proxies, :class:`PlacementRing`, epoch,
Reconfiguration Manager and (optionally) its own Autonomic Manager and
Oracle — while clients roam the whole keyspace through a
:class:`~repro.shard.router.ShardRouter`.

Sharing the kernel and network is deliberate: it lets the nemesis
schedule a partition or crash *confined to one shard* and then prove the
other shards' histories never stall or reorder — the cross-shard
independence property the tests pin.  The duck-typed surface Nemesis
expects (``sim``/``network``/``crashes``/``detector``/``events``) is the
same one :class:`~repro.sds.cluster.SwiftCluster` exposes.

Node-id namespacing: shard ``s`` uses storage/proxy indices
``s * SHARD_INDEX_STRIDE + i``, and its control-plane singletons
(RM/AM/Oracle) take index ``s`` — so every node id in the fleet is
unique on the shared network while ``parse`` stays trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.autonomic.manager import AutonomicManager
from repro.common.config import AutonomicConfig, ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import substream
from repro.common.types import NodeId, NodeKind, QuorumConfig
from repro.metrics.collector import OperationLog
from repro.metrics.timeline import EventTimeline
from repro.obs.context import Observability
from repro.oracle.service import OracleNode, QuorumOracle
from repro.reconfig.manager import ReconfigurationManager
from repro.sds.client import ClientNode, OperationRecord, OperationSource
from repro.sds.proxy import ProxyNode
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.sds.ring import PlacementRing
from repro.sds.storage import StorageNode
from repro.sds.vector_clocks import make_versioning
from repro.shard.map import ShardMap
from repro.shard.router import ShardRouter
from repro.sim.failure import CrashManager, FailureDetector
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.topk.stats import ProxyStatsRecorder

#: Storage/proxy index offset between consecutive shards.  Bounds a
#: shard's size, which no sim test approaches.
SHARD_INDEX_STRIDE = 100


@dataclass
class SimShard:
    """One shard's protocol objects inside a :class:`ShardedSimCluster`."""

    index: int
    name: str
    ring: PlacementRing
    storage_nodes: List[StorageNode]
    proxies: List[ProxyNode]
    manager: ReconfigurationManager
    #: The shard's initial write quorum (its AM starts tuning from here).
    write_quorum: int = 3
    autonomic: Optional[AutonomicManager] = None
    oracle_node: Optional[OracleNode] = None

    def node_ids(self) -> List[NodeId]:
        """Every node id belonging to this shard (its failure domain)."""
        ids = [node.node_id for node in self.storage_nodes]
        ids.extend(proxy.node_id for proxy in self.proxies)
        ids.append(self.manager.node_id)
        if self.autonomic is not None:
            ids.append(self.autonomic.node_id)
        if self.oracle_node is not None:
            ids.append(self.oracle_node.node_id)
        return ids


class ShardedSimCluster:
    """S independent quorum rings sharing one simulated network."""

    def __init__(
        self,
        shards: int = 2,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        detection_delay: float = 0.5,
        write_quorums: Optional[Sequence[int]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        self.config = (config or ClusterConfig()).validate()
        if write_quorums is not None and len(write_quorums) != shards:
            raise ConfigurationError(
                f"need one write quorum per shard: got "
                f"{len(write_quorums)} for {shards} shards"
            )
        self.seed = seed
        self.obs = obs
        self.sim = Simulator()
        if obs is not None:
            obs.bind_clock(lambda: self.sim.now)
        self.network = Network(
            self.sim, self.config.network, rng=substream(seed, "network")
        )
        if obs is not None:
            self.network.bind_observability(obs)
        self.crashes = CrashManager(self.sim, self.network)
        self.detector = FailureDetector(
            self.sim, self.crashes, detection_delay=detection_delay
        )
        self.log = OperationLog()
        self.events = EventTimeline()
        if obs is not None:
            self.events.bind_observability(obs)

        self.shard_map = ShardMap([f"shard-{s}" for s in range(shards)])
        self.shards: List[SimShard] = []
        self._nodes_by_id: dict[NodeId, object] = {}
        for index in range(shards):
            write = (
                write_quorums[index]
                if write_quorums is not None
                else self.config.initial_quorum.write
            )
            self.shards.append(self._build_shard(index, write))
        self.router = ShardRouter(
            self.shard_map,
            {
                shard.name: [proxy.node_id for proxy in shard.proxies]
                for shard in self.shards
            },
        )
        self.clients: List[ClientNode] = []
        self.crashes.on_crash(self._on_crash)

    def _build_shard(self, index: int, write_quorum: int) -> SimShard:
        config = self.config
        degree = config.replication_degree
        plan = QuorumSystem(degree).require_strict_plan(
            QuorumPlan.uniform(QuorumConfig.from_write(write_quorum, degree))
        )
        base = index * SHARD_INDEX_STRIDE
        storage_ids = [
            NodeId.storage(base + i)
            for i in range(config.num_storage_nodes)
        ]
        ring = PlacementRing(storage_ids, replication_degree=degree)
        storage_nodes = [
            StorageNode(
                self.sim,
                self.network,
                node_id,
                config=config.storage,
                initial_plan=plan,
                rng=substream(self.seed, "storage", node_id.index),
                ring=ring,
                obs=self.obs,
            )
            for node_id in storage_ids
        ]
        proxies = [
            ProxyNode(
                self.sim,
                self.network,
                NodeId.proxy(base + i),
                ring=ring,
                config=config.proxy,
                initial_plan=plan,
                rng=substream(self.seed, "proxy", base + i),
                stats=ProxyStatsRecorder(top_k=8, summary_capacity=256),
                versioning=make_versioning(config.versioning),
                events=self.events,
                obs=self.obs,
            )
            for i in range(config.num_proxies)
        ]
        manager = ReconfigurationManager(
            self.sim,
            self.network,
            proxies=[proxy.node_id for proxy in proxies],
            storage_nodes=storage_ids,
            detector=self.detector,
            initial_plan=plan,
            replication_degree=degree,
            node_id=NodeId(NodeKind.RECONFIG_MANAGER.value, index),
            obs=self.obs,
        )
        shard = SimShard(
            index=index,
            name=f"shard-{index}",
            ring=ring,
            storage_nodes=storage_nodes,
            proxies=proxies,
            manager=manager,
            write_quorum=write_quorum,
        )
        for node in [*storage_nodes, *proxies, manager]:
            node.start()
            self._nodes_by_id[node.node_id] = node
        return shard

    # -- per-shard autonomic tuning -------------------------------------------

    def attach_autonomic(
        self,
        shard: int,
        oracle: QuorumOracle,
        autonomic_config: Optional[AutonomicConfig] = None,
        start: bool = True,
    ) -> AutonomicManager:
        """Give one shard its own Q-OPT tuning loop (AM + Oracle pair).

        Each shard tunes independently — the heterogeneous-workload
        case: a write-heavy shard converges to a large W while a
        read-heavy neighbour shrinks W, with no coordination between
        the loops.
        """
        target = self.shards[shard]
        if target.autonomic is not None:
            raise ConfigurationError(
                f"{target.name} already has an autonomic manager"
            )
        config = autonomic_config or AutonomicConfig()
        config.validate(self.config.replication_degree)
        oracle_node = OracleNode(
            self.sim,
            self.network,
            oracle,
            node_id=NodeId(NodeKind.ORACLE.value, shard),
        )
        oracle_node.start()
        self._nodes_by_id[oracle_node.node_id] = oracle_node
        manager = AutonomicManager(
            self.sim,
            self.network,
            proxies=[proxy.node_id for proxy in target.proxies],
            reconfig_manager=target.manager.node_id,
            oracle=oracle_node.node_id,
            detector=self.detector,
            config=config,
            initial_default=QuorumConfig.from_write(
                target.write_quorum, self.config.replication_degree
            ),
            obs=self.obs,
            node_id=NodeId(NodeKind.AUTONOMIC_MANAGER.value, shard),
        )
        self._nodes_by_id[manager.node_id] = manager
        if start:
            manager.start()
        target.autonomic = manager
        target.oracle_node = oracle_node
        return manager

    # -- clients ---------------------------------------------------------------

    def add_clients(
        self,
        workload: OperationSource | Callable[[int], OperationSource],
        clients: int,
        think_time: float = 0.0,
        recorder: Optional[Callable[[OperationRecord], None]] = None,
        pipeline_depth: int = 1,
        injection_rate: float = 0.0,
    ) -> List[ClientNode]:
        """Attach clients that route every operation key→shard→proxy."""
        created: List[ClientNode] = []
        base_index = len(self.clients)
        fallback = self.shards[0].proxies[0].node_id
        for slot in range(clients):
            client_index = base_index + slot
            source = (
                workload(client_index) if callable(workload) else workload
            )
            client = ClientNode(
                self.sim,
                self.network,
                NodeId.client(client_index),
                proxy_id=fallback,
                workload=source,
                rng=substream(self.seed, "client", client_index),
                log=self.log,
                think_time=think_time,
                recorder=recorder,
                policy=self.config.client,
                events=self.events,
                obs=self.obs,
                pipeline_depth=pipeline_depth,
                injection_rate=injection_rate,
                router=self.router,
            )
            client.start()
            self.clients.append(client)
            self._nodes_by_id[client.node_id] = client
            created.append(client)
        return created

    # -- failure plumbing ------------------------------------------------------

    def _on_crash(self, node_id: NodeId) -> None:
        node = self._nodes_by_id.get(node_id)
        if node is not None:
            node.crash()

    # -- running ---------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the whole fleet by ``duration`` simulated seconds."""
        if duration < 0:
            raise ConfigurationError("duration must be >= 0")
        self.sim.run(until=self.sim.now + duration)

    # -- history partitioning --------------------------------------------------

    def partition_records(
        self, records: Sequence[OperationRecord]
    ) -> Dict[str, List[OperationRecord]]:
        """Group a record history by owning shard (every shard listed)."""
        groups: Dict[str, List[OperationRecord]] = {
            shard.name: [] for shard in self.shards
        }
        for record in records:
            groups[self.shard_map.shard_of(record.object_id)].append(record)
        return groups

    def shard_named(self, name: str) -> SimShard:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise ConfigurationError(f"no shard named {name!r}")


__all__ = ["ShardedSimCluster", "SimShard", "SHARD_INDEX_STRIDE"]
