"""Cluster assembly: wire storage nodes, proxies and clients together.

:class:`SwiftCluster` builds the full simulated test-bed of Section 2.2
from a :class:`~repro.common.config.ClusterConfig`: the network, the
placement ring, storage and proxy nodes, crash management, and (on
demand) closed-loop clients driving a workload.  The Q-OPT control plane
(Reconfiguration Manager, Autonomic Manager, Oracle) attaches on top via
the ``repro.reconfig`` and ``repro.autonomic`` packages, each node
joining through :meth:`SimWorld.add_node`.

This module is the only place the simulator builds a deployment.
:class:`SimWorld` is what every node of one simulation shares;
:class:`SwiftCluster` is one ring on a world.  The sharded fleet
(:class:`~repro.shard.sim.ShardedSimCluster`) is one world carrying
several rings, each a :class:`SwiftCluster` built on the fleet's world.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import substream
from repro.common.types import NodeId, ObjectId, Version
from repro.metrics.collector import OperationLog
from repro.metrics.timeline import EventTimeline
from repro.obs.context import Observability
from repro.sds.client import (
    ClientNode,
    OperationRecord,
    OperationSource,
    ProxySelector,
)
from repro.sds.proxy import ProxyNode
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.sds.ring import PlacementRing
from repro.sds.storage import StorageNode
from repro.sds.vector_clocks import make_versioning
from repro.sim.failure import CrashManager, FailureDetector
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.topk.stats import ProxyStatsRecorder

#: A shared operation source, or a factory called with the client index.
Workload = Union[OperationSource, Callable[[int], OperationSource]]


class SimWorld:
    """What every node of one simulation shares.

    One kernel, one network, crash injection with its ◇P detector, the
    operation log, the audit timeline, the clients, and the node
    registry that turns an injected crash into the node's fail-stop.
    """

    def __init__(
        self,
        config: ClusterConfig,
        seed: int,
        obs: Optional[Observability],
    ) -> None:
        self.config = config
        self.seed = seed
        #: Optional observability bundle: when given, every tier is
        #: instrumented and the tracer follows the simulated clock.
        self.obs = obs
        self.sim = Simulator()
        if obs is not None:
            obs.bind_clock(lambda: self.sim.now)
        self.network = Network(
            self.sim, config.network, rng=substream(seed, "network")
        )
        if obs is not None:
            self.network.bind_observability(obs)
        self.crashes = CrashManager(self.sim, self.network)
        self.detector = FailureDetector(self.sim, self.crashes)
        self.log = OperationLog()
        #: Shared audit log: nemesis faults, proxy/client degradation events.
        self.events = EventTimeline()
        if obs is not None:
            # Bridge timeline records (nemesis faults in particular) into
            # the trace as annotations.
            self.events.bind_observability(obs)
        self.clients: list[ClientNode] = []
        self._nodes_by_id: dict[NodeId, Node] = {}
        # Fail-stop: when the crash manager kills a node, stop its
        # processes too, so crashed nodes truly go silent.
        self.crashes.on_crash(self._on_crash)

    def add_node(self, node: Node) -> None:
        """Join ``node`` to the world: start it and route an injected
        crash of its id to its fail-stop."""
        node.start()
        self._nodes_by_id[node.node_id] = node

    def _add_client(
        self,
        workload: Workload,
        proxy_id: NodeId,
        think_time: float,
        recorder: Optional[Callable[[OperationRecord], None]],
        pipeline_depth: int,
        injection_rate: float,
        router: Optional[ProxySelector] = None,
    ) -> ClientNode:
        index = len(self.clients)
        client = ClientNode(
            self.sim,
            self.network,
            NodeId.client(index),
            proxy_id=proxy_id,
            workload=workload(index) if callable(workload) else workload,
            rng=substream(self.seed, "client", index),
            log=self.log,
            think_time=think_time,
            recorder=recorder,
            policy=self.config.client,
            events=self.events,
            obs=self.obs,
            pipeline_depth=pipeline_depth,
            injection_rate=injection_rate,
            router=router,
        )
        self.add_node(client)
        self.clients.append(client)
        return client

    def _on_crash(self, node_id: NodeId) -> None:
        node = self._nodes_by_id.get(node_id)
        if node is not None:
            node.crash()

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError("duration must be >= 0")
        self.sim.run(until=self.sim.now + duration)


class SwiftCluster(SimWorld):
    """A fully wired simulated SDS deployment: one ring on its world."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__((config or ClusterConfig()).validate(), seed, obs)
        self._build_ring(index=0, first_node=0)

    @classmethod
    def _on_world(
        cls,
        world: SimWorld,
        config: ClusterConfig,
        index: int,
        first_node: int,
    ) -> "SwiftCluster":
        """Ring ``index`` of a multi-ring world (a shard).

        The ring aliases every handle of ``world`` — kernel, network,
        failures, logs, clients and node registry — so ``world`` must
        hold nothing but its :class:`SimWorld` state yet.  Its storage
        and proxy indices start at ``first_node``.
        """
        ring = cls.__new__(cls)
        vars(ring).update(vars(world))
        ring.config = config
        ring._build_ring(index, first_node)
        return ring

    def _build_ring(self, index: int, first_node: int) -> None:
        config = self.config
        #: This ring's position in its world; its control-plane
        #: singletons (RM, AM, Oracle) take it as their index.
        self.index = index
        self.initial_plan = QuorumSystem(
            config.replication_degree
        ).require_strict_plan(QuorumPlan.uniform(config.initial_quorum))
        storage_ids = [
            NodeId.storage(first_node + offset)
            for offset in range(config.num_storage_nodes)
        ]
        self.ring = PlacementRing(
            storage_ids, replication_degree=config.replication_degree
        )
        self.storage_nodes: list[StorageNode] = [
            StorageNode(
                self.sim,
                self.network,
                node_id,
                config=config.storage,
                initial_plan=self.initial_plan,
                rng=substream(self.seed, "storage", node_id.index),
                ring=self.ring,
                obs=self.obs,
            )
            for node_id in storage_ids
        ]
        self.proxies: list[ProxyNode] = [
            ProxyNode(
                self.sim,
                self.network,
                NodeId.proxy(first_node + offset),
                ring=self.ring,
                config=config.proxy,
                initial_plan=self.initial_plan,
                rng=substream(self.seed, "proxy", first_node + offset),
                stats=ProxyStatsRecorder(top_k=8, summary_capacity=256),
                versioning=make_versioning(config.versioning),
                events=self.events,
                obs=self.obs,
            )
            for offset in range(config.num_proxies)
        ]
        for node in [*self.storage_nodes, *self.proxies]:
            self.add_node(node)

    # -- client management ----------------------------------------------------

    def add_clients(
        self,
        workload: Workload,
        clients_per_proxy: Optional[int] = None,
        think_time: float = 0.0,
        recorder: Optional[Callable[[OperationRecord], None]] = None,
        pipeline_depth: int = 1,
        injection_rate: float = 0.0,
    ) -> list[ClientNode]:
        """Attach closed-loop clients, round-robin across proxies.

        ``workload`` is either a single shared :class:`OperationSource`
        or a factory called with the client index (for per-client
        sources, e.g. multi-tenant scenarios).  ``pipeline_depth`` > 1
        keeps that many logical operations in flight per client;
        ``injection_rate`` > 0 switches the client to open-loop pacing
        (see :class:`~repro.sds.client.ClientNode`).
        """
        count_per_proxy = clients_per_proxy or self.config.clients_per_proxy
        return [
            self._add_client(
                workload,
                proxy.node_id,
                think_time,
                recorder,
                pipeline_depth,
                injection_rate,
            )
            for proxy in self.proxies
            for _ in range(count_per_proxy)
        ]

    def throughput(self, window: float) -> float:
        """Cluster throughput (ops/s) over the trailing ``window`` seconds."""
        return self.log.throughput(
            max(0.0, self.sim.now - window), self.sim.now
        )

    # -- failure injection ------------------------------------------------------

    def crash_storage(self, index: int) -> None:
        self.crashes.crash(NodeId.storage(index))

    def crash_proxy(self, index: int) -> None:
        self.crashes.crash(NodeId.proxy(index))

    # -- inspection (used by tests and consistency checkers) ---------------------

    def replica_versions(self, object_id: ObjectId) -> dict[NodeId, Version]:
        """The version of an object stored at each of its replicas."""
        return {
            node_id: self._storage(node_id).version_of(object_id)
            for node_id in self.ring.replicas(object_id)
        }

    def freshest_version(self, object_id: ObjectId) -> Version:
        """Newest version of an object across all replicas."""
        versions = self.replica_versions(object_id).values()
        return max(versions, key=lambda version: version.stamp)

    def _storage(self, node_id: NodeId) -> StorageNode:
        node = self._nodes_by_id[node_id]
        assert isinstance(node, StorageNode)
        return node
