"""Cluster assembly: wire storage nodes, proxies and clients together.

:class:`SwiftCluster` builds the full simulated test-bed of Section 2.2
from a :class:`~repro.common.config.ClusterConfig`: the network, the
placement ring, storage and proxy nodes, crash management, and (on
demand) closed-loop clients driving a workload.  The Q-OPT control plane
(Reconfiguration Manager, Autonomic Manager, Oracle) attaches on top via
the ``repro.reconfig`` and ``repro.autonomic`` packages.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import substream
from repro.common.types import NodeId, ObjectId, Version
from repro.metrics.collector import OperationLog
from repro.metrics.timeline import EventTimeline
from repro.obs.context import Observability
from repro.sds.client import ClientNode, OperationRecord, OperationSource
from repro.sds.proxy import ProxyNode
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.sds.ring import PlacementRing
from repro.sds.storage import StorageNode
from repro.sds.vector_clocks import make_versioning
from repro.sim.failure import CrashManager, FailureDetector
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.topk.stats import ProxyStatsRecorder


class SwiftCluster:
    """A fully wired simulated SDS deployment."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        top_k: int = 8,
        summary_capacity: int = 256,
        detection_delay: float = 0.5,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = (config or ClusterConfig()).validate()
        self.seed = seed
        self.sim = Simulator()
        #: Optional observability bundle: when given, every tier is
        #: instrumented and the tracer follows the simulated clock.
        self.obs = obs
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
        #: Shared audit log: nemesis faults, proxy/client degradation events.
        self.events = EventTimeline()
        if obs is not None:
            # Bridge timeline records (nemesis faults in particular) into
            # the trace as annotations.
            self.events.bind_observability(obs)

        self.initial_plan = QuorumSystem(
            self.config.replication_degree
        ).require_strict_plan(QuorumPlan.uniform(self.config.initial_quorum))

        storage_ids = [
            NodeId.storage(index)
            for index in range(self.config.num_storage_nodes)
        ]
        self.ring = PlacementRing(
            storage_ids, replication_degree=self.config.replication_degree
        )
        self.storage_nodes: list[StorageNode] = [
            StorageNode(
                self.sim,
                self.network,
                node_id,
                config=self.config.storage,
                initial_plan=self.initial_plan,
                rng=substream(seed, "storage", node_id.index),
                ring=self.ring,
                obs=obs,
            )
            for node_id in storage_ids
        ]
        self.proxies: list[ProxyNode] = [
            ProxyNode(
                self.sim,
                self.network,
                NodeId.proxy(index),
                ring=self.ring,
                config=self.config.proxy,
                initial_plan=self.initial_plan,
                rng=substream(seed, "proxy", index),
                stats=ProxyStatsRecorder(
                    top_k=top_k, summary_capacity=summary_capacity
                ),
                versioning=make_versioning(self.config.versioning),
                events=self.events,
                obs=obs,
            )
            for index in range(self.config.num_proxies)
        ]
        self.clients: list[ClientNode] = []
        self._nodes_by_id: dict[NodeId, object] = {}
        for node in [*self.storage_nodes, *self.proxies]:
            node.start()
            self._nodes_by_id[node.node_id] = node
        # Fail-stop: when the crash manager kills a node, stop its
        # processes too, so crashed nodes truly go silent.
        self.crashes.on_crash(self._on_crash)

    # -- client management ----------------------------------------------------

    def add_clients(
        self,
        workload: OperationSource | Callable[[int], OperationSource],
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
        created: list[ClientNode] = []
        base_index = len(self.clients)
        for proxy_index, proxy in enumerate(self.proxies):
            for slot in range(count_per_proxy):
                client_index = base_index + proxy_index * count_per_proxy + slot
                source = (
                    workload(client_index)
                    if callable(workload)
                    else workload
                )
                client = ClientNode(
                    self.sim,
                    self.network,
                    NodeId.client(client_index),
                    proxy_id=proxy.node_id,
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
                )
                client.start()
                self.clients.append(client)
                self._nodes_by_id[client.node_id] = client
                created.append(client)
        return created

    # -- failure injection ------------------------------------------------------

    def crash_storage(self, index: int) -> None:
        self.crashes.crash(NodeId.storage(index))

    def crash_proxy(self, index: int) -> None:
        self.crashes.crash(NodeId.proxy(index))

    def _on_crash(self, node_id: NodeId) -> None:
        node = self._nodes_by_id.get(node_id)
        if node is not None:
            node.crash()

    # -- running --------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError("duration must be >= 0")
        self.sim.run(until=self.sim.now + duration)

    def throughput(self, window: float) -> float:
        """Cluster throughput (ops/s) over the trailing ``window`` seconds."""
        return self.log.throughput(
            max(0.0, self.sim.now - window), self.sim.now
        )

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


def build_cluster(
    config: Optional[ClusterConfig] = None, seed: int = 0, **kwargs: object
) -> SwiftCluster:
    """Convenience alias mirroring the public API naming."""
    return SwiftCluster(config=config, seed=seed, **kwargs)
