"""One live-runtime process: kernel + transport + protocol node + HTTP.

:class:`NodeRuntime` assembles what :class:`~repro.sds.cluster.SwiftCluster`
assembles for the simulator, but on the live stack: a
:class:`~repro.net.kernel.RealtimeKernel`, a
:class:`~repro.net.tcp.TcpTransport` and exactly one protocol node —
a storage replica, a proxy, or the reconfiguration manager — plus the
process's observability bundle and its HTTP endpoint.

RNG seeding reuses the cluster's substream discipline
(``substream(seed, kind, index)``), so a node's stochastic decisions
(anti-entropy scan offsets, backoff jitter) are reproducible given the
spec's seed even though event *timing* is now the hardware's.
"""

from __future__ import annotations

import asyncio
import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union, cast

from repro.common.errors import ConfigurationError
from repro.common.rng import substream
from repro.common.types import NodeId, NodeKind, QuorumConfig
from repro.net.httpd import Handler, MiniHttpServer
from repro.net.kernel import RealtimeKernel
from repro.net.spec import ClusterSpec, NodeAddress, Shard
from repro.net.tcp import TcpTransport
from repro.obs.context import Observability
from repro.obs.exporters import to_prometheus_text

if TYPE_CHECKING:
    from repro.reconfig.manager import ReconfigurationManager
    from repro.sds.persistence import WalBackend
    from repro.sds.proxy import ProxyNode
    from repro.sds.storage import StorageNode


class NeverSuspect:
    """The live runtime's trivially optimistic failure detector.

    The reconfiguration protocol is indulgent: a detector that never
    suspects can only delay epoch changes (the RM keeps retransmitting to
    an unresponsive proxy), never violate safety.  Wiring a real
    heartbeat detector through :class:`~repro.sim.failure.SuspicionSource`
    is the natural next step and needs no protocol change.
    """

    def suspect(self, node_id: NodeId) -> bool:
        del node_id
        return False


#: The node classes a runtime can host.
LiveNode = Union["StorageNode", "ProxyNode", "ReconfigurationManager"]

STORAGE = NodeKind.STORAGE.value
PROXY = NodeKind.PROXY.value
MANAGER = NodeKind.RECONFIG_MANAGER.value


class NodeRuntime:
    """Everything one ``python -m repro serve`` process runs."""

    def __init__(self, spec: ClusterSpec, node_name: str) -> None:
        self.spec = spec
        self.address: NodeAddress = spec.address_of(node_name)
        self.node_id = self.address.node_id
        #: The shard this process belongs to (the whole fleet when the
        #: spec has one shard).
        self.shard: Shard = spec.shard_for(node_name)
        #: The role this process serves: ``STORAGE``, ``PROXY`` or
        #: ``MANAGER``.
        self.kind: str = self.node_id.kind
        self.kernel: RealtimeKernel = RealtimeKernel()
        self.obs = Observability(
            tracing=False, clock=lambda: self.kernel.now
        )
        self.transport = TcpTransport(
            self.kernel,
            spec.directory(),
            listen_host=self.address.host,
            listen_port=self.address.port,
            rng=substream(spec.seed, "net", str(self.node_id)),
        )
        #: Durable storage backend, if this process hosts a WAL-backed
        #: replica (``spec.data_dir`` set); closed on shutdown.
        self.backend: Optional["WalBackend"] = None
        self.node: LiveNode = self._build_node()
        self._shutdown = asyncio.Event()
        self.http = MiniHttpServer(
            self.address.host,
            self.address.http_port,
            routes=self._routes(),
        )

    # -- node construction ---------------------------------------------------

    def _build_node(self) -> LiveNode:
        spec = self.spec
        shard = self.shard
        kind = self.kind
        # Every protocol object sees only its shard's topology: ring,
        # membership and initial plan all come from the shard, so a
        # shard is a complete, independent Q-OPT instance.
        plan = shard.initial_plan()
        # Each role imports its own node class here and nothing of the
        # other two: a storage worker never loads the proxy or the RM.
        if kind == STORAGE:
            from repro.sds.storage import StorageNode

            if spec.data_dir:
                from repro.sds.persistence import WalBackend

                self.backend = WalBackend(
                    os.path.join(spec.data_dir, self.address.name)
                )
            return StorageNode(
                self.kernel,
                self.transport,
                self.node_id,
                config=spec.storage,
                initial_plan=plan,
                rng=substream(spec.seed, "storage", self.node_id.index),
                ring=shard.ring(),
                obs=self.obs,
                backend=self.backend,
            )
        if kind == PROXY:
            from repro.sds.proxy import ProxyNode

            return ProxyNode(
                self.kernel,
                self.transport,
                self.node_id,
                ring=shard.ring(),
                config=spec.proxy,
                initial_plan=plan,
                rng=substream(spec.seed, "proxy", self.node_id.index),
                obs=self.obs,
            )
        if kind == MANAGER:
            from repro.reconfig.manager import ReconfigurationManager

            return ReconfigurationManager(
                self.kernel,
                self.transport,
                proxies=shard.proxy_ids(),
                storage_nodes=shard.storage_ids(),
                detector=NeverSuspect(),
                initial_plan=plan,
                replication_degree=shard.replication_degree,
                node_id=self.node_id,
                obs=self.obs,
            )
        raise ConfigurationError(f"cannot serve node kind {kind!r}")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        await self.transport.start()
        await self.http.start()
        self.node.start()

    async def run_until_shutdown(self) -> None:
        await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self.node.crash()  # fail-stop: kill the receive loop and children
        await self.http.stop()
        await self.transport.stop()
        if self.backend is not None:
            self.backend.close()  # final fsync of batched WAL appends

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # -- HTTP ----------------------------------------------------------------

    def _routes(self) -> Dict[str, Handler]:
        routes: Dict[str, Handler] = {
            "/metrics": self._handle_metrics,
            "/healthz": self._handle_healthz,
            "/shutdown": self._handle_shutdown,
        }
        if self.kind == MANAGER:
            routes["/reconfig"] = self._handle_reconfig
        return routes

    async def _handle_metrics(
        self, query: Dict[str, str]
    ) -> Tuple[int, str, str]:
        del query
        self._export_runtime_gauges()
        return 200, "text/plain; version=0.0.4", to_prometheus_text(
            self.obs.registry
        )

    def _export_runtime_gauges(self) -> None:
        registry = self.obs.registry
        node = str(self.node_id)
        shard = self.shard.name
        transport = self.transport
        registry.gauge(
            "qopt_transport_messages_total",
            help="transport delivery counters",
            shard=shard, node=node, direction="sent",
        ).set(float(transport.messages_sent))
        registry.gauge(
            "qopt_transport_messages_total", shard=shard, node=node, direction="delivered"
        ).set(float(transport.messages_delivered))
        registry.gauge(
            "qopt_transport_messages_total", shard=shard, node=node, direction="dropped"
        ).set(float(transport.messages_dropped))
        registry.gauge(
            "qopt_transport_bytes_sent", help="payload bytes sent", shard=shard, node=node
        ).set(float(transport.bytes_sent))
        registry.gauge(
            "qopt_kernel_events_total",
            help="kernel callbacks dispatched", shard=shard, node=node,
        ).set(float(self.kernel.events_processed))
        registry.gauge(
            "qopt_kernel_timers_armed_total",
            help="sleep/timeout timers armed", shard=shard, node=node,
        ).set(float(self.kernel.timers_armed))
        registry.gauge(
            "qopt_kernel_timers_cancelled_total",
            help="timers cancelled before firing (their wait completed)",
            shard=shard, node=node,
        ).set(float(self.kernel.timers_cancelled))
        registry.gauge(
            "qopt_kernel_timers_pending",
            help="timers armed and neither cancelled nor fired",
            shard=shard, node=node,
        ).set(float(self.kernel.timers_pending))
        registry.gauge(
            "qopt_kernel_crashes_total",
            help="unhandled process crashes", shard=shard, node=node,
        ).set(float(len(self.kernel.crashes)))
        if self.kind == PROXY:
            proxy = cast("ProxyNode", self.node)
            registry.gauge(
                "qopt_lease_read_hits_total",
                help="reads served on the one-replica lease path",
                shard=shard, node=node,
            ).set(float(proxy.lease_read_hits))
            registry.gauge(
                "qopt_lease_read_misses_total",
                help="lease fast-path attempts that fell back to quorum",
                shard=shard, node=node,
            ).set(float(proxy.lease_read_misses))
            registry.gauge(
                "qopt_leases_acquired_total",
                help="lease grants installed", shard=shard, node=node,
            ).set(float(proxy.leases_acquired))
            registry.gauge(
                "qopt_leases_held",
                help="objects currently leased by this proxy",
                shard=shard, node=node,
            ).set(float(proxy.leases_held()))
        if self.kind == STORAGE:
            storage = cast("StorageNode", self.node)
            registry.gauge(
                "qopt_leases_granted_total",
                help="lease grants issued as primary", shard=shard, node=node,
            ).set(float(storage.leases_granted))
            registry.gauge(
                "qopt_leases_broken_total",
                help="grants invalidated by writes or epoch change",
                shard=shard, node=node,
            ).set(float(storage.leases_broken))
            registry.gauge(
                "qopt_lease_reads_served_total",
                help="lease reads served as primary", shard=shard, node=node,
            ).set(float(storage.lease_reads_served))
            registry.gauge(
                "qopt_lease_nacks_total",
                help="lease requests/reads refused", shard=shard, node=node,
            ).set(float(storage.lease_nacks_sent))
            registry.gauge(
                "qopt_replica_quarantined",
                help="1 while read-excluded pending I6 catch-up", shard=shard, node=node,
            ).set(1.0 if storage.quarantined else 0.0)
            registry.gauge(
                "qopt_replica_recoveries_total",
                help="quarantined rejoins completed", shard=shard, node=node,
            ).set(float(storage.recoveries_completed))
            registry.gauge(
                "qopt_replica_reads_declined",
                help="reads refused while quarantined", shard=shard, node=node,
            ).set(float(storage.reads_declined))
        backend = self.backend
        if backend is not None:
            registry.gauge(
                "qopt_wal_records_total",
                help="WAL records appended since boot", shard=shard, node=node,
            ).set(float(backend.records_appended))
            registry.gauge(
                "qopt_wal_fsyncs_total",
                help="batched WAL fsyncs", shard=shard, node=node,
            ).set(float(backend.fsyncs))
            registry.gauge(
                "qopt_wal_snapshots_total",
                help="snapshot+truncate cycles", shard=shard, node=node,
            ).set(float(backend.snapshots_taken))
            registry.gauge(
                "qopt_wal_records_replayed",
                help="records replayed at last boot", shard=shard, node=node,
            ).set(float(backend.records_replayed))

    async def _handle_healthz(
        self, query: Dict[str, str]
    ) -> Tuple[int, str, str]:
        del query
        node = self.node
        shard = self.shard.name
        if self.kind == STORAGE:
            storage = cast("StorageNode", node)
            # The quarantine flag is what LocalCluster (and operators)
            # poll to see a restarted replica finish its I6 catch-up.
            return 200, "text/plain", (
                f"ok {self.node_id} shard={shard}"
                f" quarantined={str(storage.quarantined).lower()}"
                f" epoch={storage.epoch_no} cfg={storage.cfg_no}\n"
            )
        # Operators read the shard's current epoch and config here.
        return 200, "text/plain", (
            f"ok {self.node_id} shard={shard}"
            f" epoch={node.epoch_no} cfg={node.cfg_no}\n"
        )

    async def _handle_shutdown(
        self, query: Dict[str, str]
    ) -> Tuple[int, str, str]:
        del query
        self.request_shutdown()
        return 200, "text/plain", "shutting down\n"

    async def _handle_reconfig(
        self, query: Dict[str, str]
    ) -> Tuple[int, str, str]:
        manager = cast("ReconfigurationManager", self.node)
        raw = query.get("write")
        if raw is None or not raw.isdigit():
            return 400, "text/plain", "need ?write=<W>\n"
        try:
            quorum = QuorumConfig.from_write(
                int(raw), self.shard.replication_degree
            )
        except ConfigurationError as exc:
            return 400, "text/plain", f"{exc}\n"
        process = manager.change_global(quorum)
        await self.kernel.wrap_future(process.result)
        return 200, "text/plain", (
            f"installed {quorum} as cfg_no={manager.cfg_no} "
            f"epoch={manager.epoch_no}\n"
        )


__all__ = ["NodeRuntime", "NeverSuspect"]
