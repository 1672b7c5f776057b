"""Closed queueing-network throughput model (exact single-class MVA).

The 170-workload sweep of Figure 3, the tuning-impact study and the
Oracle's training-set generation all need throughput estimates for
``workload x quorum-configuration`` grids far larger than what the
discrete-event simulator can sweep in reasonable time.  This module
provides an analytical companion model: the simulated cluster is mapped
onto a product-form closed queueing network and solved with exact Mean
Value Analysis.

Stations (mirroring the resources of the simulator):

* per proxy — CPU (multi-server), NIC egress, NIC ingress;
* per storage node — disk (multi-server), NIC egress, NIC ingress;
* one infinite-server "delay" station for propagation latencies and the
  client-side NIC transfers (closed-loop clients never queue on their
  own link).

Multi-server stations use Seidmann's approximation: an ``m``-server
station with per-visit demand ``D`` becomes a single server of demand
``D/m`` in series with a pure delay of ``D (m-1)/m``.

The model intentionally omits two second-order simulator effects — the
fork-join "max of k replies" synchronization and the background
replicator's traffic — so its absolute numbers run a little high; tests
verify that its *ranking* of quorum configurations agrees with the DES
on representative workloads, which is all its users need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig
from repro.sds.quorum import QuorumSystem

#: Wire overhead per message, kept consistent with the simulator.
_HEADER_BYTES = 256


@dataclass(frozen=True)
class WorkloadPoint:
    """The workload features the model (and the Oracle) operates on."""

    write_ratio: float
    object_size: int

    def validate(self) -> "WorkloadPoint":
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio outside [0, 1]")
        if self.object_size < 0:
            raise ConfigurationError("object_size must be >= 0")
        return self


@dataclass(frozen=True)
class _Station:
    """One queueing station: service demand per completed operation."""

    name: str
    demand: float
    is_delay: bool = False


def _solve_mva(
    stations: list[_Station], clients: int
) -> tuple[float, float]:
    """Exact MVA recursion.

    Returns ``(throughput, response_time)`` — operations/second and the
    mean end-to-end residence time of one operation (seconds).
    """
    queue = [0.0] * len(stations)
    throughput = 0.0
    total = 0.0
    for n in range(1, clients + 1):
        residence = [
            station.demand
            if station.is_delay
            else station.demand * (1.0 + queue[k])
            for k, station in enumerate(stations)
        ]
        total = sum(residence)
        if total <= 0:
            return float("inf"), 0.0
        throughput = n / total
        queue = [throughput * r for r in residence]
    return throughput, total


class MvaThroughputModel:
    """Predicts cluster throughput for a (workload, quorum) pair."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = (config or ClusterConfig()).validate()
        self._system = QuorumSystem(self.config.replication_degree)

    # -- public API ---------------------------------------------------------

    def throughput(
        self,
        point: WorkloadPoint,
        quorum: QuorumConfig,
        clients: int | None = None,
    ) -> float:
        """Predicted successful operations per second."""
        point.validate()
        self._system.require_strict(quorum)
        total_clients = (
            clients if clients is not None else self.config.total_clients
        )
        if total_clients < 1:
            raise ConfigurationError("need at least one client")
        stations = self._stations(point, quorum)
        throughput, _response = _solve_mva(stations, total_clients)
        return throughput

    def response_time(
        self,
        point: WorkloadPoint,
        quorum: QuorumConfig,
        clients: int | None = None,
    ) -> float:
        """Predicted mean end-to-end operation latency (seconds).

        Closed-network identity: ``clients = throughput x response``, so
        this is the companion prediction for latency-KPI tuning.
        """
        point.validate()
        self._system.require_strict(quorum)
        total_clients = (
            clients if clients is not None else self.config.total_clients
        )
        if total_clients < 1:
            raise ConfigurationError("need at least one client")
        stations = self._stations(point, quorum)
        _throughput, response = _solve_mva(stations, total_clients)
        return response

    def best_write_quorum(
        self, point: WorkloadPoint, clients: int | None = None
    ) -> int:
        """The W of :meth:`config_sweep`'s best throughput (smallest on ties)."""
        sweep = self.config_sweep(point, clients=clients)
        return max(sweep, key=sweep.__getitem__)

    def config_sweep(
        self, point: WorkloadPoint, clients: int | None = None
    ) -> dict[int, float]:
        """Predicted throughput for every minimal strict configuration,
        keyed by W (``QuorumSystem.minimal_configs``)."""
        return {
            quorum.write: self.throughput(point, quorum, clients=clients)
            for quorum in self._system.minimal_configs()
        }

    # -- network construction --------------------------------------------------

    def _stations(
        self, point: WorkloadPoint, quorum: QuorumConfig
    ) -> list[_Station]:
        cfg = self.config
        p = point.write_ratio
        q = 1.0 - p
        size = point.object_size
        header = _HEADER_BYTES
        bandwidth = cfg.network.bandwidth
        read_q, write_q = quorum.read, quorum.write

        def tx(bytes_: float) -> float:
            return bytes_ / bandwidth

        # --- per-operation demands, system-wide expectations ---
        # Proxy CPU: marshalling cost per contacted replica.
        cpu_demand = cfg.proxy.per_replica_cpu * (p * write_q + q * read_q)
        # Proxy egress: write fans the payload out to W replicas and sends
        # a header reply to the client; a read sends R header requests and
        # relays the payload back to the client.
        proxy_tx = p * (write_q * tx(header + size) + tx(header)) + q * (
            read_q * tx(header) + tx(header + size)
        )
        # Proxy ingress: write receives the payload once from the client
        # plus W header acks; a read receives a header request plus R full
        # replies (every replica returns its version).
        proxy_rx = p * (tx(header + size) + write_q * tx(header)) + q * (
            tx(header) + read_q * tx(header + size)
        )
        # Storage disk: W foreground writes, R foreground reads.
        storage = cfg.storage
        disk_demand = p * write_q * storage.mean_write_time(size) + (
            q * read_q * storage.mean_read_time(size)
        )
        # Storage NICs.
        storage_rx = p * write_q * tx(header + size) + q * read_q * tx(header)
        storage_tx = p * write_q * tx(header) + q * read_q * tx(header + size)
        # Pure delays: 4 propagation hops per op (client->proxy->storage
        # and back), plus the client's own NIC transfers.
        hop = cfg.network.base_latency * (
            1.0 + cfg.network.jitter_fraction / 2.0
        )
        delay = 4.0 * hop + tx(header + size) + tx(header)

        stations: list[_Station] = [
            _Station(name="latency", demand=delay, is_delay=True)
        ]
        for index in range(cfg.num_proxies):
            share = 1.0 / cfg.num_proxies
            stations.extend(
                self._multi_server(
                    f"proxy{index}.cpu",
                    cpu_demand * share,
                    cfg.proxy.concurrency,
                )
            )
            stations.append(
                _Station(name=f"proxy{index}.tx", demand=proxy_tx * share)
            )
            stations.append(
                _Station(name=f"proxy{index}.rx", demand=proxy_rx * share)
            )
        for index in range(cfg.num_storage_nodes):
            share = 1.0 / cfg.num_storage_nodes
            stations.extend(
                self._multi_server(
                    f"storage{index}.disk",
                    disk_demand * share,
                    storage.concurrency,
                )
            )
            stations.append(
                _Station(name=f"storage{index}.tx", demand=storage_tx * share)
            )
            stations.append(
                _Station(name=f"storage{index}.rx", demand=storage_rx * share)
            )
        return stations

    @staticmethod
    def _multi_server(name: str, demand: float, servers: int) -> list[_Station]:
        """Seidmann's two-station approximation of an m-server queue."""
        if servers <= 1:
            return [_Station(name=name, demand=demand)]
        return [
            _Station(name=f"{name}.q", demand=demand / servers),
            _Station(
                name=f"{name}.d",
                demand=demand * (servers - 1) / servers,
                is_delay=True,
            ),
        ]
