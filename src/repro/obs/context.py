"""The Observability bundle the instrumented modules share.

One :class:`Observability` object carries a tracer, a metrics registry
and the pre-bound hot-path instruments, so instrumentation sites pay a
single attribute load plus (for histograms) one bucket increment — no
name lookups or label resolution per operation.  Passing ``obs=None``
(the default everywhere) disables instrumentation entirely: metrics sit
behind an ``obs is not None`` guard and spans come from the shared
:data:`~repro.obs.trace.DISABLED_TRACER` (:func:`tracer_for`).  Passing
``Observability(tracing=False)`` keeps the O(1) histograms but makes
every span call a no-op returning the shared null span.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DISABLED_TRACER, Tracer


class Observability:
    """Tracer + registry + the hot-path instruments, as one handle.

    Build it before the cluster, hand it to
    :class:`~repro.sds.cluster.SwiftCluster`; the cluster binds the
    simulated clock and wires every node, the network and the event
    timeline to it.
    """

    def __init__(
        self,
        tracing: bool = True,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(clock=clock, enabled=tracing)

        registry_ = self.registry
        # Per-phase latency histograms (the BENCH_obs.json phases).
        self.gather_p1 = registry_.histogram(
            "qopt_gather_seconds",
            help="quorum gather latency by phase",
            phase="p1",
        )
        self.gather_p2 = registry_.histogram(
            "qopt_gather_seconds", phase="p2"
        )
        self.stabilise = registry_.histogram(
            "qopt_stabilise_seconds",
            help="ABD phase-2 write-back latency",
        )
        self.reconfig_change = registry_.histogram(
            "qopt_reconfig_seconds",
            help="reconfiguration protocol latency by phase",
            phase="change",
        )
        self.reconfig_quarantine = registry_.histogram(
            "qopt_reconfig_seconds", phase="quarantine"
        )
        # End-to-end and per-tier operation latencies.
        self.client_read = registry_.histogram(
            "qopt_client_op_seconds",
            help="client-observed operation latency",
            op="read",
        )
        self.client_write = registry_.histogram(
            "qopt_client_op_seconds", op="write"
        )
        self.replica_read = registry_.histogram(
            "qopt_replica_op_seconds",
            help="storage-node service latency (queue + disk)",
            op="read",
        )
        self.replica_write = registry_.histogram(
            "qopt_replica_op_seconds", op="write"
        )
        self.net_delivery = registry_.histogram(
            "qopt_network_delivery_seconds",
            help="send-to-delivery latency of network messages",
        )
        # Degradation counters.
        self.client_retries = registry_.counter(
            "qopt_client_retries_total",
            help="client attempts beyond the first",
        )
        self.client_failures = registry_.counter(
            "qopt_client_failures_total",
            help="operations abandoned after exhausting retries",
        )
        self.gather_timeouts = registry_.counter(
            "qopt_gather_timeouts_total",
            help="quorum gathers that hit the proxy deadline",
        )
        self.faults = registry_.counter(
            "qopt_nemesis_faults_total",
            help="nemesis fault events bridged from the event timeline",
        )

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the simulated clock."""
        self.tracer.bind_clock(clock)


def tracer_for(obs: Optional[Observability]) -> Tracer:
    """The tracer a node records spans on: ``obs``'s, or the disabled one."""
    return obs.tracer if obs is not None else DISABLED_TRACER
