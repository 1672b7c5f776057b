"""Stop-the-world reconfiguration baseline (ablation A3).

The obvious alternative to Q-OPT's non-blocking two-phase protocol is to
halt the data plane while switching configurations: pause every proxy,
wait for all in-flight operations to drain, install the new plan, and
resume.  Trivially safe — no operation is ever concurrent with the
switch — but it converts every reconfiguration into a service outage
whose length is the drain time plus two control round-trips.  The E6
benchmark runs both managers on identical workloads to quantify the
difference.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Iterator

from repro.common.types import NodeId, QuorumConfig
from repro.sds.messages import (
    AckConfirm,
    AckPause,
    Confirm,
    PauseProxy,
    ResumeProxy,
)
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.sim.failure import FailureDetector
from repro.sim.kernel import Future, Process, Simulator
from repro.sim.network import Envelope, Network
from repro.sim.node import Node
from repro.sim.primitives import Mutex

if TYPE_CHECKING:
    from repro.sds.cluster import SwiftCluster

_CONTROL_BYTES = 512


class BlockingReconfigurationManager(Node):
    """Pause-switch-resume reconfiguration coordinator."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        proxies: list[NodeId],
        detector: FailureDetector,
        initial_plan: QuorumPlan,
        replication_degree: int,
        suspect_poll_interval: float = 0.05,
    ) -> None:
        super().__init__(
            sim, network, NodeId("blocking-rm", 0)
        )
        self._proxies = list(proxies)
        self._detector = detector
        self._system = QuorumSystem(replication_degree)
        self._current_plan = self._system.require_strict_plan(initial_plan)
        self._poll = suspect_poll_interval
        self._mutex = Mutex(sim)
        self._cfg_no = 0
        self._token_seq = itertools.count(1)
        self._pause_acks: set[NodeId] = set()
        self._confirm_acks: set[NodeId] = set()
        self._token = 0
        #: Total simulated time the data plane spent paused.
        self.total_pause_time = 0.0
        self.reconfigurations_completed = 0

        self.register_handler(AckPause, self._on_ack_pause)
        self.register_handler(AckConfirm, self._on_ack_confirm)

    @property
    def current_plan(self) -> QuorumPlan:
        return self._current_plan

    @property
    def cfg_no(self) -> int:
        return self._cfg_no

    def change_global(self, quorum: QuorumConfig) -> Process:
        return self.spawn(
            self.change_plan_body(QuorumPlan.uniform(quorum)),
            name=f"{self.node_id}.reconfig",
        )

    def change_plan_body(
        self, new_plan: QuorumPlan
    ) -> Generator[Future, Any, int]:
        self._system.require_strict_plan(new_plan)
        yield self._mutex.acquire()
        try:
            pause_started = self.sim.now
            self._cfg_no += 1
            self._token = next(self._token_seq)
            # Stop the world: every proxy closes its gate and drains.
            self._pause_acks = set()
            for proxy in self._proxies:
                self.send(
                    proxy, PauseProxy(token=self._token), size=_CONTROL_BYTES
                )
            yield from self._await(self._pause_acks)
            # Install the new plan while nothing is running.
            self._confirm_acks = set()
            for proxy in self._proxies:
                self.send(
                    proxy,
                    Confirm(
                        epoch_no=0, cfg_no=self._cfg_no, plan=new_plan
                    ),
                    size=_CONTROL_BYTES,
                )
            yield from self._await(self._confirm_acks)
            # Resume the data plane.
            for proxy in self._proxies:
                self.send(
                    proxy, ResumeProxy(token=self._token), size=_CONTROL_BYTES
                )
            self._current_plan = new_plan
            self.total_pause_time += self.sim.now - pause_started
            self.reconfigurations_completed += 1
            return self._cfg_no
        finally:
            self._mutex.release()

    def _await(self, acks: set[NodeId]) -> Iterator[Future]:
        while True:
            missing = [p for p in self._proxies if p not in acks]
            if not missing:
                return
            if all(self._detector.suspect(p) for p in missing):
                return
            yield self.sim.sleep(self._poll)

    def _on_ack_pause(self, envelope: Envelope) -> None:
        ack: AckPause = envelope.payload
        if ack.token == self._token:
            self._pause_acks.add(ack.proxy)

    def _on_ack_confirm(self, envelope: Envelope) -> None:
        ack: AckConfirm = envelope.payload
        self._confirm_acks.add(ack.proxy)


def attach_blocking_manager(
    cluster: "SwiftCluster",
) -> BlockingReconfigurationManager:
    """Create, register and start a blocking RM for a cluster."""
    manager = BlockingReconfigurationManager(
        cluster.sim,
        cluster.network,
        proxies=[proxy.node_id for proxy in cluster.proxies],
        detector=cluster.detector,
        initial_plan=cluster.initial_plan,
        replication_degree=cluster.config.replication_degree,
    )
    cluster.add_node(manager)
    return manager
