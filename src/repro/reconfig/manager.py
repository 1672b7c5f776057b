"""The Reconfiguration Manager: Algorithm 2 of the paper.

The RM changes the quorum plan used by the proxies without ever blocking
client operations, while preserving **Dynamic Quorum Consistency**: the
quorum of a read intersects the write quorum of any concurrent write or,
absent concurrent writes, of the last completed write.

The failure-free path is a two-phase protocol with the proxies:

1. **NEWQ** — every proxy switches to the *transition* plan (pairwise max
   of old and new quorums, intersecting both) and drains its pending
   old-quorum operations, then acks.
2. **CONFIRM** — every proxy installs the new plan and acks.

If any proxy is suspected during either phase, the RM performs an *epoch
change* on the storage tier: the epoch counter is bumped and broadcast
(NEWEP); once a large-enough quorum of storage nodes commits to reject
older epochs, any operation a stale proxy issues is guaranteed to gather
a NACK and be re-executed with the new plan.  The epoch-change quorum is
``max(oldR, oldW)`` after phase 1 and ``max(newR, newW)`` after phase 2
(Section 5.3's correctness argument) — per-object plans use the maxima
over the whole plan.

The protocol is *indulgent*: false suspicions can only force operation
re-execution, never a safety violation, and the reconfiguration always
terminates given the assumed eventually-perfect failure detector.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Iterator,
    Mapping,
    Optional,
    Union,
)

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, NodeKind, ObjectId, QuorumConfig
from repro.obs.context import Observability, tracer_for
from repro.obs.trace import Span
from repro.sds.messages import (
    AckConfirm,
    AckNewEpoch,
    AckNewQuorum,
    AckRec,
    CoarseRec,
    Confirm,
    FineRec,
    NewEpoch,
    NewQuorum,
)
from repro.sds.quorum import QuorumPlan, QuorumSystem
from repro.net.transport import Transport
from repro.sim.failure import SuspicionSource
from repro.sim.kernel import Future, Process, Simulator
from repro.sim.network import Envelope
from repro.sim.node import Node
from repro.sim.primitives import Mutex, wait_for

if TYPE_CHECKING:
    from repro.sds.cluster import SwiftCluster

#: Size of control-plane messages on the wire, bytes.
_CONTROL_BYTES = 512

#: The two retransmittable phase messages of Algorithm 2.
_PhaseMessage = Union[NewQuorum, Confirm]


class ReconfigurationManager(Node):
    """Coordinates quorum reconfigurations (Figure 4's "Reconfiguration
    Manager" box)."""

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        proxies: list[NodeId],
        storage_nodes: list[NodeId],
        detector: SuspicionSource,
        initial_plan: QuorumPlan,
        replication_degree: int,
        suspect_poll_interval: float = 0.05,
        retransmit_interval: float = 0.5,
        node_id: Optional[NodeId] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(
            sim,
            network,
            node_id or NodeId.singleton(NodeKind.RECONFIG_MANAGER),
        )
        if not proxies:
            raise ConfigurationError("RM needs at least one proxy")
        if not storage_nodes:
            raise ConfigurationError("RM needs at least one storage node")
        self._proxies = list(proxies)
        self._storage_nodes = list(storage_nodes)
        self._detector = detector
        self._system = QuorumSystem(replication_degree)
        self._poll = suspect_poll_interval
        # NEWQ/CONFIRM/NEWEP are retransmitted to unresponsive,
        # unsuspected nodes at this cadence: under message loss the
        # two-phase protocol would otherwise wait forever on an ack whose
        # request (or reply) was dropped.  All three messages are
        # idempotent at their receivers.
        self._retransmit = max(retransmit_interval, suspect_poll_interval)

        # Algorithm 2 state.
        self._epoch_no = 0
        self._cfg_no = 0
        self._current_plan = self._system.require_strict_plan(initial_plan)
        self._mutex = Mutex(sim)

        # Ack collection, keyed by the awaited epoch number.
        self._newq_acks: set[NodeId] = set()
        self._confirm_acks: set[NodeId] = set()
        self._epoch_acks: dict[int, set[NodeId]] = {}
        self._epoch_waiters: dict[int, tuple[int, Future]] = {}

        # Duplicate suppression for retransmitted AM requests.
        self._acked_fine_round = 0
        self._fine_in_progress: set[int] = set()
        self._coarse_in_progress: set[QuorumConfig] = set()

        # Observability.
        self._obs = obs
        self._tracer = tracer_for(obs)
        self.reconfigurations_completed = 0
        self.epoch_changes = 0
        self.retransmissions = 0
        self._started_callbacks: list[
            Callable[[int, QuorumPlan], None]
        ] = []

        self.register_handler(AckNewQuorum, self._on_ack_newq)
        self.register_handler(AckConfirm, self._on_ack_confirm)
        self.register_handler(AckNewEpoch, self._on_ack_new_epoch)
        self.register_handler(FineRec, self._on_fine_rec)
        self.register_handler(CoarseRec, self._on_coarse_rec)

    # -- public views --------------------------------------------------------

    @property
    def epoch_no(self) -> int:
        return self._epoch_no

    @property
    def cfg_no(self) -> int:
        return self._cfg_no

    @property
    def current_plan(self) -> QuorumPlan:
        return self._current_plan

    @property
    def reconfiguring(self) -> bool:
        return self._mutex.locked

    # -- public API (the "Manual Reconfiguration" arrow of Figure 4) -----------

    def change_configuration(self, plan: QuorumPlan) -> Process:
        """Install a new quorum plan; returns the coordinating process.

        Callers inside the simulation ``yield`` the returned process to
        wait for completion; test harnesses use
        ``sim.run_process(rm.change_plan_body(plan))`` instead.
        """
        self._system.require_strict_plan(plan)
        return self.spawn(
            self.change_plan_body(plan),
            name=f"{self.node_id}.reconfig-{self._cfg_no + 1}",
        )

    def change_global(self, quorum: QuorumConfig) -> Process:
        """Install a uniform plan (the Section 5.2 global protocol)."""
        return self.change_configuration(QuorumPlan.uniform(quorum))

    def on_reconfiguration_started(
        self, callback: Callable[[int, QuorumPlan], None]
    ) -> None:
        """Register ``callback(cfg_no, plan)`` for the start of every
        reconfiguration — the hook nemesis schedules use to land crashes
        inside the two-phase window."""
        self._started_callbacks.append(callback)

    def change_overrides(
        self, overrides: Mapping[ObjectId, QuorumConfig]
    ) -> Process:
        """Install per-object overrides on top of the current plan."""
        updates = dict(overrides)
        return self.spawn(
            self._reconfigure(lambda current: current.with_overrides(updates)),
            name=f"{self.node_id}.reconfig-overrides",
        )

    def change_default(self, quorum: QuorumConfig) -> Process:
        """Change only the tail (default) configuration."""
        return self.spawn(
            self._reconfigure(lambda current: current.with_default(quorum)),
            name=f"{self.node_id}.reconfig-default",
        )

    # -- Algorithm 2 ------------------------------------------------------------

    def change_plan_body(
        self, new_plan: QuorumPlan
    ) -> Generator[Future, Any, int]:
        """The changeConfiguration procedure (Algorithm 2 lines 5-21)."""
        result = yield from self._reconfigure(lambda _current: new_plan)
        return result

    def _reconfigure(
        self, build_plan: Callable[[QuorumPlan], QuorumPlan]
    ) -> Generator[Future, Any, int]:
        """Serialized reconfiguration; the new plan is derived from the
        plan current *at lock-acquisition time* so queued reconfigurations
        compose instead of clobbering each other."""
        yield self._mutex.acquire()
        started_at = self.sim.now
        try:
            old_plan = self._current_plan
            new_plan = build_plan(old_plan)
            self._system.require_strict_plan(new_plan)
            self._cfg_no += 1
            cfg_no = self._cfg_no
            span = self._tracer.start_span(
                "reconfig.change",
                category="reconfig",
                node=self._name,
                cfg_no=cfg_no,
            )
            # Hook for fault-tolerant subclasses: persist the intent
            # before any proxy observes the new configuration.
            self._on_plan_chosen(cfg_no, new_plan)
            for callback in list(self._started_callbacks):
                callback(cfg_no, new_plan)

            # Phase 1: NEWQ -> proxies move to the transition quorum.
            self._newq_acks = set()
            newq = NewQuorum(
                epoch_no=self._epoch_no, cfg_no=cfg_no, plan=new_plan
            )
            self._broadcast_proxies(newq)
            all_acked = yield from self._await_proxy_acks(
                self._newq_acks, newq
            )
            if not all_acked:
                # Line 12-14: a proxy is suspected — fence the old epoch.
                yield from self._epoch_change(
                    quorum=self._system.fence_quorum(old_plan),
                    plan=self._system.transition_plan(old_plan, new_plan),
                    cfg_no=cfg_no,
                    parent=span,
                )

            # Phase 2: CONFIRM -> proxies install the new quorum.
            self._confirm_acks = set()
            confirm = Confirm(
                epoch_no=self._epoch_no, cfg_no=cfg_no, plan=new_plan
            )
            self._broadcast_proxies(confirm)
            all_acked = yield from self._await_proxy_acks(
                self._confirm_acks, confirm
            )
            if not all_acked:
                # Line 18-19: fence again, now with the new quorum sizes.
                yield from self._epoch_change(
                    quorum=self._system.fence_quorum(new_plan),
                    plan=new_plan,
                    cfg_no=cfg_no,
                    parent=span,
                )

            self._current_plan = new_plan
            self.reconfigurations_completed += 1
            span.finish(status="ok")
            if self._obs is not None:
                self._obs.reconfig_change.observe(self.sim.now - started_at)
            self._on_reconfiguration_complete(cfg_no, new_plan)
            return cfg_no
        finally:
            self._mutex.release()

    def _on_plan_chosen(self, cfg_no: int, plan: QuorumPlan) -> None:
        """Subclass hook: a reconfiguration to ``plan`` is about to start."""

    def _on_reconfiguration_complete(
        self, cfg_no: int, plan: QuorumPlan
    ) -> None:
        """Subclass hook: the reconfiguration concluded successfully."""

    def _await_proxy_acks(
        self, acks: set[NodeId], payload: _PhaseMessage
    ) -> Generator[Future, Any, bool]:
        """Wait until every proxy acked or is suspected.

        Returns True when *all* proxies acked, False when at least one is
        (possibly falsely) suspected — the caller must then trigger an
        epoch change.  ``payload`` (the NEWQ or CONFIRM being awaited) is
        retransmitted to missing, unsuspected proxies so a lost message
        or lost ack delays the phase instead of wedging it.
        """
        since_send = 0.0
        while True:
            missing = [
                proxy for proxy in self._proxies if proxy not in acks
            ]
            if not missing:
                return True
            if all(self._detector.suspect(proxy) for proxy in missing):
                return False
            yield self.sim.sleep(self._poll)
            since_send += self._poll
            if since_send >= self._retransmit:
                since_send = 0.0
                for proxy in missing:
                    if proxy in acks or self._detector.suspect(proxy):
                        continue
                    self.retransmissions += 1
                    self.send(proxy, payload, size=_CONTROL_BYTES)

    def _epoch_change(
        self,
        quorum: int,
        plan: QuorumPlan,
        cfg_no: int,
        parent: Span,
    ) -> Iterator[Future]:
        """The epochChange procedure (Algorithm 2 lines 22-25).

        The epoch fence also fences the lease fast path (invariant I7):
        storage nodes clear their whole per-object grant table when they
        adopt the NEWEP, and proxies drop all held leases on NEWQ /
        CONFIRM / any epoch adoption — so no lease minted under the old
        configuration can serve a single-replica read once quorums have
        moved.  Nothing here needs to know about leases; the fencing
        lives in ``StorageNode._on_new_epoch`` and the proxy's
        ``_drop_all_leases`` call sites.
        """
        self._epoch_no += 1
        self.epoch_changes += 1
        epoch_no = self._epoch_no
        span = self._tracer.start_span(
            "reconfig.epoch_change",
            category="reconfig",
            node=self._name,
            parent=parent.context(),
            epoch_no=epoch_no,
            quorum=quorum,
        )
        self._epoch_acks[epoch_no] = set()
        done = self.sim.future(name=f"epoch-{epoch_no}.quorum")
        self._epoch_waiters[epoch_no] = (quorum, done)
        message = NewEpoch(epoch_no=epoch_no, cfg_no=cfg_no, plan=plan)
        for node in self._storage_nodes:
            self.send(node, message, size=_CONTROL_BYTES)
        # Storage nodes re-ack duplicate NEWEPs for adopted epochs, so
        # retransmitting until an ack quorum forms tolerates lost NEWEPs
        # and lost acks alike.
        while not (yield wait_for(self.sim, done, self._retransmit)):
            for node in self._storage_nodes:
                if node in self._epoch_acks[epoch_no]:
                    continue
                self.retransmissions += 1
                self.send(node, message, size=_CONTROL_BYTES)
        del self._epoch_waiters[epoch_no]
        del self._epoch_acks[epoch_no]
        span.finish(status="ok")

    # -- ack handlers ---------------------------------------------------------------

    def _on_ack_newq(self, envelope: Envelope) -> None:
        ack: AckNewQuorum = envelope.payload
        if ack.epoch_no == self._epoch_no:
            self._newq_acks.add(ack.proxy)

    def _on_ack_confirm(self, envelope: Envelope) -> None:
        ack: AckConfirm = envelope.payload
        if ack.epoch_no == self._epoch_no:
            self._confirm_acks.add(ack.proxy)

    def _on_ack_new_epoch(self, envelope: Envelope) -> None:
        ack: AckNewEpoch = envelope.payload
        acks = self._epoch_acks.get(ack.epoch_no)
        if acks is None:
            return
        acks.add(ack.replica)
        waiter = self._epoch_waiters.get(ack.epoch_no)
        if waiter is not None and len(acks) >= waiter[0]:
            quorum, future = waiter
            if not future.done:
                future.resolve(None)

    # -- Autonomic Manager entry points (Algorithm 1 lines 12, 22) --------------------

    def _on_fine_rec(self, envelope: Envelope) -> Iterator[Future]:
        request: FineRec = envelope.payload
        if request.round_no <= self._acked_fine_round:
            # Already installed (the earlier ACKREC was lost): re-ack.
            self.send(
                envelope.sender,
                AckRec(round_no=request.round_no),
                size=_CONTROL_BYTES,
            )
            return
        if request.round_no in self._fine_in_progress:
            # Retransmitted while the original is still reconfiguring:
            # the original will ack on completion.
            return
        self._fine_in_progress.add(request.round_no)
        updates = dict(request.quorums)
        try:
            yield from self._reconfigure(
                lambda current: current.with_overrides(updates)
            )
        finally:
            self._fine_in_progress.discard(request.round_no)
        self._acked_fine_round = max(
            self._acked_fine_round, request.round_no
        )
        self.send(
            envelope.sender,
            AckRec(round_no=request.round_no),
            size=_CONTROL_BYTES,
        )

    def _on_coarse_rec(self, envelope: Envelope) -> Iterator[Future]:
        request: CoarseRec = envelope.payload
        if request.quorum in self._coarse_in_progress:
            # Retransmitted duplicate of a running request: drop it.  If
            # the eventual ack is lost too, a later retransmission will
            # re-run the (idempotent) reconfiguration and re-ack.
            return
        # A per-quorum marker set, not a single slot: two overlapping
        # coarse requests (the second queued on the reconfiguration
        # mutex) must each keep their own duplicate-suppression marker —
        # a shared slot is cleared by whichever finishes first, letting a
        # retransmission of the still-running request start a third,
        # redundant reconfiguration.
        self._coarse_in_progress.add(request.quorum)
        try:
            yield from self._reconfigure(
                lambda current: current.with_default(request.quorum)
            )
        finally:
            self._coarse_in_progress.discard(request.quorum)
        self.send(envelope.sender, AckRec(round_no=-1), size=_CONTROL_BYTES)

    def _broadcast_proxies(self, payload: _PhaseMessage) -> None:
        for proxy in self._proxies:
            self.send(proxy, payload, size=_CONTROL_BYTES)


def attach_reconfiguration_manager(
    cluster: "SwiftCluster",
) -> ReconfigurationManager:
    """Create, register and start the RM of a :class:`SwiftCluster`'s ring."""
    manager = ReconfigurationManager(
        cluster.sim,
        cluster.network,
        proxies=[proxy.node_id for proxy in cluster.proxies],
        storage_nodes=[node.node_id for node in cluster.storage_nodes],
        detector=cluster.detector,
        initial_plan=cluster.initial_plan,
        replication_degree=cluster.config.replication_degree,
        node_id=NodeId(NodeKind.RECONFIG_MANAGER.value, cluster.index),
        obs=cluster.obs,
    )
    cluster.add_node(manager)
    return manager
