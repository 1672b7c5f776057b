"""Fault-tolerant Reconfiguration Manager via primary-backup replication.

The paper presents the RM as logically centralized and notes that
"standard replication techniques, such as state-machine replication,
can be used to derive fault-tolerant implementations ... such that they
not become single points of failure" (Section 3).  This module supplies
that implementation: a ranked group of RM replicas where

* the lowest-ranked live replica acts as **primary** and runs
  Algorithm 2 exactly as the base class does;
* before starting a reconfiguration the primary persists its **intent**
  (the chosen cfg_no and plan) on the backups, and after completion it
  persists the resulting **state**;
* backups watch the primary through the eventually-perfect failure
  detector; when every better-ranked replica is suspected, the next
  replica **takes over**: it conservatively advances its epoch counter
  past anything the dead primary could have installed, then re-runs the
  pending intent (or re-installs the last known plan) as a fresh
  reconfiguration.

Safety rests on two observations.  First, the base protocol is safe from
*any* starting state as long as (a) epoch numbers only grow and (b) the
transition plan used intersects whatever quorums proxies may currently
be using.  (a) holds because a primary performs at most two epoch
changes per reconfiguration, so ``known_epoch + 2`` dominates anything
the crashed primary issued after its last update reached the backups.
(b) holds because proxies can only be using the last completed plan, the
pending intent, or their pairwise transition — and re-running the intent
from the last completed plan uses exactly that transition.  Second, a
false suspicion of the primary at worst creates two concurrent primaries
briefly; their reconfigurations are serialized by the storage tier's
monotone epochs, exactly like a stale proxy's operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId
from repro.reconfig.manager import ReconfigurationManager, _CONTROL_BYTES
from repro.sds.quorum import QuorumPlan
from repro.sim.failure import CrashManager, FailureDetector
from repro.sim.kernel import Future, Simulator
from repro.sim.network import Envelope, Network

if TYPE_CHECKING:
    from repro.sds.cluster import SwiftCluster


@dataclass(frozen=True)
class IntentUpdate:
    """Primary -> backups: a reconfiguration to ``plan`` is starting."""

    cfg_no: int
    epoch_no: int
    plan: QuorumPlan


@dataclass(frozen=True)
class StateUpdate:
    """Primary -> backups: the reconfiguration concluded."""

    cfg_no: int
    epoch_no: int
    plan: QuorumPlan


class ReplicatedRMMember(ReconfigurationManager):
    """One replica of the fault-tolerant Reconfiguration Manager."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        proxies: list[NodeId],
        storage_nodes: list[NodeId],
        detector: FailureDetector,
        initial_plan: QuorumPlan,
        replication_degree: int,
        rank: int,
        member_ids: list[NodeId],
    ) -> None:
        self._member_rank = rank
        self._member_ids = list(member_ids)
        super().__init__(
            sim,
            network,
            proxies=proxies,
            storage_nodes=storage_nodes,
            detector=detector,
            initial_plan=initial_plan,
            replication_degree=replication_degree,
            node_id=NodeId("reconfig-manager", rank),
        )
        self._is_primary = rank == 0
        self._pending_intent: Optional[IntentUpdate] = None
        self._monitor_started = False
        #: Number of takeovers this member performed (observability).
        self.takeovers = 0

        self.register_handler(IntentUpdate, self._on_intent_update)
        self.register_handler(StateUpdate, self._on_state_update)

    @property
    def rank(self) -> int:
        return self._member_rank

    @property
    def is_primary(self) -> bool:
        return self._is_primary

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        super().start()
        if not self._monitor_started and self._member_rank > 0:
            self._monitor_started = True
            self.spawn(
                self._monitor_primary(), name=f"{self.node_id}.monitor"
            )

    def _monitor_primary(self) -> Iterator[Future]:
        """Backup loop: take over when every better-ranked member died."""
        while self.alive and not self._is_primary:
            better = self._member_ids[: self._member_rank]
            if better and all(
                self._detector.suspect(member) for member in better
            ):
                yield from self._take_over()
                return
            yield self.sim.sleep(self._poll)

    def _take_over(self) -> Iterator[Future]:
        """Become primary and restore a consistent configuration."""
        self._is_primary = True
        self.takeovers += 1
        # The dead primary may have advanced past our last update by at
        # most one reconfiguration: two epoch changes and one cfg number.
        intent = self._pending_intent
        self._epoch_no += 2
        if intent is not None:
            self._cfg_no = max(self._cfg_no, intent.cfg_no)
            target_plan = intent.plan
        else:
            target_plan = self._current_plan
        # Re-running the target as a fresh reconfiguration both installs
        # it everywhere and flushes proxies stuck in a transition plan.
        yield from self.change_plan_body(target_plan)
        self._pending_intent = None

    # -- replication hooks --------------------------------------------------------

    def _on_plan_chosen(self, cfg_no: int, plan: QuorumPlan) -> None:
        update = IntentUpdate(
            cfg_no=cfg_no, epoch_no=self._epoch_no, plan=plan
        )
        self._broadcast_members(update)

    def _on_reconfiguration_complete(
        self, cfg_no: int, plan: QuorumPlan
    ) -> None:
        update = StateUpdate(
            cfg_no=cfg_no, epoch_no=self._epoch_no, plan=plan
        )
        self._broadcast_members(update)

    def _on_intent_update(self, envelope: Envelope) -> None:
        update: IntentUpdate = envelope.payload
        if update.cfg_no > self._cfg_no:
            self._pending_intent = update
            self._epoch_no = max(self._epoch_no, update.epoch_no)

    def _on_state_update(self, envelope: Envelope) -> None:
        update: StateUpdate = envelope.payload
        if update.cfg_no >= self._cfg_no:
            self._cfg_no = update.cfg_no
            self._epoch_no = max(self._epoch_no, update.epoch_no)
            self._current_plan = update.plan
            if (
                self._pending_intent is not None
                and self._pending_intent.cfg_no <= update.cfg_no
            ):
                self._pending_intent = None

    def _broadcast_members(
        self, payload: Union[IntentUpdate, StateUpdate]
    ) -> None:
        for member in self._member_ids:
            if member != self.node_id:
                self.send(member, payload, size=_CONTROL_BYTES)

    # -- request guards ----------------------------------------------------------

    def _on_fine_rec(self, envelope: Envelope) -> Iterator[Future]:
        if not self._is_primary:
            return iter(())  # backups ignore AM requests
        return super()._on_fine_rec(envelope)

    def _on_coarse_rec(self, envelope: Envelope) -> Iterator[Future]:
        if not self._is_primary:
            return iter(())  # backups ignore AM requests
        return super()._on_coarse_rec(envelope)


class ReplicatedReconfigurationManager:
    """Facade over a ranked group of RM replicas."""

    def __init__(
        self,
        members: list[ReplicatedRMMember],
        crashes: Optional[CrashManager] = None,
    ) -> None:
        if not members:
            raise ConfigurationError("need at least one RM member")
        self.members = members
        self._crashes = crashes

    @property
    def member_ids(self) -> list[NodeId]:
        return [member.node_id for member in self.members]

    @property
    def primary(self) -> Optional[ReplicatedRMMember]:
        for member in self.members:
            if member.alive and member.is_primary:
                return member
        return None

    def crash_primary(self) -> None:
        """Test hook: fail-stop the current primary.

        Goes through the cluster's crash manager so the failure detector
        (and hence the backups) eventually learn about it.
        """
        primary = self.primary
        if primary is None:
            raise ConfigurationError("no live primary to crash")
        if self._crashes is not None:
            self._crashes.crash(primary.node_id)
        else:
            primary.crash()


def attach_replicated_manager(
    cluster: "SwiftCluster",
    replicas: int = 3,
) -> ReplicatedReconfigurationManager:
    """Create, register and start a replicated RM group for a cluster."""
    if replicas < 1:
        raise ConfigurationError("need at least one replica")
    member_ids = [NodeId("reconfig-manager", rank) for rank in range(replicas)]
    members: list[ReplicatedRMMember] = []
    for rank in range(replicas):
        member = ReplicatedRMMember(
            cluster.sim,
            cluster.network,
            proxies=[proxy.node_id for proxy in cluster.proxies],
            storage_nodes=[node.node_id for node in cluster.storage_nodes],
            detector=cluster.detector,
            initial_plan=cluster.initial_plan,
            replication_degree=cluster.config.replication_degree,
            rank=rank,
            member_ids=member_ids,
        )
        cluster.add_node(member)
        members.append(member)
    return ReplicatedReconfigurationManager(members, crashes=cluster.crashes)
