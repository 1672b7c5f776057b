"""The Autonomic Manager: Algorithm 1 of the paper.

The manager orchestrates the self-tuning loop (Figure 4):

1. **Fine-grain rounds** — each round it broadcasts NEWROUND, gathers
   per-proxy ROUNDSTATS (hotspot candidates from the Space-Saving
   summaries, profiles of the currently monitored objects, tail
   aggregates, throughput), merges them, asks the Oracle for per-object
   quorum predictions, and — when a prediction differs from the installed
   configuration — asks the Reconfiguration Manager to install the
   overrides (FINEREC).  The new global top-k is then broadcast
   (NEWTOPK) for monitoring during the next round.
2. **Stop rule** — fine-grain optimization continues while the average
   relative throughput improvement over the last ``gamma`` rounds stays
   above ``theta`` (and at most ``max_rounds`` rounds).
3. **Tail step** — the remaining objects are treated in bulk: their
   aggregate profile goes to the Oracle and a single default quorum is
   installed for all of them (COARSEREC).

Unlike the one-shot pseudo-code, the implementation then keeps cycling:
monitoring continues, and whenever the Oracle's prediction for the tail
or for an already-optimized object drifts away from what is installed, a
new reconfiguration is triggered — this is what lets Q-OPT track the
workload changes of experiment E7.  A fixed quarantine period after each
reconfiguration keeps the loop stable (Section 4).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.autonomic.policy import MedianFilter
from repro.common.config import AutonomicConfig
from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, NodeKind, ObjectId, QuorumConfig
from repro.obs.context import Observability, tracer_for
from repro.sds.messages import (
    AckRec,
    AggregateStats,
    CoarseRec,
    FineRec,
    NewQuorums,
    NewRound,
    NewStats,
    NewTopK,
    ObjectStats,
    RoundStats,
    TailQuorum,
    TailStats,
)
from repro.sim.failure import FailureDetector
from repro.sim.kernel import Future, Simulator
from repro.sim.network import Envelope, Network
from repro.sim.node import Node

#: Size of control-plane messages on the wire, bytes.
_CONTROL_BYTES = 512


def merge_round_stats(
    reports: list[RoundStats], top_k: int
) -> tuple[dict[ObjectId, int], list[ObjectStats], AggregateStats, float]:
    """Merge per-proxy ROUNDSTATS (Algorithm 1 lines 8-9, 15, 19).

    Returns ``(global_top_k, merged_object_stats, merged_tail,
    total_throughput)``.
    """
    candidate_counts: dict[ObjectId, int] = {}
    object_reads: dict[ObjectId, int] = {}
    object_writes: dict[ObjectId, int] = {}
    object_size_sum: dict[ObjectId, float] = {}
    tail_reads = 0
    tail_writes = 0
    tail_size_sum = 0.0
    throughput = 0.0
    for report in reports:
        throughput += report.throughput
        for object_id, count in report.top_k.items():
            candidate_counts[object_id] = (
                candidate_counts.get(object_id, 0) + count
            )
        for stats in report.stats_top_k:
            object_id = stats.object_id
            object_reads[object_id] = (
                object_reads.get(object_id, 0) + stats.reads
            )
            object_writes[object_id] = (
                object_writes.get(object_id, 0) + stats.writes
            )
            object_size_sum[object_id] = (
                object_size_sum.get(object_id, 0.0)
                + stats.mean_size * stats.accesses
            )
        tail_reads += report.stats_tail.reads
        tail_writes += report.stats_tail.writes
        tail_size_sum += (
            report.stats_tail.mean_size * report.stats_tail.accesses
        )
    merged_candidates = dict(
        sorted(
            candidate_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_k]
    )
    merged_objects: list[ObjectStats] = []
    for object_id in object_reads:
        accesses = object_reads[object_id] + object_writes[object_id]
        merged_objects.append(
            ObjectStats(
                object_id=object_id,
                reads=object_reads[object_id],
                writes=object_writes[object_id],
                mean_size=(
                    object_size_sum[object_id] / accesses if accesses else 0.0
                ),
            )
        )
    tail_accesses = tail_reads + tail_writes
    merged_tail = AggregateStats(
        reads=tail_reads,
        writes=tail_writes,
        mean_size=tail_size_sum / tail_accesses if tail_accesses else 0.0,
    )
    return merged_candidates, merged_objects, merged_tail, throughput


class AutonomicManager(Node):
    """The control loop driving Q-OPT's self-tuning."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        proxies: list[NodeId],
        reconfig_manager: NodeId | list[NodeId],
        oracle: NodeId,
        detector: FailureDetector,
        config: AutonomicConfig,
        initial_default: QuorumConfig,
        suspect_poll_interval: float = 0.05,
        retransmit_interval: float = 0.5,
        obs: Optional[Observability] = None,
        node_id: Optional[NodeId] = None,
    ) -> None:
        # A sharded deployment runs one AM per shard, so the singleton
        # id is only the default, not an invariant.
        super().__init__(
            sim,
            network,
            node_id or NodeId.singleton(NodeKind.AUTONOMIC_MANAGER),
        )
        self._obs = obs
        self._tracer = tracer_for(obs)
        if not proxies:
            raise ConfigurationError("AM needs at least one proxy")
        self._proxies = list(proxies)
        # One or more RM targets: with a replicated RM (see
        # repro.reconfig.replicated) requests fail over to the next
        # non-suspected member.
        if isinstance(reconfig_manager, NodeId):
            self._rm_targets = [reconfig_manager]
        else:
            self._rm_targets = list(reconfig_manager)
        if not self._rm_targets:
            raise ConfigurationError("AM needs at least one RM target")
        self._oracle = oracle
        self._detector = detector
        # Validated by the attach_* function that builds this manager.
        self.config = config
        self._poll = suspect_poll_interval
        # Requests whose reply never arrives (lost message, lost reply)
        # are re-sent at this cadence; every peer handles duplicates.
        self._retransmit = max(retransmit_interval, suspect_poll_interval)
        self.retransmissions = 0

        # Local view of what is installed.
        self._installed_default = initial_default
        self._installed_overrides: dict[ObjectId, QuorumConfig] = {}
        #: Objects under per-object management (monitored forever after).
        self._managed: set[ObjectId] = set()

        # Round plumbing.
        self._round_no = 0
        self._round_reports: dict[NodeId, RoundStats] = {}
        self._oracle_replies: dict[int, NewQuorums] = {}
        self._tail_reply: Optional[TailQuorum] = None
        self._ack_rec: Optional[AckRec] = None
        self._wakeup: Optional[Future] = None

        # Observability / experiment hooks.
        self.rounds_executed = 0
        self.fine_reconfigurations = 0
        self.coarse_reconfigurations = 0
        self.cycles_completed = 0
        self.round_throughputs: list[tuple[float, float]] = []
        self._kpi_filter = MedianFilter(window=config.kpi_filter_window)
        self._loop_started = False

        self.register_handler(RoundStats, self._on_round_stats)
        self.register_handler(NewQuorums, self._on_new_quorums)
        self.register_handler(TailQuorum, self._on_tail_quorum)
        self.register_handler(AckRec, self._on_ack_rec)

    # -- read-only views ------------------------------------------------------

    @property
    def installed_default(self) -> QuorumConfig:
        return self._installed_default

    @property
    def installed_overrides(self) -> dict[ObjectId, QuorumConfig]:
        return dict(self._installed_overrides)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        super().start()
        if not self._loop_started:
            self._loop_started = True
            self.spawn(self._control_loop(), name=f"{self.node_id}.loop")

    # -- the control loop (Algorithm 1) --------------------------------------------

    def _control_loop(self) -> Iterator:
        while self.alive:
            yield from self._optimization_cycle()
            self.cycles_completed += 1

    def _optimization_cycle(self) -> Iterator:
        """One full Algorithm 1 cycle: fine-grain rounds, then the tail."""
        config = self.config
        kpi_history: list[float] = []
        fine_rounds = 0
        while config.enable_fine_grain:
            # Let a monitoring window elapse before collecting stats.
            yield self.sim.sleep(config.round_duration)
            reports = yield from self._run_round()
            candidates, object_stats, tail_stats, throughput = (
                merge_round_stats(reports, config.top_k)
            )
            self.round_throughputs.append((self.sim.now, throughput))
            kpi_history.append(
                self._kpi_filter.update(self._kpi_value(reports, throughput))
            )
            fine_rounds += 1

            # Feed the Oracle with the merged per-object profiles and
            # install any overrides that differ from the current plan.
            if object_stats:
                quorums = yield from self._ask_oracle(object_stats)
                changed = {
                    object_id: quorum
                    for object_id, quorum in quorums.items()
                    if self._installed_overrides.get(object_id) != quorum
                }
                if changed:
                    yield from self._fine_reconfigure(changed)

            # Next round monitors the new candidates plus everything
            # already under per-object management.
            self._managed.update(candidates)
            self._broadcast_proxies(
                NewTopK(
                    round_no=self._round_no,
                    object_ids=frozenset(self._managed),
                )
            )

            if fine_rounds >= config.max_rounds:
                break
            if not self._still_improving(kpi_history):
                break

        # Tail optimization (Algorithm 1 lines 18-23).
        yield self.sim.sleep(config.round_duration)
        reports = yield from self._run_round()
        _candidates, _object_stats, tail_stats, throughput = (
            merge_round_stats(reports, config.top_k)
        )
        self.round_throughputs.append((self.sim.now, throughput))
        if tail_stats.accesses > 0:
            tail_quorum = yield from self._ask_oracle_tail(tail_stats)
            if tail_quorum != self._installed_default:
                yield from self._coarse_reconfigure(tail_quorum)

    def _kpi_value(self, reports: list[RoundStats], throughput: float) -> float:
        """The target KPI for one round, oriented so higher is better.

        ``throughput`` mode uses total completed operations per second;
        ``latency`` mode uses the inverse of the throughput-weighted mean
        operation latency across proxies.
        """
        if self.config.kpi == "throughput":
            return throughput
        weight_total = sum(r.throughput for r in reports)
        if weight_total <= 0:
            return 0.0
        weighted_latency = (
            sum(r.mean_latency * r.throughput for r in reports) / weight_total
        )
        if weighted_latency <= 0:
            return 0.0
        return 1.0 / weighted_latency

    def _still_improving(self, history: list[float]) -> bool:
        """The while-condition of Algorithm 1: mean relative KPI gain
        over the last ``gamma`` rounds is at least ``theta``."""
        gamma = self.config.gamma
        if len(history) < gamma + 1:
            return True
        gains = []
        for index in range(len(history) - gamma, len(history)):
            previous = history[index - 1]
            if previous <= 0:
                gains.append(0.0)
            else:
                gains.append((history[index] - previous) / previous)
        return sum(gains) / gamma >= self.config.theta

    # -- round execution ----------------------------------------------------------

    def _run_round(self) -> Iterator:
        """Broadcast NEWROUND and gather ROUNDSTATS from live proxies."""
        self._round_no += 1
        self.rounds_executed += 1
        self._round_reports = {}
        message = NewRound(round_no=self._round_no)
        self._broadcast_proxies(message)
        since_send = 0.0
        while True:
            missing = [
                proxy
                for proxy in self._proxies
                if proxy not in self._round_reports
            ]
            if not missing:
                break
            if all(self._detector.suspect(proxy) for proxy in missing):
                break
            yield self.sim.sleep(self._poll)
            since_send += self._poll
            if since_send >= self._retransmit:
                # A lost NEWROUND (or lost ROUNDSTATS) must not wedge the
                # control loop; proxies answer duplicates from a cached
                # report, so retransmitting is safe.
                since_send = 0.0
                for proxy in missing:
                    if self._detector.suspect(proxy):
                        continue
                    self.retransmissions += 1
                    self.send(proxy, message, size=_CONTROL_BYTES)
        return list(self._round_reports.values())

    def _ask_oracle(self, object_stats: list[ObjectStats]) -> Iterator:
        round_no = self._round_no
        message = NewStats(round_no=round_no, stats=tuple(object_stats))
        size = _CONTROL_BYTES + 64 * len(object_stats)
        self.send(self._oracle, message, size=size)
        since_send = 0.0
        while round_no not in self._oracle_replies:
            yield self.sim.sleep(self._poll)
            since_send += self._poll
            if since_send >= self._retransmit:
                since_send = 0.0
                self.retransmissions += 1
                self.send(self._oracle, message, size=size)
        reply = self._oracle_replies.pop(round_no)
        return dict(reply.quorums)

    def _ask_oracle_tail(self, tail_stats: AggregateStats) -> Iterator:
        self._tail_reply = None
        message = TailStats(stats=tail_stats)
        self.send(self._oracle, message, size=_CONTROL_BYTES)
        since_send = 0.0
        while self._tail_reply is None:
            yield self.sim.sleep(self._poll)
            since_send += self._poll
            if since_send >= self._retransmit:
                since_send = 0.0
                self.retransmissions += 1
                self.send(self._oracle, message, size=_CONTROL_BYTES)
        return self._tail_reply.quorum

    def _current_rm(self) -> NodeId:
        """First RM target the failure detector does not suspect."""
        for target in self._rm_targets:
            if not self._detector.suspect(target):
                return target
        return self._rm_targets[-1]

    def _request_reconfiguration(
        self, payload: object, size: int, expected_round: int
    ) -> Iterator:
        """Send a reconfiguration request, failing over between RM
        replicas — and retransmitting to an unsuspected one — until the
        matching ACKREC arrives.  ``expected_round`` filters out stale
        acks from duplicate earlier requests (fine rounds use their round
        number, coarse requests use -1)."""
        self._ack_rec = None
        target = self._current_rm()
        self.send(target, payload, size=size)
        since_send = 0.0
        while (
            self._ack_rec is None
            or self._ack_rec.round_no != expected_round
        ):
            yield self.sim.sleep(self._poll)
            since_send += self._poll
            fresh = self._current_rm()
            if fresh != target:
                target = fresh
                since_send = 0.0
                self.send(target, payload, size=size)
            elif since_send >= self._retransmit:
                since_send = 0.0
                self.retransmissions += 1
                self.send(target, payload, size=size)

    def _fine_reconfigure(
        self, quorums: dict[ObjectId, QuorumConfig]
    ) -> Iterator:
        yield from self._request_reconfiguration(
            FineRec(round_no=self._round_no, quorums=dict(quorums)),
            size=_CONTROL_BYTES + 32 * len(quorums),
            expected_round=self._round_no,
        )
        self._installed_overrides.update(quorums)
        self.fine_reconfigurations += 1
        yield from self._quarantine("fine")

    def _quarantine(self, kind: str) -> Iterator:
        """Post-reconfiguration settling period (Section 4's quarantine)."""
        started_at = self.sim.now
        span = self._tracer.start_span(
            "am.quarantine",
            category="autonomic",
            node=self._name,
            kind=kind,
        )
        yield self.sim.sleep(self.config.quarantine)
        span.finish(status="ok")
        if self._obs is not None:
            self._obs.reconfig_quarantine.observe(self.sim.now - started_at)

    def _coarse_reconfigure(self, quorum: QuorumConfig) -> Iterator:
        yield from self._request_reconfiguration(
            CoarseRec(quorum=quorum), size=_CONTROL_BYTES,
            expected_round=-1,
        )
        self._installed_default = quorum
        self.coarse_reconfigurations += 1
        yield from self._quarantine("coarse")

    # -- message handlers ------------------------------------------------------------

    def _on_round_stats(self, envelope: Envelope) -> None:
        report: RoundStats = envelope.payload
        if report.round_no == self._round_no:
            self._round_reports[report.proxy] = report

    def _on_new_quorums(self, envelope: Envelope) -> None:
        reply: NewQuorums = envelope.payload
        self._oracle_replies[reply.round_no] = reply

    def _on_tail_quorum(self, envelope: Envelope) -> None:
        self._tail_reply = envelope.payload

    def _on_ack_rec(self, envelope: Envelope) -> None:
        self._ack_rec = envelope.payload

    def _broadcast_proxies(self, payload: object) -> None:
        for proxy in self._proxies:
            self.send(proxy, payload, size=_CONTROL_BYTES)
