"""Proxy node: Algorithms 3, 4 and 5 of the paper.

Proxies are the SDS front-end (Figure 1): they turn client reads/writes
into quorum accesses on the storage tier, and they are the participants
of the non-blocking reconfiguration protocol:

* **Algorithm 4 (read)** — gather the object's read quorum, pick the
  freshest version; if that version was written under an older quorum
  configuration whose write quorum may not intersect the current read
  quorum, re-read with the largest read quorum installed since, and
  asynchronously write the value back under the current configuration.
* **Algorithm 5 (write)** — gather write-quorum acks for a totally
  ordered (timestamp, proxy-id) stamped version.
* **Algorithm 3 (reconfiguration)** — on NEWQ, switch to the transition
  quorum, drain pending old-quorum operations, ack; on CONFIRM, switch to
  the new quorum.  Epoch NACKs from storage nodes teach the proxy about
  epochs it missed and trigger op re-execution.

The proxy also hosts the monitoring hooks of Algorithm 1: per-access
recording into a top-k stream summary and per-round statistics shipping
to the Autonomic Manager.
"""

from __future__ import annotations

import itertools
import random
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

from repro.common.config import ProxyConfig
from repro.common.errors import GatherTimeoutError, OperationError
from repro.common.types import (
    NodeId,
    ObjectId,
    OpType,
    Version,
    VersionStamp,
)
from repro.obs.context import Observability, tracer_for
from repro.obs.trace import Span
from repro.sds.messages import (
    AckConfirm,
    AckNewQuorum,
    AckPause,
    ClientOperationFailed,
    ClientRead,
    ClientReadReply,
    ClientWrite,
    ClientWriteReply,
    Confirm,
    EpochNack,
    LeaseGrant,
    LeaseNack,
    LeaseRead,
    LeaseReadReply,
    LeaseRequest,
    NewQuorum,
    NewRound,
    NewTopK,
    PauseProxy,
    ReplicaRead,
    ReplicaReadReply,
    ReplicaWrite,
    ReplicaWriteReply,
    ResumeProxy,
    RoundStats,
)
from repro.net.transport import Transport
from repro.sds.quorum import ConfigurationHistory, QuorumPlan, QuorumSystem
from repro.sds.ring import PlacementRing, _hash64
from repro.sds.vector_clocks import TimestampVersioning
from repro.sim.kernel import Future, Simulator, Timer
from repro.sim.network import Envelope
from repro.sim.node import Node
from repro.sim.primitives import Gate, PendingCounter, Resource, wait_for
from repro.topk.stats import ProxyStatsRecorder

if TYPE_CHECKING:
    from repro.metrics.timeline import EventTimeline

#: Wire overhead of a request/reply beyond the object payload, bytes.
_HEADER_BYTES = 256

#: Write-stamp replay window per client (must exceed any sane client
#: pipeline depth; ids are monotonic so eviction is oldest-first).
_WRITE_STAMP_CACHE = 128


class _Gather:
    """In-flight quorum collection for one replica-level operation.

    When ``required`` names a replica, the gather does not resolve until
    that replica's reply is among the collected ones, even past
    ``needed`` — the mandatory-primary write rule of invariant I7.
    """

    __slots__ = ("needed", "required", "replies", "future")

    def __init__(
        self,
        needed: int,
        future: Future,
        required: Optional[NodeId] = None,
    ) -> None:
        self.needed = needed
        self.required = required
        self.replies: list = []
        self.future = future

    def add_reply(self, reply: Any) -> None:
        if self.future.done:
            return
        self.replies.append(reply)
        if len(self.replies) < self.needed:
            return
        if self.required is not None and all(
            reply.replica != self.required for reply in self.replies
        ):
            return
        self.future.resolve(("ok", list(self.replies)))

    def add_nack(self, nack: EpochNack) -> None:
        if self.future.done:
            return
        self.future.resolve(("nack", nack))


class _HeldLease:
    """A proxy-side record of a lease granted by an object's primary.

    ``expiry`` is advisory at the proxy (the primary re-validates every
    lease read against its own clock); it only gates whether the fast
    path is worth attempting.  Mutable: served lease reads slide it
    forward without reallocating.
    """

    __slots__ = ("expiry", "epoch_no")

    def __init__(self, expiry: float, epoch_no: int) -> None:
        self.expiry = expiry
        self.epoch_no = epoch_no


class ProxyNode(Node):
    """One Swift proxy process."""

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        node_id: NodeId,
        ring: PlacementRing,
        config: ProxyConfig,
        initial_plan: QuorumPlan,
        rng: random.Random,
        stats: Optional[ProxyStatsRecorder] = None,
        versioning: Any = None,
        events: Optional[EventTimeline] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(sim, network, node_id)
        self._versioning = versioning or TimestampVersioning()
        self._ring = ring
        self._config = config.validate()
        self._rng = rng
        self._cpu = Resource(
            sim, concurrency=config.concurrency, name=f"{node_id}.cpu"
        )
        self._rotation = _hash64(str(node_id))

        # Algorithm 3 state.
        self._epoch_no = 0
        self._cfg_no = 0
        self._confirmed_cfg_no = 0
        self._current_plan = initial_plan
        self._transition_plan: Optional[QuorumPlan] = None
        self._history = ConfigurationHistory()
        self._history.record(0, initial_plan)
        self._inflight = PendingCounter(sim)
        # Ablation A3 hook: the stop-the-world baseline closes this gate.
        self._pause_gate = Gate(sim, open_=True)

        # Replica-level op routing.
        self._op_seq = itertools.count(1)
        self._gathers: dict[int, _Gather] = {}

        # Monitoring (Algorithm 1 proxy side).
        self.stats = stats
        self._round_started_at = 0.0
        self._round_completed = 0
        self._round_latency_sum = 0.0
        self._last_round_no = 0
        self._last_round_stats: Optional[RoundStats] = None

        # Observability.
        self._events = events
        self._obs = obs
        self._tracer = tracer_for(obs)
        self.operations_completed = 0
        self.operation_retries = 0
        self.read_repairs = 0
        self.write_backs = 0
        # Highest stamp per object known to sit on a full write quorum
        # (own completed writes and write-backs, or an agreed
        # self-intersecting read) — reads of covered stamps skip the
        # ABD phase-2 write-back in _stabilise.
        self._stable: dict[ObjectId, VersionStamp] = {}
        # Stamp minted per (client, request_id): a client's retry of the
        # same logical write must reuse the first attempt's stamp — a
        # fresh stamp would resurrect the retried (old) value above
        # writes that completed in between, breaking linearizability.
        # Pipelined clients keep up to ``pipeline_depth`` logical writes
        # in flight, so the cache holds a bounded window of recent
        # request ids per client (ids are monotonic per client; a client
        # only ever retries ids younger than the eviction horizon).
        self._write_stamps: dict[NodeId, dict[int, VersionStamp]] = {}
        self.resubmitted_writes = 0
        self.gather_timeouts = 0
        self.operations_failed = 0

        # Per-object read leases (invariant I7).  Both the write-side
        # rule (primary ack mandatory) and the read-side fast path follow
        # the *static* config flag, so every proxy in the fleet applies
        # them uniformly.
        self._leases: dict[ObjectId, _HeldLease] = {}
        self._lease_pending: dict[ObjectId, float] = {}
        self.lease_read_hits = 0
        self.lease_read_misses = 0
        self.leases_acquired = 0
        self.lease_requests_sent = 0
        self._sync_optimized()

        self.register_handler(ClientRead, self._on_client_read)
        self.register_handler(ClientWrite, self._on_client_write)
        self.register_handler(ReplicaReadReply, self._on_replica_reply)
        self.register_handler(ReplicaWriteReply, self._on_replica_reply)
        self.register_handler(EpochNack, self._on_epoch_nack)
        self.register_handler(LeaseReadReply, self._on_replica_reply)
        self.register_handler(LeaseGrant, self._on_lease_grant)
        self.register_handler(LeaseNack, self._on_lease_nack)
        self.register_handler(NewQuorum, self._on_new_quorum)
        self.register_handler(Confirm, self._on_confirm)
        self.register_handler(NewRound, self._on_new_round)
        self.register_handler(NewTopK, self._on_new_top_k)
        self.register_handler(PauseProxy, self._on_pause)
        self.register_handler(ResumeProxy, self._on_resume)

    # -- read-only views ----------------------------------------------------

    @property
    def epoch_no(self) -> int:
        return self._epoch_no

    @property
    def cfg_no(self) -> int:
        return self._cfg_no

    @property
    def in_transition(self) -> bool:
        return self._transition_plan is not None

    def active_plan(self) -> QuorumPlan:
        """The plan governing operations issued right now.

        During phase 1 of a reconfiguration this is the transition plan
        (pairwise max of old and new quorums); otherwise the installed
        plan.
        """
        return self._transition_plan or self._current_plan

    # -- client-facing operations (Algorithms 4 and 5) -------------------------

    def _on_client_read(self, envelope: Envelope) -> Iterator:
        return self._serve(envelope, OpType.READ, 0, self._serve_read)

    def _on_client_write(self, envelope: Envelope) -> Iterator:
        request: ClientWrite = envelope.payload
        return self._serve(
            envelope, OpType.WRITE, request.size, self._serve_write
        )

    def _serve(
        self,
        envelope: Envelope,
        op_type: OpType,
        access_size: int,
        body: Callable[[Envelope, Span], Iterator],
    ) -> Iterator:
        """One client operation's lifecycle around its Algorithm 4/5 body.

        ``body`` returns the client reply and its wire size; an
        :class:`OperationError` it raises becomes a typed
        :class:`ClientOperationFailed` instead of silence.
        """
        request = envelope.payload
        yield self._pause_gate.wait()
        if self.stats is not None:
            self.stats.record_access(request.object_id, op_type, access_size)
        started_at = self.sim.now
        # The counter live at the operation's start: a NEWQ swaps in a
        # fresh one and drains exactly the operations begun before it.
        counter = self._inflight
        counter.increment()
        kind = op_type.value
        span = self._tracer.start_span(
            f"proxy.{kind}",
            category="proxy",
            node=self._name,
            parent=envelope.trace,
            object=request.object_id,
        )
        try:
            reply, size = yield from body(envelope, span)
        except OperationError as error:
            # Graceful degradation: tell the client, instead of going
            # silent.
            span.finish(status="failed")
            self.operations_failed += 1
            attempts = getattr(error, "attempts", 0)
            self._record(
                "op-failed", f"{kind} {request.object_id} attempts={attempts}"
            )
            reply = ClientOperationFailed(
                object_id=request.object_id,
                request_id=request.request_id,
                kind=kind,
                attempts=attempts,
            )
            self.send(envelope.sender, reply, size=_HEADER_BYTES)
            return
        finally:
            # Decrement unconditionally: a timed-out operation must not
            # wedge the NEWQ drain barrier of Algorithm 3.
            counter.decrement()
        span.finish(status="ok")
        self.send(envelope.sender, reply, size=size)
        self.operations_completed += 1
        self._round_completed += 1
        self._round_latency_sum += self.sim.now - started_at

    def _serve_read(self, envelope: Envelope, span: Span) -> Iterator:
        request: ClientRead = envelope.payload
        version = yield from self._read(request.object_id, span)
        if self.stats is not None:
            self.stats.record_access_size(request.object_id, version.size)
        reply = ClientReadReply(
            object_id=request.object_id,
            version=version,
            request_id=request.request_id,
        )
        return reply, _HEADER_BYTES + version.size

    def _serve_write(self, envelope: Envelope, span: Span) -> Iterator:
        request: ClientWrite = envelope.payload
        stamp = self._write_stamp(envelope.sender, request)
        yield from self._write(
            request.object_id, request.value, request.size, stamp, span,
            phase="p1",
        )
        self._note_stable(request.object_id, stamp)
        reply = ClientWriteReply(
            object_id=request.object_id, request_id=request.request_id
        )
        return reply, _HEADER_BYTES

    def _write_stamp(
        self, client: NodeId, request: ClientWrite
    ) -> VersionStamp:
        """The stamp of a client write: minted once, replayed on retry.

        Called behind the pause gate (the A3 stop-the-world baseline
        closes it), so a paused write is stamped when it resumes.
        """
        stamps = self._write_stamps.get(client)
        if stamps is None:
            stamps = self._write_stamps[client] = {}
        cached = stamps.get(request.request_id)
        if cached is not None:
            self.resubmitted_writes += 1
            return cached
        stamp = self._versioning.next_stamp(
            self._name, request.object_id, self.sim.now
        )
        stamps[request.request_id] = stamp
        if len(stamps) > _WRITE_STAMP_CACHE:
            # Dicts iterate in insertion order: evict the oldest
            # request id (deterministic; far older than any id a
            # depth-bounded client could still retry).
            del stamps[next(iter(stamps))]
        return stamp

    def _read(self, object_id: ObjectId, span: Span) -> Iterator:
        """Algorithm 4 body; returns the freshest safe :class:`Version`.

        Raises :class:`GatherTimeoutError` once every gather attempt —
        each against the next ring rotation, to route around a faulty
        preferred replica set — has exhausted its deadline.
        """
        started_at = self.sim.now
        if self._lease_feature_on():
            reply = yield from self._lease_read(object_id, span)
            if reply is not None:
                version = reply.version
                if version.value is not None:
                    # A lease read returns the primary's *current*
                    # version, which mandatory-primary writes keep at
                    # least as fresh as any completed write — but it may
                    # still be a partial (in-flight or abandoned) write,
                    # so it goes through the same stability discipline
                    # as a quorum read before reaching the client.  In
                    # steady state the stamp is already memoised stable
                    # and this costs nothing.
                    yield from self._stabilise(
                        object_id, version, [reply], span
                    )
                self._versioning.observe(object_id, version.stamp)
                return version

        def make_request(op_id: int) -> Tuple[Any, int]:
            return (
                ReplicaRead(
                    object_id=object_id,
                    epoch_no=self._epoch_no,
                    op_id=op_id,
                ),
                _HEADER_BYTES,
            )

        timeouts = 0
        while True:
            read_quorum = self.active_plan().quorum_for(object_id).read
            replies, timeouts = yield from self._gather(
                object_id, read_quorum, make_request,
                "read", started_at, timeouts, span, phase="p1",
            )
            if replies is None:
                continue
            version = self._freshest(replies)
            # Lines 10-17: was the version written under a configuration
            # whose write quorum might not intersect our read quorum?
            repair_quorum = self._history.max_read_quorum(
                object_id, version.cfg_no, self._cfg_no
            )
            if repair_quorum > read_quorum:
                self.read_repairs += 1
                replies, timeouts = yield from self._gather(
                    object_id, repair_quorum, make_request,
                    "read", started_at, timeouts, span, phase="p2",
                )
                if replies is None:
                    continue
                version = self._freshest(replies)
            yield from self._stabilise(object_id, version, replies, span)
            self._versioning.observe(object_id, version.stamp)
            self._maybe_request_lease(object_id)
            return version

    def _write(
        self,
        object_id: ObjectId,
        value: bytes,
        size: int,
        stamp: VersionStamp,
        span: Span,
        phase: Optional[str] = None,
    ) -> Iterator:
        """Algorithm 5 body.

        Raises :class:`GatherTimeoutError` after exhausting all rotation
        retries, like :meth:`_read`.  ``phase`` labels the gather
        histogram ("p1" for client writes, ``None`` for stabilise
        write-backs, which are accounted separately).
        """
        started_at = self.sim.now

        def make_request(op_id: int) -> Tuple[Any, int]:
            return (
                ReplicaWrite(
                    object_id=object_id,
                    value=value,
                    size=size,
                    stamp=stamp,
                    epoch_no=self._epoch_no,
                    cfg_no=self._cfg_no,
                    op_id=op_id,
                ),
                _HEADER_BYTES + size,
            )

        timeouts = 0
        replies = None
        while replies is None:
            write_quorum = self.active_plan().quorum_for(object_id).write
            # Invariant I7: with leases enabled the object's primary must
            # ack every write, so its copy is always at least as fresh as
            # any completed write and it can break foreign leases on
            # every one.  The flag is static cluster config, never the
            # runtime read toggle — a fleet with mixed write rules would
            # be unsound.
            required = (
                self._primary(object_id) if self._lease_feature_on() else None
            )
            replies, timeouts = yield from self._gather(
                object_id, write_quorum, make_request,
                "write", started_at, timeouts, span, phase, required,
            )

    def _next_attempt(
        self,
        kind: str,
        object_id: ObjectId,
        timeouts: int,
        started_at: float,
    ) -> int:
        """Account one gather timeout; raise once the retry budget is spent."""
        timeouts += 1
        self.gather_timeouts += 1
        if self._obs is not None:
            self._obs.gather_timeouts.inc()
        if timeouts >= self._config.max_gather_attempts:
            self._record(
                "gather-exhausted", f"{kind} {object_id} attempts={timeouts}"
            )
            raise GatherTimeoutError(
                f"{kind} of {object_id} found no responsive quorum after "
                f"{timeouts} attempts",
                object_id=str(object_id),
                elapsed=self.sim.now - started_at,
                attempts=timeouts,
            )
        self._record(
            "gather-retry", f"{kind} {object_id} rotation+{timeouts}"
        )
        return timeouts

    def _stabilise(
        self,
        object_id: ObjectId,
        version: Version,
        replies: list[ReplicaReadReply],
        parent: Span,
    ) -> Iterator:
        """Write the freshest version back to a full write quorum before
        the read returns it (ABD phase 2; Alg. 4 line 27).

        A writer that crashes or exhausts its retries mid-quorum leaves a
        *partial* write behind; a read that observes it and returns
        without this step could expose a value a later read fails to
        find.  The round trip is skipped only when it is provably
        redundant: every reply already carries the version and read
        quorums self-intersect (2r > n), so any later read meets a
        replica that stores it.  A write-back that itself finds no
        responsive quorum fails the read with the usual typed error —
        an unstable value must never reach the client.

        Stability is memoised per object: a stamp this proxy has itself
        pushed to a full write quorum (a completed client write or an
        earlier write-back) is durable, so reads that return it — the
        steady state, including every read under R=1 where a lone reply
        can never self-certify — cost no extra round trip.
        """
        if version.value is None:
            return
        # Equality only: knowing a *higher* stamp sits on some write
        # quorum says nothing about the stability of the older value
        # this gather actually returned (quorum shapes shift under
        # per-object reconfiguration), so `<` must still write back.
        if self._stable.get(object_id) == version.stamp:
            return
        agreed = all(
            reply.version.stamp == version.stamp for reply in replies
        )
        if agreed and 2 * len(replies) > self._ring.replication_degree:
            self._note_stable(object_id, version.stamp)
            return
        self.write_backs += 1
        started_at = self.sim.now
        span = self._tracer.start_span(
            "proxy.stabilise",
            category="proxy",
            node=self._name,
            parent=parent.context(),
            object=object_id,
        )
        try:
            yield from self._write(
                object_id, version.value, version.size, version.stamp, span
            )
        except OperationError:
            span.finish(status="failed")
            raise
        span.finish(status="ok")
        if self._obs is not None:
            self._obs.stabilise.observe(self.sim.now - started_at)
        self._note_stable(object_id, version.stamp)

    def _note_stable(self, object_id: ObjectId, stamp: VersionStamp) -> None:
        current = self._stable.get(object_id)
        if current is None or current < stamp:
            self._stable[object_id] = stamp

    # -- per-object read leases (invariant I7) ---------------------------------

    def _lease_feature_on(self) -> bool:
        return self._config.lease_duration > 0

    def leases_held(self) -> int:
        """Number of objects this proxy currently holds a lease on."""
        return len(self._leases)

    def _primary(self, object_id: ObjectId) -> NodeId:
        return self._ring.replicas(object_id)[0]

    def _lease_read(self, object_id: ObjectId, span: Span) -> Iterator:
        """Attempt the one-replica fast path; ``None`` means fall back.

        The proxy-side expiry check (minus ``lease_skew_bound``) is
        purely advisory: the primary re-validates the grant against its
        own clock, so clock skew can only cost a wasted round trip and a
        fall-back to the quorum path, never a stale read.
        """
        held = self._leases.get(object_id)
        if held is None or held.epoch_no != self._epoch_no:
            return None
        if self.sim.now >= held.expiry - self._config.lease_skew_bound:
            del self._leases[object_id]
            return None
        op_id = next(self._op_seq)
        gather = _Gather(
            needed=1, future=self.sim.future(name=f"lease-read-{op_id}")
        )
        self._gathers[op_id] = gather
        trace = span.context()
        try:
            yield self._cpu.use(self._config.per_replica_cpu)
            self.send(
                self._primary(object_id),
                LeaseRead(
                    object_id=object_id,
                    epoch_no=self._epoch_no,
                    op_id=op_id,
                ),
                size=_HEADER_BYTES,
                trace=trace,
            )
            answered = yield wait_for(
                self.sim, gather.future, self._config.fallback_timeout
            )
            status, result = (
                gather.future.value if answered else ("timeout", None)
            )
            if status != "ok":
                self.lease_read_misses += 1
                self._leases.pop(object_id, None)
                if status == "nack":
                    self._adopt_from_nack(result)
                return None
            reply: LeaseReadReply = result[0]
            self.lease_read_hits += 1
            # Sliding renewal: the served read refreshed the grant.
            held = self._leases.get(object_id)
            if held is not None and reply.expiry > held.expiry:
                held.expiry = reply.expiry
            return reply
        finally:
            del self._gathers[op_id]

    def _maybe_request_lease(self, object_id: ObjectId) -> None:
        """Fire-and-forget lease acquisition after a quorum read.

        Requesting *after* a successful quorum read (rather than on the
        fast-path miss) keeps acquisition off the latency path and
        naturally targets the read-heavy objects leases pay off for.
        A per-object dedup window bounds request traffic while a grant
        or nack is in flight.
        """
        if not self._lease_feature_on():
            return
        if object_id in self._leases:
            return
        now = self.sim.now
        pending = self._lease_pending.get(object_id)
        if pending is not None and now < pending:
            return
        self._lease_pending[object_id] = now + self._config.fallback_timeout
        self.lease_requests_sent += 1
        self.send(
            self._primary(object_id),
            LeaseRequest(
                object_id=object_id,
                epoch_no=self._epoch_no,
                duration=self._config.lease_duration,
                op_id=next(self._op_seq),
            ),
            size=_HEADER_BYTES,
        )

    def _on_lease_grant(self, envelope: Envelope) -> None:
        grant: LeaseGrant = envelope.payload
        self._lease_pending.pop(grant.object_id, None)
        if grant.epoch_no != self._epoch_no:
            # Granted under an epoch we have already left (or not yet
            # reached): unusable either way — the primary will fence it.
            return
        held = self._leases.get(grant.object_id)
        if held is None:
            self._leases[grant.object_id] = _HeldLease(
                grant.expiry, grant.epoch_no
            )
            self.leases_acquired += 1
        elif grant.expiry > held.expiry:
            held.expiry = grant.expiry
            held.epoch_no = grant.epoch_no

    def _on_lease_nack(self, envelope: Envelope) -> None:
        nack: LeaseNack = envelope.payload
        gather = self._gathers.get(nack.op_id)
        if gather is not None:
            # Rejected lease *read*: resolve the fast-path future with a
            # distinct outcome — unlike an EpochNack this carries no
            # plan, so a quarantined primary cannot drag us onto stale
            # epoch state.
            if not gather.future.done:
                gather.future.resolve(("lease-nack", nack))
            return
        # Rejected lease *request* (fire-and-forget): clear the dedup
        # window and any lease we optimistically still hold.
        self._lease_pending.pop(nack.object_id, None)
        self._leases.pop(nack.object_id, None)

    def _drop_all_leases(self) -> None:
        self._leases.clear()
        self._lease_pending.clear()

    # -- quorum gathering --------------------------------------------------------

    def _gather(
        self,
        object_id: ObjectId,
        quorum: int,
        make_request: Callable[[int], Tuple[Any, int]],
        kind: str,
        started_at: float,
        timeouts: int,
        parent: Span,
        phase: Optional[str] = None,
        required: Optional[NodeId] = None,
    ) -> Iterator:
        """One quorum attempt of Algorithm 4 or 5, with its retry step.

        Contacts ``quorum`` replicas of the ring order rotated by
        ``timeouts`` (so a retry lands on different nodes), falls back
        to the rest after ``fallback_timeout`` — the rarely-exercised
        failure path of Section 2.1 — and gives up at
        ``gather_deadline``, the bound that keeps the proxy from hanging
        on lost messages or crashed replicas.

        Returns ``(replies, timeouts)``; ``replies`` is ``None`` when the
        caller must retry.  An :class:`EpochNack` makes the proxy adopt
        the newer epoch first; a deadline charges :meth:`_next_attempt`,
        which raises :class:`GatherTimeoutError` once the operation
        (begun at ``started_at``) has spent its attempts.
        """
        order = self._ring.preferred_order(
            object_id, self._rotation + timeouts
        )
        if required is not None and required in order:
            # The mandatory replica is contacted first in every attempt
            # so steady-state gathers never wait on the fallback round.
            order = [required] + [r for r in order if r != required]
        quorum = min(quorum, len(order))
        op_id = next(self._op_seq)
        gather = _Gather(
            needed=quorum,
            future=self.sim.future(name=f"gather-{op_id}"),
            required=required,
        )
        self._gathers[op_id] = gather
        span = self._tracer.start_span(
            "proxy.gather",
            category="proxy",
            node=self._name,
            parent=parent.context(),
            object=object_id,
            op_id=op_id,
            quorum=quorum,
            phase=phase or "",
            rotation=timeouts,
        )
        trace = span.context()
        sent_at = self.sim.now
        deadline: Optional[Timer] = None
        try:
            # Marshalling cost on the proxy CPU, proportional to fan-out.
            yield self._cpu.use(self._config.per_replica_cpu * quorum)
            # The deadline clock starts once the requests hit the wire.
            deadline = self.sim.sleep(self._config.gather_deadline)
            payload, size = make_request(op_id)
            for replica in order[:quorum]:
                self.send(replica, payload, size=size, trace=trace)
            gathered = yield wait_for(
                self.sim, gather.future, self._config.fallback_timeout
            )
            if not gathered:
                for replica in order[quorum:]:
                    self.send(replica, payload, size=size, trace=trace)
                gathered = yield wait_for(self.sim, gather.future, deadline)
        finally:
            if deadline is not None:
                deadline.cancel()
            del self._gathers[op_id]
        if not gathered:
            span.finish(status="timeout")
            return None, self._next_attempt(
                kind, object_id, timeouts, started_at
            )
        status, result = gather.future.value
        span.finish(status=status)
        if status == "nack":
            self._adopt_from_nack(result)
            return None, timeouts
        obs = self._obs
        if obs is not None:
            elapsed = self.sim.now - sent_at
            if phase == "p1":
                obs.gather_p1.observe(elapsed)
            elif phase == "p2":
                obs.gather_p2.observe(elapsed)
        return result, timeouts

    def _on_replica_reply(self, envelope: Envelope) -> None:
        reply = envelope.payload
        gather = self._gathers.get(reply.op_id)
        if gather is not None:
            gather.add_reply(reply)

    def _on_epoch_nack(self, envelope: Envelope) -> None:
        nack: EpochNack = envelope.payload
        gather = self._gathers.get(nack.op_id)
        if gather is not None:
            gather.add_nack(nack)

    def _adopt_from_nack(self, nack: EpochNack) -> None:
        """Lines 5-8 of Alg. 4 / 8-11 of Alg. 5: learn the newer epoch."""
        self.operation_retries += 1
        if nack.epoch_no > self._epoch_no:
            self._epoch_no = nack.epoch_no
            self._cfg_no = nack.cfg_no
            self._confirmed_cfg_no = max(self._confirmed_cfg_no, nack.cfg_no)
            self._current_plan = nack.plan
            self._transition_plan = None
            self._history.record(nack.cfg_no, nack.plan)
            # Invariant I7: epoch change fences every lease — storage
            # nodes cleared their grant tables on NEWEP adoption.
            self._drop_all_leases()
            self._sync_optimized()

    @staticmethod
    def _freshest(replies: list[ReplicaReadReply]) -> Version:
        """Select the value with the freshest timestamp (Alg. 4 line 9)."""
        return max((reply.version for reply in replies), key=lambda v: v.stamp)

    # -- Algorithm 3: reconfiguration ------------------------------------------------

    def _on_new_quorum(self, envelope: Envelope) -> Iterator:
        message: NewQuorum = envelope.payload
        if self._epoch_no > message.epoch_no:
            return
        if message.cfg_no <= self._confirmed_cfg_no:
            # Retransmitted NEWQ for a configuration we already confirmed
            # (our earlier ack was lost): re-ack without re-entering the
            # transition, which would wedge the proxy in it forever.
            self.send(
                envelope.sender,
                AckNewQuorum(epoch_no=message.epoch_no, proxy=self.node_id),
                size=_HEADER_BYTES,
            )
            return
        self._epoch_no = message.epoch_no
        self._cfg_no = message.cfg_no
        self._history.record(message.cfg_no, message.plan)
        # Invariant I7: entering the new epoch fences held leases.
        self._drop_all_leases()
        # New reads/writes are processed using the transition quorum.
        self._transition_plan = QuorumSystem(
            self._ring.replication_degree
        ).transition_plan(self._current_plan, message.plan)
        # Wait until all pending operations issued under the old quorum
        # complete; operations started from now on belong to a fresh
        # counter and need not drain.
        draining = self._inflight
        self._inflight = PendingCounter(self.sim)
        yield draining.wait_drained()
        # Re-check the fence after draining: an EpochNack adoption may
        # have moved us past this NEWQ's epoch, in which case the RM has
        # already started a newer change and this ack is for a superseded
        # phase — drop it rather than vouch for a dead configuration.
        if self._epoch_no > message.epoch_no:
            return
        self.send(
            envelope.sender,
            AckNewQuorum(epoch_no=message.epoch_no, proxy=self.node_id),
            size=_HEADER_BYTES,
        )

    def _on_confirm(self, envelope: Envelope) -> None:
        message: Confirm = envelope.payload
        if self._epoch_no > message.epoch_no:
            return
        if message.cfg_no < self._confirmed_cfg_no:
            # Stale duplicate: ack it, but keep the newer installed plan.
            self.send(
                envelope.sender,
                AckConfirm(epoch_no=message.epoch_no, proxy=self.node_id),
                size=_HEADER_BYTES,
            )
            return
        self._epoch_no = message.epoch_no
        self._confirmed_cfg_no = message.cfg_no
        self._current_plan = message.plan
        self._transition_plan = None
        self._drop_all_leases()
        self._sync_optimized()
        self.send(
            envelope.sender,
            AckConfirm(epoch_no=message.epoch_no, proxy=self.node_id),
            size=_HEADER_BYTES,
        )

    def _on_pause(self, envelope: Envelope) -> Iterator:
        request: PauseProxy = envelope.payload
        self._pause_gate.close()
        yield self._inflight.wait_drained()
        self.send(
            envelope.sender,
            AckPause(token=request.token, proxy=self.node_id),
            size=_HEADER_BYTES,
        )

    def _on_resume(self, envelope: Envelope) -> None:
        del envelope
        self._pause_gate.open()

    def _sync_optimized(self) -> None:
        """Keep the stats recorder's notion of per-object overrides fresh."""
        if self.stats is not None:
            self.stats.set_optimized(frozenset(self._current_plan.overrides))

    # -- Algorithm 1: monitoring hooks ---------------------------------------

    def _on_new_round(self, envelope: Envelope) -> None:
        message: NewRound = envelope.payload
        if self.stats is None:
            return
        if message.round_no <= self._last_round_no:
            # Retransmitted NEWROUND (our ROUNDSTATS was lost): replay
            # the cached report rather than snapshotting a bogus,
            # near-empty round.
            if (
                message.round_no == self._last_round_no
                and self._last_round_stats is not None
            ):
                report = self._last_round_stats
                self.send(
                    envelope.sender,
                    report,
                    size=_HEADER_BYTES
                    + 64 * (len(report.top_k) + len(report.stats_top_k)),
                )
            return
        now = self.sim.now
        duration = max(now - self._round_started_at, 1e-9)
        throughput = self._round_completed / duration
        mean_latency = (
            self._round_latency_sum / self._round_completed
            if self._round_completed
            else 0.0
        )
        top_k, monitored, tail = self.stats.snapshot_round(
            already_optimized=frozenset(self._current_plan.overrides)
        )
        report = RoundStats(
            round_no=message.round_no,
            proxy=self.node_id,
            top_k=top_k,
            stats_top_k=monitored,
            stats_tail=tail,
            throughput=throughput,
            mean_latency=mean_latency,
        )
        self._last_round_no = message.round_no
        self._last_round_stats = report
        self.send(
            envelope.sender,
            report,
            size=_HEADER_BYTES + 64 * (len(top_k) + len(monitored)),
        )
        self._round_started_at = now
        self._round_completed = 0
        self._round_latency_sum = 0.0

    def _on_new_top_k(self, envelope: Envelope) -> None:
        message: NewTopK = envelope.payload
        if self.stats is not None:
            self.stats.set_monitored(message.object_ids)

    # -- event timeline -------------------------------------------------------

    def _record(self, label: str, detail: str = "") -> None:
        if self._events is not None:
            self._events.record(
                self.sim.now, "proxy", label, f"{self.node_id}: {detail}"
            )
