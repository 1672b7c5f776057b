"""Closed-loop workload clients.

The paper's load generators are closed: each client thread "injects a new
operation only after having received a reply for the previously submitted
operation" with zero think time (Section 2.2).  One :class:`ClientNode`
models one such thread, statically bound to a proxy.

Under fault injection a reply may never come — the proxy crashed, the
request or reply was lost, or the proxy itself gave up and answered
:class:`~repro.sds.messages.ClientOperationFailed`.  Each operation
therefore runs under a per-attempt deadline with bounded exponential
backoff (seeded jitter) between attempts, and after
``ClientConfig.max_attempts`` the operation surfaces a typed
:class:`~repro.common.errors.RetriesExhaustedError` instead of hanging
the closed loop forever.  Failed writes deliberately keep their
``completed_at = inf`` invocation record: the write may still take
effect later, and a linearizability checker must treat it as forever
concurrent.

**Pipelining** (``pipeline_depth``): one client may run several
issue-loop *slots*, each a closed loop of its own, so up to ``depth``
logical operations are in flight concurrently — the classic lever when
per-op latency, not server capacity, bounds a closed-loop benchmark.
Every logical operation still owns a unique ``request_id`` that all its
retries reuse, so the proxy's write-stamp replay works per operation and
pipelined histories stay linearizable.  With ``injection_rate > 0`` the
slots switch from closed-loop to *open-loop* pacing: injections are
scheduled on a fixed grid of ``rate`` ops/sec per client (staggered
across slots) regardless of completions, with concurrency still bounded
by ``depth`` — when every slot is busy the generator degrades to
closed-loop instead of queueing unboundedly.  ``pipeline_depth=1`` with
``injection_rate=0`` is byte-identical to the historical single-loop
client (same spawn names, same RNG draws), which the sim determinism
suite pins.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol, Tuple

from repro.common.config import ClientConfig
from repro.common.errors import OperationError, RetriesExhaustedError
from repro.common.types import NodeId, OpType, VersionStamp, ZERO_STAMP
from repro.metrics.collector import OperationLog
from repro.metrics.timeline import EventTimeline
from repro.obs.context import Observability, tracer_for
from repro.obs.trace import Span
from repro.sds.messages import (
    ClientOperationFailed,
    ClientRead,
    ClientReadReply,
    ClientWrite,
    ClientWriteReply,
)
from repro.net.transport import Transport
from repro.sim.kernel import Future, Simulator
from repro.sim.network import Envelope
from repro.sim.node import Node
from repro.sim.primitives import wait_for

#: Wire overhead of a request/reply beyond the object payload, bytes.
_HEADER_BYTES = 256


class OperationSource(Protocol):
    """What a client needs from a workload: a stream of operations."""

    def next_operation(self, rng: random.Random) -> "OperationSpec":
        """Produce the next operation to inject."""
        ...  # pragma: no cover - protocol definition


class OperationSpec(Protocol):
    """Duck type of one generated operation."""

    object_id: str
    op_type: OpType
    size: int
    value: bytes


class ProxySelector(Protocol):
    """The client's routing seam: which proxy serves this object?

    A sharded fleet plugs a :class:`~repro.shard.router.ShardRouter` in
    here; the default (no router) keeps the historical static binding to
    one proxy.
    """

    def route(self, object_id: str) -> NodeId:
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class OperationRecord:
    """Client-observed history of one operation.

    Consistency checkers consume these records: the invocation/response
    interval, the value written (writes) or the value and stamp returned
    (reads).  Values are globally unique per write, so a record history
    fully determines the register semantics the cluster exhibited.
    """

    client: NodeId
    object_id: str
    op_type: OpType
    invoked_at: float
    completed_at: float
    value: Optional[bytes]
    stamp: VersionStamp = ZERO_STAMP


class ClientNode(Node):
    """One closed-loop client thread bound to a proxy."""

    def __init__(
        self,
        sim: Simulator,
        network: Transport,
        node_id: NodeId,
        proxy_id: NodeId,
        workload: OperationSource,
        rng: random.Random,
        log: OperationLog,
        think_time: float = 0.0,
        recorder: Optional[Callable[[OperationRecord], None]] = None,
        policy: Optional[ClientConfig] = None,
        events: Optional[EventTimeline] = None,
        obs: Optional[Observability] = None,
        pipeline_depth: int = 1,
        injection_rate: float = 0.0,
        router: Optional[ProxySelector] = None,
    ) -> None:
        # Validate before registering the node: a half-constructed
        # client must not claim its id on the network.
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if injection_rate < 0:
            raise ValueError("injection_rate must be >= 0")
        super().__init__(sim, network, node_id)
        self._proxy_id = proxy_id
        self._router = router
        self._workload = workload
        self._rng = rng
        self._log = log
        self._think_time = think_time
        self._recorder = recorder
        self._policy = (policy or ClientConfig()).validate()
        self._events = events
        self._obs = obs
        self._tracer = tracer_for(obs)
        self._pipeline_depth = pipeline_depth
        self._injection_rate = injection_rate
        self._request_seq = itertools.count(1)
        self._pending: dict[int, Future] = {}
        self._issue_loop_started = False
        self._draining = False
        self.operations_issued = 0
        self.operation_retries = 0
        self.attempt_timeouts = 0
        self.operations_failed = 0
        #: Invocation time per busy pipeline slot; chaos tests assert (via
        #: :attr:`inflight_since`) that no client sits on an operation
        #: longer than ``policy.deadline_bound()``.
        self._inflight_invocations: dict[int, float] = {}

        self.register_handler(ClientReadReply, self._on_reply)
        self.register_handler(ClientWriteReply, self._on_reply)
        self.register_handler(ClientOperationFailed, self._on_reply)

    @property
    def proxy_id(self) -> NodeId:
        return self._proxy_id

    @property
    def pipeline_depth(self) -> int:
        return self._pipeline_depth

    @property
    def inflight_since(self) -> Optional[float]:
        """Invocation time of the oldest operation currently in flight."""
        if not self._inflight_invocations:
            return None
        return min(self._inflight_invocations.values())

    @property
    def inflight_operations(self) -> int:
        """Number of logical operations currently in flight."""
        return len(self._inflight_invocations)

    def stop_issuing(self) -> None:
        """Stop starting new logical operations; in-flight ones finish.

        A graceful alternative to :meth:`crash` for ending a load phase:
        every operation runs to completion (or exhausts its bounded
        retries), so the recorded history carries no forever-concurrent
        invocation records beyond genuine failures.
        """
        self._draining = True

    def start(self) -> None:
        super().start()
        if not self._issue_loop_started:
            self._issue_loop_started = True
            # Slot 0 keeps the historical spawn name so depth-1 runs stay
            # byte-identical to the pre-pipelining client (determinism
            # suite pins this).
            self.spawn(self._issue_loop(0), name=f"{self.node_id}.loop")
            for slot in range(1, self._pipeline_depth):
                self.spawn(
                    self._issue_loop(slot),
                    name=f"{self.node_id}.loop{slot}",
                )

    def _issue_loop(self, slot: int) -> Iterator:
        obs = self._obs
        # Open-loop pacing state: injections for this slot land on a grid
        # of one per ``depth / rate`` seconds, slots staggered evenly.
        interval = 0.0
        next_at = 0.0
        if self._injection_rate > 0:
            interval = self._pipeline_depth / self._injection_rate
            next_at = self.sim.now + slot / self._injection_rate
        while self.alive:
            if self._draining:
                return
            if interval > 0:
                delay = next_at - self.sim.now
                if delay > 0:
                    yield self.sim.sleep(delay)
                # Schedule the following injection; if this slot fell
                # behind the grid (op slower than the interval), degrade
                # to closed-loop rather than queueing a backlog.
                next_at = max(next_at + interval, self.sim.now)
            operation = self._workload.next_operation(self._rng)
            started_at = self.sim.now
            self._inflight_invocations[slot] = started_at
            span = self._tracer.start_span(
                "client.write"
                if operation.op_type is OpType.WRITE
                else "client.read",
                category="client",
                node=self._name,
                object=operation.object_id,
            )
            if (
                self._recorder is not None
                and operation.op_type is OpType.WRITE
            ):
                # Record the invocation immediately: a consistency checker
                # must know about writes that are still in flight when the
                # simulation ends (their values may be visible to reads).
                self._recorder(
                    OperationRecord(
                        client=self.node_id,
                        object_id=operation.object_id,
                        op_type=OpType.WRITE,
                        invoked_at=started_at,
                        completed_at=float("inf"),
                        value=operation.value,
                    )
                )
            try:
                reply = yield from self._perform(operation, started_at, span)
            except OperationError:
                # Graceful degradation: drop the operation and move on.
                # A failed write keeps only its inf-completion invocation
                # record — it may still take effect, so the checker must
                # treat it as forever concurrent.  A failed read records
                # nothing.
                self.operations_failed += 1
                span.finish(status="failed")
                if obs is not None:
                    obs.client_failures.inc()
                self._record(
                    "op-failed",
                    f"{operation.op_type.name.lower()} {operation.object_id}",
                )
                self._inflight_invocations.pop(slot, None)
                if self._think_time > 0:
                    yield self.sim.sleep(self._think_time)
                continue
            self._inflight_invocations.pop(slot, None)
            latency = self.sim.now - started_at
            span.finish(status="ok")
            if obs is not None:
                if operation.op_type is OpType.WRITE:
                    obs.client_write.observe(latency)
                else:
                    obs.client_read.observe(latency)
            self._log.record(
                completed_at=self.sim.now,
                latency=latency,
                op_type=operation.op_type,
            )
            if self._recorder is not None:
                if operation.op_type is OpType.WRITE:
                    record = OperationRecord(
                        client=self.node_id,
                        object_id=operation.object_id,
                        op_type=operation.op_type,
                        invoked_at=started_at,
                        completed_at=self.sim.now,
                        value=operation.value,
                    )
                else:
                    version = reply.version
                    record = OperationRecord(
                        client=self.node_id,
                        object_id=operation.object_id,
                        op_type=operation.op_type,
                        invoked_at=started_at,
                        completed_at=self.sim.now,
                        value=version.value,
                        stamp=version.stamp,
                    )
                self._recorder(record)
            if self._think_time > 0:
                yield self.sim.sleep(self._think_time)

    def _perform(
        self,
        operation: OperationSpec,
        started_at: float,
        span: Span,
    ) -> Iterator:
        """One logical operation: bounded attempts under deadlines.

        Each attempt waits at most ``attempt_timeout``; between attempts
        the client backs off exponentially with seeded jitter (the jitter
        draw happens only on the retry path, so fault-free runs consume
        the RNG identically with or without this machinery).  Exhausting
        ``max_attempts`` raises :class:`RetriesExhaustedError`.

        Every attempt reuses the SAME request id: it names the logical
        operation, not the transmission, so the proxy can recognise a
        write resubmission and reuse the stamp it minted for the first
        attempt.  A retried write carrying a fresh stamp would reorder
        its (old) value above writes that completed in between — the
        exact linearizability violation the chaos storms caught.
        """
        policy = self._policy
        obs = self._obs
        request_id = next(self._request_seq)
        # Route once per LOGICAL operation, not per attempt: every retry
        # must reach the same proxy so its write-stamp replay recognises
        # the resubmission (a different proxy would mint a fresh stamp
        # and reorder the old value above intervening writes).
        target = (
            self._proxy_id
            if self._router is None
            else self._router.route(str(operation.object_id))
        )
        for attempt in range(policy.max_attempts):
            if attempt:
                self.operation_retries += 1
                if obs is not None:
                    obs.client_retries.inc()
                delay = policy.backoff(attempt - 1)
                delay += delay * policy.backoff_jitter * self._rng.random()
                self._record(
                    "retry",
                    f"{operation.object_id} attempt={attempt + 1} "
                    f"backoff={delay:.3f}",
                )
                yield self.sim.sleep(delay)
            attempt_span = self._tracer.start_span(
                "client.attempt",
                category="client",
                node=self._name,
                parent=span.context(),
                object=operation.object_id,
                attempt=attempt,
                request_id=request_id,
            )
            future = self._issue(
                operation, request_id, target, trace=attempt_span.context()
            )
            replied = yield wait_for(
                self.sim, future, policy.attempt_timeout
            )
            if not replied:
                # Attempt deadline hit: abandon this request id so a late
                # reply is ignored, then back off and retry.
                self._pending.pop(request_id, None)
                self.attempt_timeouts += 1
                attempt_span.finish(status="timeout")
                self._record(
                    "attempt-timeout",
                    f"{operation.object_id} request={request_id}",
                )
                continue
            reply = future.value
            if isinstance(reply, ClientOperationFailed):
                # The proxy gave up gracefully; treat like a timeout.
                attempt_span.finish(status="proxy-gave-up")
                self._record(
                    "proxy-gave-up",
                    f"{operation.object_id} after {reply.attempts} gathers",
                )
                continue
            attempt_span.finish(status="ok")
            return reply
        raise RetriesExhaustedError(
            f"{operation.object_id}: no reply within {policy.max_attempts} "
            "attempts",
            object_id=str(operation.object_id),
            elapsed=self.sim.now - started_at,
            attempts=policy.max_attempts,
        )

    def _issue(
        self,
        operation: OperationSpec,
        request_id: int,
        target: NodeId,
        trace: Optional[Tuple[int, int]] = None,
    ) -> Future:
        reply_future = self.sim.future(name=f"{self.node_id}.req{request_id}")
        self._pending[request_id] = reply_future
        self.operations_issued += 1
        if operation.op_type is OpType.WRITE:
            self.send(
                target,
                ClientWrite(
                    object_id=operation.object_id,
                    value=operation.value,
                    size=operation.size,
                    request_id=request_id,
                ),
                size=_HEADER_BYTES + operation.size,
                trace=trace,
            )
        else:
            self.send(
                target,
                ClientRead(
                    object_id=operation.object_id, request_id=request_id
                ),
                size=_HEADER_BYTES,
                trace=trace,
            )
        return reply_future

    def _on_reply(self, envelope: Envelope) -> None:
        reply = envelope.payload
        future = self._pending.pop(reply.request_id, None)
        if future is not None and not future.done:
            future.resolve(reply)

    def _record(self, label: str, detail: str = "") -> None:
        if self._events is not None:
            self._events.record(
                self.sim.now, "client", label, f"{self.node_id}: {detail}"
            )
