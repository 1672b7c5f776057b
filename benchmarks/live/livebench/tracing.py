"""The traced run: the same topology in this process, seen at the seams.

Never used for end-to-end numbers.  Every node is a ``NodeRuntime`` on
one event loop and one clock (``time.perf_counter_ns``); this module
wraps ``Transport.send`` and ``Mailbox.deliver`` on the instances it
built and turns the stamps into spans once the run is over:

* ``client.op``        issue -> completion record, one per request id
* ``hop.c2p|p2s|s2p|p2c``  send -> deliver of one message
* ``proxy.service``    client request deliver -> client reply send
* ``storage.service``  replica request deliver -> reply send

How a gather is tied to its client operation without spans inside
``src/``: a read's ``ClientReadReply`` carries the very ``Version``
object one of its gather's replies delivered, and a write's
``ReplicaWrite`` carries its ``ClientWrite``'s unique token.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.rng import substream
from repro.common.types import NodeId
from repro.net.cluster import allocate_ports
from repro.net.kernel import RealtimeKernel
from repro.net.runtime import NodeRuntime
from repro.net.tcp import TcpTransport
from repro.sds import messages as m
from repro.sds.client import OperationRecord
from repro.sim.network import Envelope, Mailbox
from repro.workloads.base import Operation

from . import live
from .payload import compact, token_of
from .settings import WorkloadDef

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)

#: payload type -> (hop, operation kind); replies carry no kind of their own.
HOPS: Dict[type, Tuple[str, str]] = {
    m.ClientRead: ("c2p", "read"),
    m.ClientWrite: ("c2p", "write"),
    m.ReplicaRead: ("p2s", "read"),
    m.ReplicaWrite: ("p2s", "write"),
    m.LeaseRead: ("p2s", "leaseread"),
    m.ReplicaReadReply: ("s2p", ""),
    m.ReplicaWriteReply: ("s2p", ""),
    m.LeaseReadReply: ("s2p", ""),
    m.ClientReadReply: ("p2c", ""),
    m.ClientWriteReply: ("p2c", ""),
}

Key = Tuple[str, NodeId, int]
OpId = Tuple[NodeId, int]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    #: Index of the causing span in the span list (``None`` for a root).
    parent: Optional[int]
    #: ``<client>#<request id>`` shared by every span of one operation.
    op: Optional[str]
    kind: str = ""

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_time_ns(span: Span, children: Iterable[Span]) -> int:
    """``span``'s duration minus the part its children cover."""
    covered = 0
    reach = span.start_ns
    for child in sorted(children, key=lambda c: c.start_ns):
        start = max(child.start_ns, reach)
        end = min(child.end_ns, span.end_ns)
        if end > start:
            covered += end - start
            reach = end
    return span.duration_ns - covered


def residual_ns(whole: Span, parts: Iterable[int]) -> int:
    """What of ``whole`` its named parts do not account for."""
    return whole.duration_ns - sum(parts)


def _key(hop: str, sender: NodeId, recipient: NodeId, payload: Any) -> Key:
    if hop == "c2p":
        return (hop, sender, payload.request_id)
    if hop == "p2c":
        return (hop, recipient, payload.request_id)
    if hop == "p2s":
        return (hop, recipient, payload.op_id)
    return (hop, sender, payload.op_id)


class _StampedSource:
    """Notes when ``client`` drew its latest operation."""

    def __init__(
        self,
        inner: live.OperationSource,
        issued: Dict[NodeId, int],
        client: NodeId,
    ) -> None:
        self._inner = inner
        self._issued = issued
        self._client = client

    def next_operation(self, rng: Any) -> Operation:
        operation = self._inner.next_operation(rng)
        self._issued[self._client] = time.perf_counter_ns()
        return operation


class SeamRecorder:
    """Stamps kept by the wrappers; nothing is computed while running."""

    def __init__(self, kernel: RealtimeKernel) -> None:
        self._kernel = kernel
        self.sent: Dict[Key, int] = {}
        self.delivered: Dict[Key, int] = {}
        self.issued: Dict[NodeId, int] = {}
        self.op_start: Dict[OpId, int] = {}
        self.op_end: Dict[OpId, int] = {}
        self.op_kind: Dict[OpId, str] = {}
        self.by_invocation: Dict[Tuple[NodeId, float], int] = {}
        #: op_id of a gather -> kind, replicas contacted.
        self.gather_kind: Dict[int, str] = {}
        self.gather_replicas: Dict[int, List[NodeId]] = defaultdict(list)
        self.version_gather: Dict[int, int] = {}
        self.final_gather: Dict[OpId, int] = {}
        self.write_gathers: Dict[bytes, List[int]] = defaultdict(list)
        self.write_token: Dict[OpId, bytes] = {}
        self.messages: Counter = Counter()
        self.counting = False

    # -- wrappers -----------------------------------------------------------

    def wrap_transport(self, transport: TcpTransport) -> None:
        inner = transport.send
        clock = time.perf_counter_ns

        def send(
            sender: NodeId,
            recipient: NodeId,
            payload: Any,
            size: int = 256,
            trace: Optional[Tuple[int, int]] = None,
        ) -> None:
            kind = type(payload)
            if self.counting:
                self.messages[kind.__name__] += 1
            entry = HOPS.get(kind)
            if entry is not None:
                self._on_send(clock(), entry, sender, recipient, payload)
            inner(sender, recipient, payload, size=size, trace=trace)

        transport.send = send  # type: ignore[method-assign]

    def wrap_mailbox(self, mailbox: Mailbox) -> None:
        inner = mailbox.deliver
        clock = time.perf_counter_ns

        def deliver(envelope: Envelope) -> None:
            entry = HOPS.get(type(envelope.payload))
            if entry is not None:
                self._on_deliver(clock(), entry[0], envelope)
            inner(envelope)

        mailbox.deliver = deliver  # type: ignore[method-assign]

    def source_for(
        self, inner: live.OperationSource
    ) -> Callable[[NodeId], live.OperationSource]:
        return lambda client: _StampedSource(inner, self.issued, client)

    def on_record(self, record: OperationRecord) -> None:
        """Recorder callback of the client fleet (completed ops only)."""
        if record.completed_at == float("inf"):
            return
        request_id = self.by_invocation.pop(
            (record.client, record.invoked_at), None
        )
        if request_id is not None:
            self.op_end[(record.client, request_id)] = time.perf_counter_ns()

    # -- stamps -------------------------------------------------------------

    def _on_send(
        self,
        now: int,
        entry: Tuple[str, str],
        sender: NodeId,
        recipient: NodeId,
        payload: Any,
    ) -> None:
        hop, kind = entry
        key = _key(hop, sender, recipient, payload)
        if key in self.sent:
            return  # a retry reuses its request id: the first stamp stands
        self.sent[key] = now
        if hop == "c2p":
            op = (sender, payload.request_id)
            issued = self.issued.pop(sender, None)
            if issued is not None:
                # Same dispatch as the client's ``started_at = sim.now``.
                self.op_start[op] = issued
                self.op_kind[op] = kind
                self.by_invocation[(sender, self._kernel.now)] = op[1]
                if kind == "write":
                    self.write_token[op] = token_of(payload.value) or b""
        elif hop == "p2s":
            gather = payload.op_id
            self.gather_kind[gather] = kind
            self.gather_replicas[gather].append(recipient)
            if kind == "write" and len(self.gather_replicas[gather]) == 1:
                token = token_of(payload.value) or b""
                self.write_gathers[token].append(gather)
        elif hop == "p2c" and isinstance(payload, m.ClientReadReply):
            gather = self.version_gather.get(id(payload.version))
            if gather is not None:
                self.final_gather[(recipient, payload.request_id)] = gather

    def _on_deliver(self, now: int, hop: str, envelope: Envelope) -> None:
        payload = envelope.payload
        key = _key(hop, envelope.sender, envelope.recipient, payload)
        if key in self.delivered:
            return
        self.delivered[key] = now
        if hop == "s2p" and hasattr(payload, "version"):
            self.version_gather[id(payload.version)] = payload.op_id


# -- spans -------------------------------------------------------------------


@dataclass
class Trace:
    spans: List[Span]
    #: Operations in the phase / of those, how many had a broken chain.
    operations: int
    unmatched: int
    #: Per operation kind: the per-op figures the summary takes p50s of.
    rows: Dict[str, List[Dict[str, int]]]


def build_trace(rec: SeamRecorder, start_ns: int, end_ns: int) -> Trace:
    """Spans of every operation issued and completed inside the phase."""
    spans: List[Span] = []
    rows: Dict[str, List[Dict[str, int]]] = {"read": [], "write": []}
    operations = unmatched = 0

    def add(name: str, start: int, end: int, parent: Optional[int],
            op: Optional[str], kind: str = "") -> int:
        spans.append(Span(name, start, end, parent, op, kind))
        return len(spans) - 1

    def hop(key: Key) -> Optional[Tuple[int, int]]:
        sent, delivered = rec.sent.get(key), rec.delivered.get(key)
        if sent is None or delivered is None or delivered < sent:
            return None
        return sent, delivered

    attributed: set = set()
    for op, issued in rec.op_start.items():
        finished = rec.op_end.get(op)
        if finished is None or issued < start_ns or finished > end_ns:
            continue
        operations += 1
        client, request_id = op
        kind = rec.op_kind[op]
        label = f"{client}#{request_id}"
        c2p = hop(("c2p", client, request_id))
        p2c = hop(("p2c", client, request_id))
        gather = _final_gather(rec, op, kind, c2p, p2c)
        legs = _legs(rec, gather) if gather is not None else None
        if c2p is None or p2c is None or not legs:
            unmatched += 1
            continue
        service_start, service_end = c2p[1], p2c[0]
        if (
            min(leg[0] for leg in legs) < service_start
            or legs[-1][3] > service_end
        ):
            unmatched += 1  # the gather is not inside its operation
            continue
        attributed.add(gather)
        root = add("client.op", issued, finished, None, label, kind)
        add("hop.c2p", c2p[0], c2p[1], root, label)
        service = add(
            "proxy.service", service_start, service_end, root, label, kind
        )
        add("hop.p2c", p2c[0], p2c[1], root, label)
        children: List[Span] = []
        leg_kind = rec.gather_kind[gather]
        for sent, arrived, replied, returned in legs:
            for name, begin, end in (
                ("hop.p2s", sent, arrived),
                ("storage.service", arrived, replied),
                ("hop.s2p", replied, returned),
            ):
                index = add(name, begin, end, service, label, leg_kind)
                children.append(spans[index])
        # The reply delivered last completed the quorum: the proxy
        # contacts exactly as many replicas as it needs.
        sent, arrived, replied, returned = legs[-1]
        parts = {
            "c2p": c2p[1] - c2p[0],
            "self": self_time_ns(spans[service], children),
            "p2s": arrived - sent,
            "storage": replied - arrived,
            "s2p": returned - replied,
            "p2c": p2c[1] - p2c[0],
        }
        row = dict(parts)
        row["op"] = finished - issued
        row["service"] = service_end - service_start
        row["residual"] = residual_ns(spans[root], parts.values())
        rows[kind].append(row)

    # Messages of gathers that belong to no operation above (retried or
    # write-back gathers) still count towards the hop and service p50s.
    for gather in rec.gather_kind:
        if gather in attributed:
            continue
        for sent, arrived, replied, returned in _legs(rec, gather) or []:
            if sent < start_ns or returned > end_ns:
                continue
            kind = rec.gather_kind[gather]
            add("hop.p2s", sent, arrived, None, None, kind)
            add("storage.service", arrived, replied, None, None, kind)
            add("hop.s2p", replied, returned, None, None, kind)
    return Trace(spans, operations, unmatched, rows)


def _final_gather(
    rec: SeamRecorder,
    op: OpId,
    kind: str,
    c2p: Optional[Tuple[int, int]],
    p2c: Optional[Tuple[int, int]],
) -> Optional[int]:
    if kind == "read":
        return rec.final_gather.get(op)
    if c2p is None or p2c is None:
        return None
    # A write may gather more than once (epoch NACK) and a concurrent
    # read may write its value back: take the last gather of this token
    # that was sent inside the operation's service interval.
    inside = [
        gather
        for gather in rec.write_gathers.get(rec.write_token.get(op, b""), [])
        if c2p[1] <= rec.sent[("p2s", rec.gather_replicas[gather][0], gather)]
        <= p2c[0]
    ]
    return inside[-1] if inside else None


def _legs(
    rec: SeamRecorder, gather: int
) -> Optional[List[Tuple[int, int, int, int]]]:
    """``(sent, arrived, replied, returned)`` per contacted replica, in
    order of return; ``None`` if any stamp is missing."""
    legs = []
    for replica in rec.gather_replicas[gather]:
        request, reply = ("p2s", replica, gather), ("s2p", replica, gather)
        stamps = (
            rec.sent.get(request),
            rec.delivered.get(request),
            rec.sent.get(reply),
            rec.delivered.get(reply),
        )
        if None in stamps or any(a > b for a, b in zip(stamps, stamps[1:])):
            return None
        legs.append(stamps)
    return sorted(legs, key=lambda leg: leg[3])


def _p50_us(values: Iterable[int]) -> float:
    values = list(values)
    return statistics.median(values) / 1e3 if values else 0.0


def summarise(trace: Trace) -> live.Metrics:
    hops: Dict[str, List[int]] = defaultdict(list)
    storage: Dict[str, List[int]] = defaultdict(list)
    for span in trace.spans:
        if span.name.startswith("hop."):
            hops[span.name].append(span.duration_ns)
        elif span.name == "storage.service":
            storage[span.kind].append(span.duration_ns)
    out: live.Metrics = {}
    for kind in ("read", "write"):
        for metric, column in (
            ("trace.op_us_p50", "op"),
            ("proxy.service_us_p50", "service"),
            ("proxy.self_us_p50", "self"),
            ("trace.residual_us", "residual"),
        ):
            out[f"{metric}.{kind}"] = (
                _p50_us(row[column] for row in trace.rows[kind]), "us"
            )
    for name in ("c2p", "p2s", "s2p", "p2c"):
        out[f"hop.{name}_us_p50"] = (_p50_us(hops[f"hop.{name}"]), "us")
    for kind in ("read", "write", "leaseread"):
        out[f"storage.service_us_p50.{kind}"] = (_p50_us(storage[kind]), "us")
    out["trace.unmatched_share"] = (
        trace.unmatched / max(1, trace.operations), "ratio"
    )
    return out


def write_spans(trace: Trace, name: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(span) for span in trace.spans], handle)
    return path


# -- the in-process cluster --------------------------------------------------


@dataclass
class InprocResult:
    phase: live.PhaseStats
    attempted: int
    failed: int
    problems: List[str]
    trace: Optional[Trace] = None
    #: Messages sent per completed operation, by payload type.
    recipe: Optional[Dict[str, float]] = None


async def run_inproc(
    defn: WorkloadDef,
    seed: int,
    seconds: float,
    warmup: float,
    window: float,
    traced: bool,
) -> InprocResult:
    """Host the workload's whole topology on this event loop."""
    source = live.make_source(defn, seed)
    workdir = live.scratch_dir("inproc-")
    spec = allocate_ports(
        live.make_spec(defn, seed, os.path.join(workdir, "data"))
    ).validate()
    runtimes = [
        NodeRuntime(spec, address.name) for address in spec.all_addresses()
    ]
    kernel = RealtimeKernel()
    transport = TcpTransport(
        kernel,
        spec.directory(),
        listen_port=None,
        rng=substream(seed, "loadgen", "transport"),
    )
    recorder = SeamRecorder(kernel) if traced else None
    records: List[OperationRecord] = []

    def record(op_record: OperationRecord) -> None:
        if recorder is not None:
            recorder.on_record(op_record)
        records.append(compact(op_record))

    edges: List[int] = []
    reconfigs: List[Tuple[float, float]] = []
    problems: List[str] = []
    try:
        for runtime in runtimes:
            await runtime.start()
        await transport.start()
        fleet = live.make_fleet(
            kernel,
            transport,
            spec,
            recorder.source_for(source) if recorder else (lambda _c: source),
            seed,
            record,
        )
        if recorder is not None:
            recorder.wrap_transport(transport)
            for runtime in runtimes:
                recorder.wrap_transport(runtime.transport)
                recorder.wrap_mailbox(runtime.node.mailbox)
            for client in fleet:
                recorder.wrap_mailbox(client.mailbox)

        async def boundary() -> live.Boundary:
            edges.append(time.perf_counter_ns())
            if recorder is not None:
                recorder.counting = len(edges) == 1
            return live.Boundary(at=kernel.tick(), cpu={})

        tuner: Optional[asyncio.Task] = None
        if defn.retune_period > 0:
            tuner = asyncio.ensure_future(
                live.retune(spec, defn, kernel, reconfigs)
            )
        try:
            first, last, unfinished = await live.run_phase(
                fleet, kernel, warmup, seconds, boundary
            )
        finally:
            if tuner is not None:
                tuner.cancel()
        for runtime in runtimes:
            if runtime.kernel.crashes:
                problems.append(
                    f"{runtime.node_id}: {runtime.kernel.crashes[0][1]!r}"
                )
    finally:
        await transport.stop()
        for runtime in runtimes:
            await runtime.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(client.operations_failed for client in fleet) + unfinished
    if failed:
        problems.append(f"in-process: {failed} operations failed")
    history_problems, _ = live.check_history(records)
    problems.extend(f"in-process: {text}" for text in history_problems)
    phase = live.PhaseStats.of(records, first.at, last.at, window)
    result = InprocResult(
        phase=phase,
        attempted=sum(
            1 for r in records if r.completed_at != float("inf")
        ) + failed,
        failed=failed,
        problems=problems,
    )
    if recorder is not None:
        result.trace = build_trace(recorder, edges[0], edges[1])
        result.recipe = {
            name: count / max(1, phase.completed)
            for name, count in sorted(recorder.messages.items())
        }
    return result
