"""Tracing in simulated time: spans, annotations, context propagation.

A :class:`Span` is one timed stage of an operation (a client attempt, a
proxy-side quorum gather, a replica RPC, a reconfiguration phase).
Spans form trees: a child created with ``parent=span.context()`` shares
the parent's trace id and records the parent's span id, and the context
tuple is small and picklable so it can ride on a network
:class:`~repro.sim.network.Envelope` across simulated processes.

An :class:`Annotation` is an instant event — nemesis faults bridge into
traces this way (via :meth:`repro.metrics.timeline.EventTimeline
.bind_tracer`), so a Perfetto view shows each fault overlapping the
client-retry spans it caused.

All timestamps come from the simulator clock, never the wall clock, and
trace/span ids are sequential counters: a fixed seed reproduces the
exact same trace, byte for byte after export.  A disabled tracer hands
out the shared :data:`NULL_SPAN` whose methods are no-ops, keeping
instrumented hot paths allocation-free when tracing is off; nodes built
without observability hold the shared :data:`DISABLED_TRACER`, so a
span is never ``None``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

#: ``(trace_id, parent_span_id)`` — what crosses process boundaries.
SpanContext = Tuple[int, int]

#: Span/annotation attribute values (JSON-scalar only, for export).
AttrValue = Union[str, int, float, bool]

def _zero_clock() -> float:
    """Placeholder clock for tracers built before the simulator exists."""
    return 0.0


@dataclass(frozen=True)
class Annotation:
    """One instant event on the trace timeline (e.g. a nemesis fault)."""

    time: float
    name: str
    category: str
    attributes: Tuple[Tuple[str, AttrValue], ...] = ()


class Span:
    """One timed stage of an operation, linked into a trace tree."""

    __slots__ = (
        "name",
        "category",
        "node",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "attributes",
        "_clock",
    )

    def __init__(
        self,
        name: str,
        category: str,
        node: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        clock: Callable[[], float],
        attributes: Dict[str, AttrValue],
    ) -> None:
        self.name = name
        self.category = category
        self.node = node
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes = attributes
        self._clock = clock

    def context(self) -> Optional[SpanContext]:
        """The propagation handle children (local or remote) parent on."""
        return (self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: AttrValue) -> None:
        self.attributes[key] = value

    def finish(self, status: str = "ok", **attributes: AttrValue) -> None:
        """Close the span at the current simulated time.  Idempotent."""
        if self.end is not None:
            return
        self.end = self._clock()
        self.status = status
        if attributes:
            self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None


class _NullSpan(Span):
    """Shared no-op span handed out by disabled tracers."""

    def __init__(self) -> None:
        super().__init__(
            name="",
            category="",
            node="",
            trace_id=0,
            span_id=0,
            parent_id=None,
            start=0.0,
            clock=_zero_clock,
            attributes={},
        )

    def context(self) -> Optional[SpanContext]:
        return None

    def set_attribute(self, key: str, value: AttrValue) -> None:
        pass

    def finish(self, status: str = "ok", **attributes: AttrValue) -> None:
        pass


#: The span a disabled tracer returns: one shared, inert instance.
NULL_SPAN: Span = _NullSpan()


class Tracer:
    """Creates and retains spans/annotations against the simulated clock.

    ``enabled=False`` makes every call a no-op returning
    :data:`NULL_SPAN` — the instrumented modules can hold a tracer
    unconditionally without paying for span objects they never use.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ) -> None:
        self._clock: Callable[[], float] = clock or _zero_clock
        self.enabled = enabled
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.spans: List[Span] = []
        self.annotations: List[Annotation] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the simulated clock (set once the simulator exists)."""
        self._clock = clock

    def now(self) -> float:
        return self._clock()

    def start_span(
        self,
        name: str,
        category: str,
        node: str = "",
        parent: Optional[SpanContext] = None,
        **attributes: AttrValue,
    ) -> Span:
        """Open a span; without ``parent`` it roots a new trace."""
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id: Optional[int] = None
        else:
            trace_id, parent_id = parent
        span = Span(
            name=name,
            category=category,
            node=node,
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            start=self._clock(),
            clock=self.now,
            attributes=dict(attributes),
        )
        self.spans.append(span)
        return span

    def annotate(
        self,
        name: str,
        category: str,
        at: Optional[float] = None,
        **attributes: AttrValue,
    ) -> None:
        """Record an instant event (``at`` defaults to the current time)."""
        if not self.enabled:
            return
        self.annotations.append(
            Annotation(
                time=self._clock() if at is None else at,
                name=name,
                category=category,
                attributes=tuple(sorted(attributes.items())),
            )
        )

    # -- queries (tests and exporters) --------------------------------------

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.finished]

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [
            candidate
            for candidate in self.spans
            if candidate.trace_id == span.trace_id
            and candidate.parent_id == span.span_id
        ]


#: The tracer a node built without observability holds: one shared,
#: disabled instance, so span sites never branch on ``obs``.
DISABLED_TRACER = Tracer(enabled=False)


@dataclass
class TraceQuery:
    """Small helpers over a finished tracer (overlap analysis)."""

    tracer: Tracer
    #: Categories counted as fault annotations by :meth:`fault_overlaps`.
    fault_categories: Tuple[str, ...] = ("nemesis",)
    _spans: List[Span] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._spans = list(self.tracer.spans)

    def fault_annotations(self) -> List[Annotation]:
        return [
            annotation
            for annotation in self.tracer.annotations
            if annotation.category in self.fault_categories
        ]

    def spans_overlapping(self, time: float) -> List[Span]:
        """Finished spans whose ``[start, end]`` interval contains ``time``."""
        return [
            span
            for span in self._spans
            if span.finished
            and span.start <= time <= (span.end or span.start)
        ]

    def fault_overlaps(self, span_name: str) -> List[Tuple[Annotation, Span]]:
        """(fault, span) pairs where the fault fired inside the span.

        The chaos acceptance check: every retry a fault causes shows up
        as a ``span_name`` span whose interval contains the fault time.
        """
        pairs: List[Tuple[Annotation, Span]] = []
        for annotation in self.fault_annotations():
            for span in self.spans_overlapping(annotation.time):
                if span.name == span_name:
                    pairs.append((annotation, span))
        return pairs
