"""Deterministic exporters: Prometheus text, trace JSON, Chrome traces.

Every exporter sorts its output and serialises with a fixed float
format, so two runs with the same seed produce byte-identical files —
the property the exporter round-trip tests pin.

The Chrome export follows the ``trace_event`` format (the JSON array
flavour wrapped in ``{"traceEvents": [...]}``) that Perfetto and
``chrome://tracing`` open directly: spans become ``"X"`` (complete)
events with microsecond timestamps, annotations become ``"i"``
(instant) events, and ``"M"`` metadata events name the process (span
category) and thread (node) rows.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer


def _format_value(value: float) -> str:
    """Float formatting that round-trips exactly through ``float()``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


# -- Prometheus text exposition format -------------------------------------


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    help_by_name = {
        family.name: family.help for family in registry.families()
    }
    previous_name = None
    for name, kind, labels, metric in registry.collect():
        if name != previous_name:
            if help_by_name.get(name):
                lines.append(f"# HELP {name} {help_by_name[name]}")
            lines.append(f"# TYPE {name} {kind}")
            previous_name = name
        if isinstance(metric, Histogram):
            snapshot = metric.snapshot()
            cumulative = 0
            for bound, count in zip(snapshot.bounds, snapshot.counts):
                cumulative += count
                bucket_labels = labels + (("le", _format_value(bound)),)
                lines.append(
                    f"{name}_bucket{_label_text(bucket_labels)} {cumulative}"
                )
            bucket_labels = labels + (("le", "+Inf"),)
            lines.append(
                f"{name}_bucket{_label_text(bucket_labels)} {snapshot.count}"
            )
            lines.append(
                f"{name}_sum{_label_text(labels)} "
                f"{_format_value(snapshot.total)}"
            )
            lines.append(f"{name}_count{_label_text(labels)} {snapshot.count}")
        else:
            lines.append(
                f"{name}{_label_text(labels)} {_format_value(metric.value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse exposition-format samples back into ``{sample_line: value}``.

    Only what :func:`to_prometheus_text` emits is supported — enough for
    the round-trip tests to compare every exported sample by value.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, value_text = line.rsplit(" ", 1)
        except ValueError as error:
            raise ConfigurationError(
                f"unparseable sample line: {line!r}"
            ) from error
        samples[series] = float(value_text)
    return samples


# -- JSON exports ----------------------------------------------------------


def to_trace_json(tracer: Tracer) -> str:
    """Spans + annotations as deterministic JSON (our own schema)."""
    spans = [
        {
            "name": span.name,
            "category": span.category,
            "node": span.node,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start": span.start,
            "end": span.end,
            "status": span.status,
            "attributes": dict(sorted(span.attributes.items())),
        }
        for span in tracer.spans
    ]
    annotations = [
        {
            "time": annotation.time,
            "name": annotation.name,
            "category": annotation.category,
            "attributes": dict(annotation.attributes),
        }
        for annotation in tracer.annotations
    ]
    return json.dumps(
        {"spans": spans, "annotations": annotations},
        sort_keys=True,
        indent=2,
    )


# -- Chrome trace_event format ---------------------------------------------

#: Microseconds per simulated second (Chrome ``ts`` is in microseconds).
_US = 1e6


def to_chrome_trace(tracer: Tracer) -> List[Dict[str, object]]:
    """Span/annotation events in Chrome ``trace_event`` dict form.

    Process ids map span categories, thread ids map nodes, so Perfetto
    renders one swimlane per simulated process.  Events are sorted by
    timestamp (ties broken by span id) so ``ts`` is monotonic.
    """
    categories: Dict[str, int] = {}
    threads: Dict[Tuple[str, str], int] = {}

    def process_id(category: str) -> int:
        if category not in categories:
            categories[category] = len(categories) + 1
        return categories[category]

    def thread_id(category: str, node: str) -> int:
        key = (category, node)
        if key not in threads:
            threads[key] = len(threads) + 1
        return threads[key]

    timed: List[Tuple[float, int, Dict[str, object]]] = []
    for span in tracer.spans:
        if not span.finished:
            continue
        pid = process_id(span.category)
        tid = thread_id(span.category, span.node)
        args: Dict[str, object] = dict(sorted(span.attributes.items()))
        args["status"] = span.status
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        timed.append(
            (
                span.start,
                span.span_id,
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * _US,
                    "dur": span.duration * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                },
            )
        )
    for index, annotation in enumerate(tracer.annotations):
        pid = process_id(annotation.category)
        tid = thread_id(annotation.category, "events")
        timed.append(
            (
                annotation.time,
                # Annotations sort after any span starting at the same
                # instant (span ids start at 1).
                1_000_000_000 + index,
                {
                    "name": annotation.name,
                    "cat": annotation.category,
                    "ph": "i",
                    "s": "g",
                    "ts": annotation.time * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(annotation.attributes),
                },
            )
        )
    timed.sort(key=lambda item: (item[0], item[1]))

    metadata: List[Dict[str, object]] = []
    for category in sorted(categories):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": categories[category],
                "tid": 0,
                "ts": 0,
                "args": {"name": category},
            }
        )
    for category, node in sorted(threads):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": categories[category],
                "tid": threads[(category, node)],
                "ts": 0,
                "args": {"name": node or category},
            }
        )
    return metadata + [event for _ts, _tie, event in timed]


def to_chrome_trace_json(tracer: Tracer) -> str:
    """Chrome ``trace_event`` JSON, deterministic byte-for-byte."""
    return json.dumps(
        {"traceEvents": to_chrome_trace(tracer), "displayTimeUnit": "ms"},
        sort_keys=True,
        indent=2,
    )
