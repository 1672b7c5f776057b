"""Observability: tracing, metrics and the perf-regression harness.

The subsystem has three legs (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` in *simulated*
  time, with context propagation through the full operation path
  (client attempt → proxy → quorum gathers → per-replica RPC →
  stabilise write-back → reconfiguration epochs) and deterministic
  exports (JSON and Chrome ``trace_event`` for Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  HDR-style latency histograms with mergeable snapshots, replacing
  ad-hoc list-of-floats accounting with O(1) inserts;
* :mod:`repro.obs.bench` — the ``python -m repro bench`` scenario
  matrix that writes ``BENCH_obs.json`` (imported lazily; it pulls in
  the whole simulator).

:class:`Observability` bundles one tracer and one registry with the
pre-bound hot-path instruments the instrumented modules use.  The
default is ``None``: every metrics hook is behind an
``if obs is not None`` guard, and span sites run unconditionally on the
shared disabled tracer, so the uninstrumented fast path stays
allocation-free.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.context import Observability
    from repro.obs.exporters import (
        parse_prometheus_text,
        to_chrome_trace,
        to_chrome_trace_json,
        to_prometheus_text,
        to_trace_json,
    )
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        HistogramSnapshot,
        MetricsRegistry,
        default_latency_bounds,
    )
    from repro.obs.trace import (
        NULL_SPAN,
        Annotation,
        Span,
        SpanContext,
        Tracer,
    )

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.obs.context": ("Observability",),
        "repro.obs.exporters": (
            "parse_prometheus_text",
            "to_chrome_trace",
            "to_chrome_trace_json",
            "to_prometheus_text",
            "to_trace_json",
        ),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "HistogramSnapshot",
            "MetricsRegistry",
            "default_latency_bounds",
        ),
        "repro.obs.trace": (
            "NULL_SPAN",
            "Annotation",
            "Span",
            "SpanContext",
            "Tracer",
        ),
    },
)

__all__ = [
    "Annotation",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "Span",
    "SpanContext",
    "Tracer",
    "default_latency_bounds",
    "parse_prometheus_text",
    "to_chrome_trace",
    "to_chrome_trace_json",
    "to_prometheus_text",
    "to_trace_json",
]
