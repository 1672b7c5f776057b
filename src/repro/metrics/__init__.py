"""Throughput/latency collectors and timeline analysis."""

from repro.metrics.collector import (
    LatencySummary,
    OperationLog,
    percentile,
)
from repro.metrics.timeline import (
    DipStatistics,
    EventTimeline,
    Timeline,
    TimelineEvent,
    TimelinePoint,
)

__all__ = [
    "DipStatistics",
    "EventTimeline",
    "LatencySummary",
    "OperationLog",
    "Timeline",
    "TimelineEvent",
    "TimelinePoint",
    "percentile",
]
