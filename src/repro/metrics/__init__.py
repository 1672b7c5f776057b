"""Throughput/latency collectors and timeline analysis."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
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

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.metrics.collector": (
            "LatencySummary",
            "OperationLog",
            "percentile",
        ),
        "repro.metrics.timeline": (
            "DipStatistics",
            "EventTimeline",
            "Timeline",
            "TimelineEvent",
            "TimelinePoint",
        ),
    },
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
