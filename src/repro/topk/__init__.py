"""Probabilistic top-k stream analysis and proxy workload monitoring."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.topk.space_saving import SpaceSaving, TopKEntry
    from repro.topk.stats import ProxyStatsRecorder

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.topk.space_saving": ("SpaceSaving", "TopKEntry"),
        "repro.topk.stats": ("ProxyStatsRecorder",),
    },
)

__all__ = ["ProxyStatsRecorder", "SpaceSaving", "TopKEntry"]
