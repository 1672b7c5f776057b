"""The Swift-like software-defined storage substrate."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sds.client import ClientNode, OperationRecord, OperationSource
    from repro.sds.cluster import SwiftCluster
    from repro.sds.consistency import HistoryChecker, Violation
    from repro.sds.messages import AggregateStats, ObjectStats
    from repro.sds.proxy import ProxyNode
    from repro.sds.quorum import (
        ConfigurationHistory,
        InstalledConfiguration,
        QuorumPlan,
    )
    from repro.sds.ring import PlacementRing
    from repro.sds.scripted import ScriptedClient, read_value
    from repro.sds.storage import StorageNode
    from repro.sds.vector_clocks import (
        TimestampVersioning,
        VectorStamp,
        VectorVersioning,
        make_versioning,
    )

# Import on use.  Eager re-exports here closed an import cycle —
# ``repro.net.codec`` needs ``repro.sds.messages``, whose package used
# to pull in cluster -> storage -> persistence -> ``repro.net.codec`` —
# and made every live worker load the simulated cluster, the history
# checker and the client it never runs.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.sds.client": (
            "ClientNode",
            "OperationRecord",
            "OperationSource",
        ),
        "repro.sds.cluster": ("SwiftCluster",),
        "repro.sds.consistency": ("HistoryChecker", "Violation"),
        "repro.sds.messages": ("AggregateStats", "ObjectStats"),
        "repro.sds.proxy": ("ProxyNode",),
        "repro.sds.quorum": (
            "ConfigurationHistory",
            "InstalledConfiguration",
            "QuorumPlan",
        ),
        "repro.sds.ring": ("PlacementRing",),
        "repro.sds.scripted": ("ScriptedClient", "read_value"),
        "repro.sds.storage": ("StorageNode",),
        "repro.sds.vector_clocks": (
            "TimestampVersioning",
            "VectorStamp",
            "VectorVersioning",
            "make_versioning",
        ),
    },
)

__all__ = [
    "AggregateStats",
    "ClientNode",
    "ConfigurationHistory",
    "HistoryChecker",
    "InstalledConfiguration",
    "ObjectStats",
    "OperationRecord",
    "OperationSource",
    "PlacementRing",
    "ProxyNode",
    "QuorumPlan",
    "ScriptedClient",
    "StorageNode",
    "SwiftCluster",
    "TimestampVersioning",
    "VectorStamp",
    "VectorVersioning",
    "Violation",
    "make_versioning",
    "read_value",
]
