"""Quorum reconfiguration: the non-blocking protocol (Section 5) and the
stop-the-world baseline used by ablation A3."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.reconfig.blocking import (
        BlockingReconfigurationManager,
        attach_blocking_manager,
    )
    from repro.reconfig.manager import (
        ReconfigurationManager,
        attach_reconfiguration_manager,
    )
    from repro.reconfig.replicated import (
        ReplicatedReconfigurationManager,
        ReplicatedRMMember,
        attach_replicated_manager,
    )

# Import on use: the live RM worker runs ``manager`` alone.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.reconfig.blocking": (
            "BlockingReconfigurationManager",
            "attach_blocking_manager",
        ),
        "repro.reconfig.manager": (
            "ReconfigurationManager",
            "attach_reconfiguration_manager",
        ),
        "repro.reconfig.replicated": (
            "ReplicatedReconfigurationManager",
            "ReplicatedRMMember",
            "attach_replicated_manager",
        ),
    },
)

__all__ = [
    "BlockingReconfigurationManager",
    "ReconfigurationManager",
    "ReplicatedRMMember",
    "ReplicatedReconfigurationManager",
    "attach_blocking_manager",
    "attach_replicated_manager",
    "attach_reconfiguration_manager",
]
