"""Discrete-event simulation substrate (kernel, network, nodes, failures)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.failure import CrashManager, FailureDetector
    from repro.sim.kernel import Future, Interrupt, Process, Simulator, Timer
    from repro.sim.nemesis import FaultEvent, Nemesis, links_between
    from repro.sim.network import Envelope, Mailbox, Network
    from repro.sim.node import Node
    from repro.sim.primitives import (
        Broadcast,
        Gate,
        Mutex,
        PendingCounter,
        Resource,
        all_of,
        any_of,
        retry_until,
        wait_for,
    )

# Import on use: a live worker runs the kernel, network envelopes and
# node base, never the nemesis or the simulated failure detector.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.sim.failure": ("CrashManager", "FailureDetector"),
        "repro.sim.kernel": (
            "Future",
            "Interrupt",
            "Process",
            "Simulator",
            "Timer",
        ),
        "repro.sim.nemesis": ("FaultEvent", "Nemesis", "links_between"),
        "repro.sim.network": ("Envelope", "Mailbox", "Network"),
        "repro.sim.node": ("Node",),
        "repro.sim.primitives": (
            "Broadcast",
            "Gate",
            "Mutex",
            "PendingCounter",
            "Resource",
            "all_of",
            "any_of",
            "retry_until",
            "wait_for",
        ),
    },
)

__all__ = [
    "Broadcast",
    "CrashManager",
    "Envelope",
    "FailureDetector",
    "FaultEvent",
    "Future",
    "Gate",
    "Interrupt",
    "Mailbox",
    "Mutex",
    "Nemesis",
    "Network",
    "Node",
    "PendingCounter",
    "Process",
    "Resource",
    "Simulator",
    "Timer",
    "all_of",
    "any_of",
    "links_between",
    "retry_until",
    "wait_for",
]
