"""Discrete-event simulation substrate (kernel, network, nodes, failures)."""

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
