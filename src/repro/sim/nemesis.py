"""Nemesis: a deterministic, seeded fault-schedule driver.

Jepsen validates distributed systems by letting a *nemesis* process
inject faults on a schedule while a checker verifies client histories;
this module is the discrete-event equivalent for the Q-OPT simulator.
A :class:`Nemesis` owns a seeded RNG substream and schedules faults at
simulated times:

* **crashes** (fail-stop, via :class:`~repro.sim.failure.CrashManager`)
  and **false-suspicion bursts** (via the ◇P detector) — both faithful
  to the paper's system model (Sections 3 and 5);
* **delay spikes** on directed links — faithful too, since the network
  is asynchronous;
* **partitions** and **per-link omission** — these lose messages that
  the paper's reliable channels would deliver, so scheduling one
  switches the network into its explicit lossy stress mode;
* **crash-during-reconfiguration** — a crash armed to fire the moment a
  Reconfiguration Manager starts its n-th reconfiguration, landing
  inside the two-phase protocol's window.

Every fault that actually fires is appended to :attr:`Nemesis.faults`
(and to the cluster's :class:`~repro.metrics.timeline.EventTimeline`,
when given), so a chaos run produces an auditable, reproducible fault
log: rerunning the same schedule with the same seed yields an identical
:meth:`signature`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.rng import substream
from repro.common.types import NodeId
from repro.metrics.timeline import EventTimeline
from repro.sim.failure import CrashManager, FailureDetector
from repro.sim.kernel import Simulator
from repro.sim.network import Network

if TYPE_CHECKING:
    from repro.sds.cluster import SimWorld

#: A directed link, for omission and delay faults.
Link = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it fired."""

    time: float
    kind: str
    target: str
    detail: str = ""

    def as_tuple(self) -> tuple[float, str, str, str]:
        return (self.time, self.kind, self.target, self.detail)


class Nemesis:
    """Schedules and logs fault injection against a simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        crashes: CrashManager,
        detector: FailureDetector,
        seed: int = 0,
        events: Optional[EventTimeline] = None,
    ) -> None:
        self._sim = sim
        self._network = network
        self._crashes = crashes
        self._detector = detector
        self._rng: random.Random = substream(seed, "nemesis")
        self._events = events
        self._lossy_logged = False
        #: Chronological log of every fault that fired.
        self.faults: list[FaultEvent] = []

    @classmethod
    def for_cluster(cls, cluster: SimWorld, seed: int = 0) -> "Nemesis":
        """Build a nemesis wired to a simulated cluster's world."""
        return cls(
            cluster.sim,
            cluster.network,
            cluster.crashes,
            cluster.detector,
            seed=seed,
            events=cluster.events,
        )

    # -- schedule-construction helpers ---------------------------------------

    def jitter(self, base: float, spread: float) -> float:
        """``base`` plus a seeded uniform offset in ``[0, spread)``.

        Lets schedules decorrelate fault times across seeds while staying
        exactly reproducible for a fixed seed.
        """
        if spread < 0:
            raise SimulationError("jitter spread must be >= 0")
        return base + self._rng.uniform(0.0, spread)

    def signature(self) -> tuple[tuple[float, str, str, str], ...]:
        """Canonical fault-log form for run-to-run equality asserts."""
        return tuple(event.as_tuple() for event in self.faults)

    # -- crashes (model-faithful) --------------------------------------------

    def schedule_crash(self, at: float, node_id: NodeId) -> None:
        """Fail-stop ``node_id`` at simulated time ``at``."""
        self._at(at, self._fire_crash, node_id)

    def crash_on_reconfiguration(
        self,
        manager: object,
        node_id: NodeId,
        delay: float = 0.0,
        nth: int = 1,
    ) -> None:
        """Crash ``node_id`` when ``manager`` starts its ``nth`` (counted
        from this call) reconfiguration, ``delay`` seconds into it.

        ``manager`` is any object exposing
        ``on_reconfiguration_started(callback)`` — the hook
        :class:`~repro.reconfig.manager.ReconfigurationManager` provides.
        The crash lands inside the two-phase NEWQ/CONFIRM window, the
        most delicate moment of Algorithm 2.
        """
        if nth < 1:
            raise SimulationError("nth must be >= 1")
        remaining = [nth]

        def on_started(cfg_no: int, plan: object) -> None:
            del plan
            remaining[0] -= 1
            if remaining[0] == 0:
                self._log(
                    "arm-crash",
                    str(node_id),
                    f"reconfiguration cfg_no={cfg_no} started",
                )
                self._sim.schedule(delay, self._fire_crash, node_id)

        manager.on_reconfiguration_started(on_started)  # type: ignore[attr-defined]

    def _fire_crash(self, node_id: NodeId) -> None:
        if self._crashes.is_crashed(node_id):
            return
        self._log("crash", str(node_id))
        self._crashes.crash(node_id)

    # -- false suspicions (model-faithful: ◇P may lie for a while) -----------

    def schedule_false_suspicion(
        self, at: float, duration: float, nodes: Iterable[NodeId]
    ) -> None:
        """Make ◇P wrongly suspect live ``nodes`` during ``[at, at+duration)``."""
        if duration <= 0:
            raise SimulationError("suspicion duration must be > 0")
        targets = list(nodes)
        for node in targets:
            self._detector.falsely_suspect(node, at, at + duration)
        self._at(
            at,
            self._log,
            "false-suspicion",
            ",".join(str(node) for node in targets),
            f"for {duration:g}s",
        )

    # -- delay spikes (model-faithful: asynchrony) ---------------------------

    def schedule_delay_spike(
        self,
        at: float,
        duration: float,
        links: Iterable[Link],
        factor: float,
    ) -> None:
        """Multiply the latency of ``links`` by ``factor`` for ``duration``."""
        if duration <= 0:
            raise SimulationError("delay-spike duration must be > 0")
        if factor <= 0:
            raise SimulationError("delay factor must be > 0")
        frozen = list(links)
        self._at(at, self._start_delay_spike, frozen, factor)
        self._at(at + duration, self._end_delay_spike, frozen)

    def _start_delay_spike(self, links: list[Link], factor: float) -> None:
        for sender, recipient in links:
            self._network.set_delay_factor(sender, recipient, factor)
        self._log("delay-spike", self._links_label(links), f"x{factor:g}")

    def _end_delay_spike(self, links: list[Link]) -> None:
        for sender, recipient in links:
            self._network.set_delay_factor(sender, recipient, 1.0)
        self._log("delay-restore", self._links_label(links))

    # -- partitions and omission (stress-only: require lossy mode) ----------

    def schedule_partition(
        self,
        at: float,
        duration: float,
        groups: Sequence[Iterable[NodeId]],
    ) -> None:
        """Partition the cluster into ``groups`` for ``duration`` seconds.

        Nodes not named in any group implicitly join the first one.
        Enables the network's lossy stress mode.
        """
        if duration <= 0:
            raise SimulationError("partition duration must be > 0")
        self._ensure_lossy()
        frozen = [list(group) for group in groups]
        self._at(at, self._start_partition, frozen)
        self._at(at + duration, self._heal_partition)

    def schedule_isolation(
        self, at: float, duration: float, nodes: Iterable[NodeId]
    ) -> None:
        """Cut ``nodes`` off from the rest of the cluster for ``duration``.

        Convenience for the common one-island partition: unlisted nodes
        implicitly form the majority side.
        """
        self.schedule_partition(at, duration, [[], list(nodes)])

    def _start_partition(self, groups: list[list[NodeId]]) -> None:
        self._network.partition(groups)
        label = " | ".join(
            ",".join(str(node) for node in group) for group in groups
        )
        self._log("partition", label)

    def _heal_partition(self) -> None:
        self._network.heal()
        self._log("heal", "all")

    def schedule_omission(
        self,
        at: float,
        duration: float,
        links: Iterable[Link],
        probability: float,
    ) -> None:
        """Drop messages on ``links`` with ``probability`` for ``duration``.

        Enables the network's lossy stress mode; the per-message drop
        decisions come from the network's seeded stream.
        """
        if duration <= 0:
            raise SimulationError("omission duration must be > 0")
        if not 0.0 < probability <= 1.0:
            raise SimulationError("omission probability must be in (0, 1]")
        self._ensure_lossy()
        frozen = list(links)
        self._at(at, self._start_omission, frozen, probability)
        self._at(at + duration, self._end_omission, frozen)

    def _start_omission(self, links: list[Link], probability: float) -> None:
        for sender, recipient in links:
            self._network.set_link_omission(sender, recipient, probability)
        self._log(
            "omission", self._links_label(links), f"p={probability:g}"
        )

    def _end_omission(self, links: list[Link]) -> None:
        for sender, recipient in links:
            self._network.set_link_omission(sender, recipient, 0.0)
        self._log("omission-end", self._links_label(links))

    # -- internals -----------------------------------------------------------

    def _ensure_lossy(self) -> None:
        if not self._network.lossy:
            self._network.enable_lossy_mode()
        if not self._lossy_logged:
            self._lossy_logged = True
            self._log(
                "lossy-mode",
                "network",
                "loss faults beyond the paper's channel model enabled",
            )

    def _at(self, time: float, action: Callable[..., None], *args: object) -> None:
        delay = time - self._sim.now
        if delay < 0:
            raise SimulationError(
                f"cannot schedule a fault in the past: {time} < {self._sim.now}"
            )
        self._sim.schedule(delay, action, *args)

    def _log(self, kind: str, target: str, detail: str = "") -> None:
        event = FaultEvent(
            time=self._sim.now, kind=kind, target=target, detail=detail
        )
        self.faults.append(event)
        if self._events is not None:
            self._events.record(
                self._sim.now, "nemesis", kind, f"{target} {detail}".strip()
            )

    @staticmethod
    def _links_label(links: list[Link]) -> str:
        return ",".join(f"{sender}->{recipient}" for sender, recipient in links)


def links_between(
    senders: Iterable[NodeId], recipients: Iterable[NodeId], symmetric: bool = True
) -> list[Link]:
    """All directed links from ``senders`` to ``recipients`` (and back).

    Convenience for building omission/delay fault sets, e.g. "everything
    between proxy 0 and the first three storage nodes".
    """
    senders = list(senders)
    recipients = list(recipients)
    links: list[Link] = []
    for sender in senders:
        for recipient in recipients:
            if sender == recipient:
                continue
            links.append((sender, recipient))
            if symmetric:
                links.append((recipient, sender))
    return links
