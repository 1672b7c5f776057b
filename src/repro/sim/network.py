"""Simulated cluster network: reliable, FIFO, bandwidth-modelled channels.

The paper's system model (Section 3) assumes reliable FIFO channels —
"each message is eventually delivered unless either the sender or the
receiver crashes during the transmission" — over an asynchronous network.
This module implements exactly that, with a physically grounded delay
model: each node's egress and ingress serialize through a single
full-duplex link (the Gigabit NIC of the Section 2.2 test-bed), then the
message pays a propagation delay with a small jitter.  Because proxies
relay the full object payload to or from every contacted replica, NIC
serialization is what makes the per-operation cost grow with the quorum
size — the effect at the heart of Figure 2.

Beyond the paper's model, the network exposes a **fault surface** for
nemesis-style chaos testing (:mod:`repro.sim.nemesis`):

* delay spikes per directed link (:meth:`Network.set_delay_factor`) —
  model-faithful, since the network is asynchronous;
* crash-window drops — model-faithful ("lost if the sender or receiver
  crashes during the transmission");
* network partitions (:meth:`Network.partition` / :meth:`Network.heal`)
  and per-link message omission (:meth:`Network.set_link_omission`) —
  these *violate* the reliable-channel assumption and therefore require
  the explicit stress-test opt-in :meth:`Network.enable_lossy_mode`.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Tuple

from repro.common.config import NetworkConfig
from repro.common.errors import SimulationError
from repro.common.types import NodeId
from repro.sim.kernel import Future, Simulator
from repro.sim.primitives import Resource

if TYPE_CHECKING:
    from repro.obs.context import Observability


@dataclass
class Envelope:
    """A message in flight: payload plus delivery metadata."""

    sender: NodeId
    recipient: NodeId
    payload: Any
    size: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0
    #: Trace context ``(trace_id, parent_span_id)`` propagated from the
    #: sender, so the receiver's spans join the sender's trace tree.
    trace: Optional[Tuple[int, int]] = None


class Mailbox:
    """Per-node inbox with future-based receive."""

    def __init__(self, sim: Simulator, owner: NodeId) -> None:
        self._sim = sim
        self.owner = owner
        # Formatted once: the name only shows in reprs and errors.
        self._recv_name = f"{owner}.recv"
        self._messages: deque[Envelope] = deque()
        self._waiters: deque[Future] = deque()

    def __len__(self) -> int:
        return len(self._messages)

    def deliver(self, envelope: Envelope) -> None:
        if self._waiters:
            self._waiters.popleft().resolve(envelope)
        else:
            self._messages.append(envelope)

    def receive(self) -> Future:
        """A future resolving with the next :class:`Envelope`."""
        future = self._sim.future(name=self._recv_name)
        if self._messages:
            future.resolve(self._messages.popleft())
        else:
            self._waiters.append(future)
        return future

    def drain(self) -> list[Envelope]:
        """Remove and return all queued messages (used on crash)."""
        messages = list(self._messages)
        self._messages.clear()
        return messages


@dataclass
class _ChannelState:
    """FIFO bookkeeping for one directed (sender, receiver) pair."""

    #: Arrival time of the channel's most recent message at the receiver's
    #: ingress queue; later messages are clamped to arrive no earlier, so
    #: per-hop jitter can never reorder a channel.
    last_arrival: float = 0.0
    #: Multiplier on computed latency; test hook for modelling slow links.
    delay_factor: float = 1.0


class Network:
    """The cluster interconnect.

    Nodes register once to obtain a :class:`Mailbox`; anyone can then
    :meth:`send` to a registered node.  Sends from or to crashed nodes are
    silently dropped, matching the fail-stop model.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._sim = sim
        self._config = (config or NetworkConfig()).validate()
        self._rng = rng or random.Random(0)
        self._mailboxes: dict[NodeId, Mailbox] = {}
        self._crashed: set[NodeId] = set()
        self._channels: dict[tuple[NodeId, NodeId], _ChannelState] = {}
        self._egress: dict[NodeId, Resource] = {}
        self._ingress: dict[NodeId, Resource] = {}
        # Stress-test fault state (all gated on lossy mode).
        self._lossy = False
        self._partition: Optional[dict[NodeId, int]] = None
        self._omission: dict[tuple[NodeId, NodeId], float] = {}
        # Optional observability hook (delivery-latency histogram).
        self._obs: Optional["Observability"] = None
        #: Delivery counters for observability.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_omitted = 0
        self.messages_partitioned = 0
        self.bytes_sent = 0

    # -- registration -------------------------------------------------------

    def register(self, node_id: NodeId) -> Mailbox:
        if node_id in self._mailboxes:
            raise SimulationError(f"{node_id} already registered")
        mailbox = Mailbox(self._sim, node_id)
        self._mailboxes[node_id] = mailbox
        self._egress[node_id] = Resource(
            self._sim, concurrency=1, name=f"{node_id}.nic-tx"
        )
        self._ingress[node_id] = Resource(
            self._sim, concurrency=1, name=f"{node_id}.nic-rx"
        )
        return mailbox

    def nic_utilization(self, node_id: NodeId, elapsed: float) -> tuple[float, float]:
        """(egress, ingress) utilization of a node's link over ``elapsed``."""
        return (
            self._egress[node_id].utilization(elapsed),
            self._ingress[node_id].utilization(elapsed),
        )

    def bind_observability(self, obs: "Observability") -> None:
        """Record per-message delivery latency into ``obs``'s histogram."""
        self._obs = obs

    def mailbox(self, node_id: NodeId) -> Mailbox:
        return self._mailboxes[node_id]

    # -- failure management -------------------------------------------------

    def crash(self, node_id: NodeId) -> None:
        """Fail-stop the node: all its traffic is dropped from now on."""
        self._crashed.add(node_id)
        if node_id in self._mailboxes:
            self._mailboxes[node_id].drain()

    def is_crashed(self, node_id: NodeId) -> bool:
        return node_id in self._crashed

    def set_delay_factor(
        self, sender: NodeId, recipient: NodeId, factor: float
    ) -> None:
        """Scale the latency of one directed channel.

        Model-faithful (the network is asynchronous): messages are
        delayed, never lost, so no lossy-mode opt-in is required.
        """
        if factor <= 0:
            raise SimulationError("delay factor must be > 0")
        self._channel(sender, recipient).delay_factor = factor

    # -- stress-test fault surface (lossy mode) ------------------------------

    @property
    def lossy(self) -> bool:
        """Whether loss faults beyond the paper's model are permitted."""
        return self._lossy

    def enable_lossy_mode(self) -> None:
        """Opt in to faults that violate the reliable-channel model.

        Partitions and message omission lose messages even when neither
        endpoint crashes — something Section 3's channels never do.  The
        explicit opt-in keeps every model-faithful simulation loss-free
        by construction while letting chaos suites stress the recovery
        paths.
        """
        self._lossy = True

    def partition(self, groups: Sequence[Iterable[NodeId]]) -> None:
        """Split the cluster: messages crossing group boundaries are lost.

        ``groups`` lists the connectivity islands; any registered node
        not named in a group implicitly joins the first one.  Messages
        already in flight across a new boundary are dropped at delivery
        time (they were "in transmission" when the partition started);
        a later :meth:`heal` lets traffic flow again.  Requires lossy
        mode.
        """
        if not self._lossy:
            raise SimulationError(
                "partition() requires enable_lossy_mode(): partitions "
                "violate the paper's reliable-channel model"
            )
        if not groups:
            raise SimulationError("partition needs at least one group")
        membership: dict[NodeId, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in membership:
                    raise SimulationError(
                        f"{node} appears in more than one partition group"
                    )
                membership[node] = index
        self._partition = membership

    def heal(self) -> None:
        """Remove the current partition (messages flow everywhere again)."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def set_link_omission(
        self, sender: NodeId, recipient: NodeId, probability: float
    ) -> None:
        """Drop each message on a directed link with ``probability``.

        Requires lossy mode; a probability of 0 clears the fault.  Drops
        are drawn from the network's seeded stream, so a fixed seed
        reproduces the exact same loss pattern.
        """
        if not 0.0 <= probability <= 1.0:
            raise SimulationError("omission probability must be in [0, 1]")
        if probability == 0.0:
            self._omission.pop((sender, recipient), None)
            return
        if not self._lossy:
            raise SimulationError(
                "set_link_omission() requires enable_lossy_mode(): "
                "omission violates the paper's reliable-channel model"
            )
        self._omission[(sender, recipient)] = probability

    def clear_link_faults(self) -> None:
        """Remove all omission probabilities and delay factors."""
        self._omission.clear()
        for channel in self._channels.values():
            channel.delay_factor = 1.0

    def _separated(self, sender: NodeId, recipient: NodeId) -> bool:
        if self._partition is None:
            return False
        return self._partition.get(sender, 0) != self._partition.get(
            recipient, 0
        )

    # -- sending --------------------------------------------------------------

    def send(
        self,
        sender: NodeId,
        recipient: NodeId,
        payload: Any,
        size: int = 256,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Send asynchronously.

        The message serializes through the sender's egress link, pays the
        propagation delay, serializes through the recipient's ingress
        link, and is finally delivered — clamped so that each (sender,
        recipient) channel stays FIFO.
        """
        self.messages_sent += 1
        self.bytes_sent += size
        if sender in self._crashed or recipient in self._crashed:
            self.messages_dropped += 1
            return
        if self._separated(sender, recipient):
            self.messages_dropped += 1
            self.messages_partitioned += 1
            return
        omission = self._omission.get((sender, recipient))
        if omission is not None and self._rng.random() < omission:
            self.messages_dropped += 1
            self.messages_omitted += 1
            return
        if recipient not in self._mailboxes:
            raise SimulationError(f"send to unregistered node {recipient}")
        if sender not in self._egress:
            raise SimulationError(f"send from unregistered node {sender}")
        envelope = Envelope(
            sender=sender,
            recipient=recipient,
            payload=payload,
            size=size,
            sent_at=self._sim.now,
            trace=trace,
        )
        transmission = size / self._config.bandwidth
        self._egress[sender].use(transmission).add_callback(
            lambda _future: self._propagate(envelope, transmission)
        )

    def _propagate(self, envelope: Envelope, transmission: float) -> None:
        channel = self._channel(envelope.sender, envelope.recipient)
        base = self._config.base_latency
        jitter = self._rng.uniform(0, base * self._config.jitter_fraction)
        delay = (base + jitter) * channel.delay_factor
        # Per-channel FIFO: jitter must never let a message overtake an
        # earlier one from the same sender; the receiver's ingress queue
        # is itself FIFO, so clamping the arrival time suffices.
        arrival = max(self._sim.now + delay, channel.last_arrival)
        channel.last_arrival = arrival
        self._sim.schedule(
            arrival - self._sim.now, self._receive, envelope, transmission
        )

    def _receive(self, envelope: Envelope, transmission: float) -> None:
        if envelope.recipient in self._crashed:
            self.messages_dropped += 1
            return
        self._ingress[envelope.recipient].use(transmission).add_callback(
            lambda _future: self._deliver(envelope)
        )

    def _deliver(self, envelope: Envelope) -> None:
        if (
            envelope.recipient in self._crashed
            or envelope.sender in self._crashed
        ):
            self.messages_dropped += 1
            return
        if self._separated(envelope.sender, envelope.recipient):
            # In flight when the partition cut the link: lost.
            self.messages_dropped += 1
            self.messages_partitioned += 1
            return
        envelope.delivered_at = self._sim.now
        self.messages_delivered += 1
        if self._obs is not None:
            self._obs.net_delivery.observe(self._sim.now - envelope.sent_at)
        self._mailboxes[envelope.recipient].deliver(envelope)

    # -- internals ------------------------------------------------------------

    def _channel(self, sender: NodeId, recipient: NodeId) -> _ChannelState:
        key = (sender, recipient)
        state = self._channels.get(key)
        if state is None:
            state = _ChannelState()
            self._channels[key] = state
        return state
