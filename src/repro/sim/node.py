"""Base class for simulated protocol participants.

A :class:`Node` owns a mailbox on the network and runs a receive loop that
dispatches incoming payloads to handlers by payload type.  Handlers may be
plain methods (for instantaneous state updates) or generator methods (for
multi-step protocol interactions); generator handlers are spawned as child
processes so the receive loop is never blocked — this is what makes the
storage/proxy/manager protocol code non-blocking.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Optional, Tuple

from repro.common.errors import NodeCrashedError, SimulationError
from repro.common.types import NodeId
from repro.net.transport import Transport
from repro.sim.kernel import Process, ProcessGen, Simulator, kill_all
from repro.sim.network import Envelope


class Node:
    """A protocol process with a mailbox and typed message handlers.

    ``network`` is any :class:`~repro.net.transport.Transport` — the
    simulated :class:`~repro.sim.network.Network` or the live
    :class:`~repro.net.tcp.TcpTransport`; nodes never look past the
    ``register``/``send`` seam.
    """

    def __init__(self, sim: Simulator, network: Transport, node_id: NodeId) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        # Formatted once: span sites and write stamps name the node.
        self._name = str(node_id)
        self.mailbox = network.register(node_id)
        # Handler table: payload type -> (handler, child process name).
        # Both are resolved once at registration so the per-message
        # dispatch is a single dict probe — no f-string formatting or
        # reflection on the hot path.
        self._handlers: dict[type, tuple[Callable[[Envelope], Any], str]] = {}
        self._children: list[Process] = []
        self._loop: Optional[Process] = None
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id}>"

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin receiving messages.  Idempotent."""
        if self._loop is not None:
            return
        self._loop = self.sim.spawn(
            self._receive_loop(), name=f"{self.node_id}.recv-loop"
        )

    def crash(self) -> None:
        """Fail-stop this node: kill the receive loop and all children.

        They die together (:func:`~repro.sim.kernel.kill_all`): a child
        whose ``finally`` resolves a sibling's future must not resume
        that sibling, which would then act for a crashed node.
        """
        if self.crashed:
            return
        self.crashed = True
        kill_all(p for p in (self._loop, *self._children) if p is not None)
        self._children.clear()

    @property
    def alive(self) -> bool:
        return not self.crashed

    # -- message handling -----------------------------------------------------

    def register_handler(
        self, payload_type: type, handler: Callable[[Envelope], Any]
    ) -> None:
        """Route payloads of ``payload_type`` to ``handler``.

        ``handler`` receives the full :class:`Envelope`; if it is a
        generator function it runs as its own process.
        """
        if payload_type in self._handlers:
            raise SimulationError(
                f"{self.node_id}: duplicate handler for {payload_type.__name__}"
            )
        self._handlers[payload_type] = (
            handler,
            f"{self.node_id}.{payload_type.__name__}",
        )

    def send(
        self,
        recipient: NodeId,
        payload: Any,
        size: int = 256,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Send a payload to another node (async, fire-and-forget).

        ``trace`` is an optional span context propagated on the envelope
        so the receiver's spans join the sender's trace.
        """
        if self.crashed:
            raise NodeCrashedError(f"{self.node_id} is crashed")
        self.network.send(
            self.node_id, recipient, payload, size=size, trace=trace
        )

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Run a child process that dies with this node."""
        if self.crashed:
            raise NodeCrashedError(f"{self.node_id} is crashed")
        process = self.sim.spawn(gen, name=name or f"{self.node_id}.child")
        self._children.append(process)
        self._prune_children()
        return process

    # -- internals ------------------------------------------------------------

    def _receive_loop(self) -> ProcessGen:
        while True:
            envelope = yield self.mailbox.receive()
            if self.crashed:
                return
            self._dispatch(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        entry = self._handlers.get(type(envelope.payload))
        if entry is None:
            raise SimulationError(
                f"{self.node_id}: no handler for payload "
                f"{type(envelope.payload).__name__}"
            )
        handler, spawn_name = entry
        result = handler(envelope)
        if isinstance(result, GeneratorType):
            children = self._children
            children.append(self.sim.spawn(result, name=spawn_name))
            if len(children) > 64:
                self._children = [c for c in children if c.alive]

    def _prune_children(self) -> None:
        if len(self._children) > 64:
            self._children = [c for c in self._children if c.alive]
