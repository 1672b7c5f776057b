"""TCP implementation of the :class:`~repro.net.transport.Transport` seam.

One :class:`TcpTransport` serves all protocol nodes hosted by a process
(one replica, one proxy, or a whole fleet of loadgen clients).  Frames
are length-prefixed (:mod:`repro.net.codec`); inter-process links are:

* **outbound peer links** — one persistent connection per remote
  *process* (keyed by address, so every channel between two processes
  shares one FIFO TCP stream), with reconnect-and-exponential-backoff;
* **learned return routes** — replies to nodes that are not in the
  static directory (loadgen clients) flow back over the inbound
  connection that carried their requests, Swift-proxy style.

Failure semantics match the paper's model as deployed systems realize
it: a frame in flight when a connection breaks is *lost*, never
duplicated.  Duplication would be unsafe — a quorum gather counting one
replica's duplicated reply twice could declare a quorum that does not
exist — whereas loss is exactly what the protocol's deadline/retry
machinery (client attempts, proxy gather rotations, RM retransmissions)
is built to absorb.

Hot-path notes (see ``docs/PERFORMANCE.md``):

* **Protocol callbacks** — every connection is one
  :class:`asyncio.Protocol`.  The event loop hands received bytes
  straight to ``data_received`` and reports write backpressure through
  ``pause_writing``/``resume_writing``, so a connection needs no task
  of its own.
* **Write coalescing** — frames queued to one peer are held in an
  :class:`_Outbox`, which schedules at most one flush per event-loop
  tick.  The flush joins the queued frames into ``write()`` calls of at
  most ``flush_bytes`` each, so one huge burst cannot monopolise the
  loop or the join buffer.  It stops when the transport pauses writing
  and resumes when the transport drains: a slow peer leaves frames in
  the bounded deque (shed-oldest), so memory stays flat.
* **At-most-once** — frames handed to the socket transport
  are lost with the connection; nothing is ever re-queued.
* **Parse on arrival** — every complete frame in a received chunk is
  decoded and delivered at once, with zero-copy ``memoryview`` bodies;
  only a trailing partial frame is copied aside until the rest arrives.
"""

from __future__ import annotations

import asyncio
import logging
import random
from collections import deque
from typing import Any, Dict, Mapping, Optional, Tuple, cast

from repro.common.errors import SimulationError
from repro.common.types import NodeId
from repro.net.codec import (
    LENGTH_PREFIX,
    MAX_FRAME,
    CodecError,
    decode_frame_body,
    encode_frame,
)
from repro.net.kernel import RealtimeKernel
from repro.sim.network import Envelope, Mailbox

logger = logging.getLogger(__name__)

#: (host, port) address of a remote process.
Address = Tuple[str, int]


class _Outbox:
    """Bounded, coalescing frame queue of one peer link or learned route.

    Frames wait here until the attached connection can take them.  A
    peer link's outbox outlives its connections, so frames never written
    ride the next one; a learned route's outbox dies with its inbound
    connection.
    """

    __slots__ = ("_owner", "frames", "conn", "_scheduled")

    def __init__(self, owner: "TcpTransport") -> None:
        self._owner = owner
        self.frames: deque[bytes] = deque()
        self.conn: Optional[_Connection] = None
        self._scheduled = False

    def enqueue(self, frame: bytes) -> None:
        frames = self.frames
        if len(frames) >= self._owner.max_queued_frames:
            # Bounded sender-side buffering: shed the oldest frame (it is
            # the one whose deadline is nearest to expiry anyway).
            frames.popleft()
            self._owner.messages_dropped += 1
        frames.append(frame)
        if not self._scheduled:
            self.schedule()

    def schedule(self) -> None:
        """Flush on the next loop tick (at most one flush per tick)."""
        if self.conn is not None and not self._scheduled:
            self._scheduled = True
            self._owner._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Write queued frames in batches of at most ``flush_bytes``
        until the queue is empty or the transport pauses writing."""
        self._scheduled = False
        conn = self.conn
        if conn is None or conn.transport.is_closing():
            return
        owner = self._owner
        bound = owner.flush_bytes
        frames = self.frames
        write = conn.transport.write
        while frames and not conn.paused:
            batch = []
            size = 0
            while frames and size < bound:
                frame = frames.popleft()
                batch.append(frame)
                size += len(frame)
            # ``write`` may call ``pause_writing`` before it returns.
            write(batch[0] if len(batch) == 1 else b"".join(batch))
            owner.flushes += 1
            owner.frames_flushed += len(batch)


class _Connection(asyncio.Protocol):
    """One TCP connection: parses and delivers inbound frames as bytes
    arrive, and writes its outbox under the transport's flow control.

    ``link_outbox`` marks an outbound peer-link connection, which writes
    the link's long-lived outbox; an inbound connection opens its own
    outbox the first time a reply rides one of its learned routes.
    """

    def __init__(
        self, owner: "TcpTransport", link_outbox: Optional[_Outbox] = None
    ) -> None:
        self._owner = owner
        self._link = link_outbox is not None
        self.outbox = link_outbox
        self.transport: asyncio.Transport
        self.paused = False
        #: Bytes of a partial frame waiting for the rest of it.
        self._pending: Optional[bytearray] = None
        #: Resolved by :meth:`connection_lost`; a peer link awaits it.
        self.lost: "asyncio.Future[None]" = owner._loop.create_future()

    # -- asyncio.Protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        owner = self._owner
        if self._link:
            outbox = cast(_Outbox, self.outbox)
            outbox.conn = self
            outbox.schedule()
        elif owner._stopped:
            transport.close()
        else:
            owner._inbound.add(self)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        owner = self._owner
        owner._inbound.discard(self)
        routes = owner._routes
        for node_id, conn in list(routes.items()):
            if conn is self:
                del routes[node_id]
        outbox = self.outbox
        if outbox is not None:
            outbox.conn = None
            if not self._link:
                # Broken route: everything still queued is lost; the
                # client's retry machinery recovers.
                owner.messages_dropped += len(outbox.frames)
                outbox.frames.clear()
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.outbox is not None:
            self.outbox.schedule()

    def data_received(self, data: bytes) -> None:
        # Decode every complete frame now.  Bodies go to the codec as
        # ``memoryview`` slices (no per-frame copy); the codec
        # materializes every decoded leaf, so the buffer may be dropped
        # afterwards.  Only a trailing partial frame is kept, as a fresh
        # ``bytearray`` (never resized while a view may pin it).
        owner = self._owner
        dispatch = owner._kernel._dispatch
        pending = self._pending
        buf: Any = data
        if pending is not None:
            pending += data
            buf = pending
        view = memoryview(buf)
        buflen = len(buf)
        offset = 0
        while buflen - offset >= LENGTH_PREFIX:
            header_end = offset + LENGTH_PREFIX
            length = int.from_bytes(buf[offset:header_end], "big")
            if length > MAX_FRAME:
                logger.warning(
                    "dropping connection: %d-byte frame announced", length
                )
                self._pending = None
                self.transport.close()
                return
            end = header_end + length
            if end > buflen:
                break
            owner.frames_received += 1
            try:
                envelope = decode_frame_body(view[header_end:end])
            except CodecError:
                owner.decode_errors += 1
                logger.warning("undecodable frame", exc_info=True)
                offset = end
                continue
            offset = end
            # Learn/refresh the return route to the sender; replies to
            # directory-less nodes travel back over this connection.
            if envelope.sender not in owner.directory:
                owner._routes[envelope.sender] = self
            if envelope.recipient not in owner._mailboxes:
                owner.messages_dropped += 1
                continue
            # Deliver now, through the kernel's dispatch (which refreshes
            # ``now`` and counts the event).  An exception escaping this
            # callback would make asyncio close the connection, so a
            # faulty handler is logged and counted instead.
            try:
                dispatch(owner._deliver, (envelope,))
            except Exception:  # noqa: BLE001
                owner.delivery_errors += 1
                logger.exception("handler failed on a delivered frame")
        if offset == buflen:
            self._pending = None
        elif offset or pending is None:
            self._pending = bytearray(view[offset:])

    # -- outbound ------------------------------------------------------------

    def send_route(self, frame: bytes) -> None:
        """Queue a reply to a node whose route this connection carries."""
        outbox = self.outbox
        if outbox is None:
            outbox = self.outbox = _Outbox(self._owner)
            outbox.conn = self
        outbox.enqueue(frame)


class _PeerLink:
    """One persistent outbound connection with reconnect + backoff."""

    def __init__(self, owner: "TcpTransport", address: Address) -> None:
        self._owner = owner
        self.address = address
        self.outbox = _Outbox(owner)
        self.reconnects = 0
        self._conn: Optional[_Connection] = None
        self._task = owner._loop.create_task(self._run())

    def reset(self) -> None:
        """Abruptly drop the live connection (fault injection).

        Frames already handed to the socket are lost with it — exactly
        the at-most-once contract a real RST gives — and the run loop
        reconnects with the usual backoff.  Frames still queued were
        never written and simply ride the next connection.
        """
        conn = self._conn
        if conn is not None:
            conn.transport.close()

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass

    async def _run(self) -> None:
        owner = self._owner
        backoff = owner.reconnect_base
        host, port = self.address
        while True:
            conn = _Connection(owner, self.outbox)
            try:
                await owner._loop.create_connection(lambda: conn, host, port)
            except OSError:
                await asyncio.sleep(backoff * (1.0 + owner._rng.random()))
                backoff = min(owner.reconnect_cap, backoff * 2)
                continue
            backoff = owner.reconnect_base
            self._conn = conn
            try:
                # The peer may address frames back at us over this same
                # connection (replies to loadgen clients), so the
                # connection reads as well as writes; its read side sees
                # the peer's EOF/RST even when writes still buffer.
                await conn.lost
            finally:
                self._conn = None
                conn.transport.close()
            self.reconnects += 1


class TcpTransport:
    """The live message fabric: a :class:`Transport` over asyncio TCP."""

    def __init__(
        self,
        kernel: RealtimeKernel,
        directory: Mapping[NodeId, Address],
        listen_host: str = "127.0.0.1",
        listen_port: Optional[int] = None,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        max_queued_frames: int = 10_000,
        flush_bytes: int = 256 * 1024,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._kernel = kernel
        self._loop = kernel._loop
        #: Static node -> address map (shared, may be filled in later but
        #: before the first send to that node).
        self.directory = dict(directory)
        self._listen_host = listen_host
        self._listen_port = listen_port
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.max_queued_frames = max_queued_frames
        #: Upper bound on bytes joined into one coalesced ``write()``.
        self.flush_bytes = flush_bytes
        self._rng = rng if rng is not None else random.Random()
        self._mailboxes: Dict[NodeId, Mailbox] = {}
        self._peers: Dict[Address, _PeerLink] = {}
        self._routes: Dict[NodeId, _Connection] = {}
        self._inbound: set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._started = False
        self._stopped = False
        # Delivery counters (same names as the sim Network's, so metrics
        # code can scrape either fabric uniformly).
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.decode_errors = 0
        #: Inbound deliveries whose handler raised (logged, then skipped).
        self.delivery_errors = 0
        # Coalescing counters: frames_flushed / flushes is the mean
        # batch size actually achieved on the wire.
        self.flushes = 0
        self.frames_flushed = 0
        # Fault injection: times drop_connections() reset live links.
        self.connection_resets = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (if this process accepts inbound)."""
        if self._started:
            return
        self._started = True
        if self._listen_port is not None:
            self._server = await self._loop.create_server(
                lambda: _Connection(self),
                self._listen_host,
                self._listen_port,
            )
            sockets = self._server.sockets or []
            if self._listen_port == 0 and sockets:
                self._listen_port = sockets[0].getsockname()[1]

    @property
    def listen_address(self) -> Optional[Address]:
        """The bound (host, port), once :meth:`start` has run."""
        if self._listen_port is None:
            return None
        return (self._listen_host, self._listen_port)

    async def stop(self) -> None:
        """Close the server, every peer link and every learned route."""
        self._stopped = True
        # ``Server.close`` only stops *listening*; accepted connections
        # must be hung up explicitly or remote peers never notice, and
        # (from Python 3.12) ``wait_closed`` waits for them to close.
        if self._server is not None:
            self._server.close()
        for conn in list(self._inbound):
            conn.transport.close()
        if self._server is not None:
            await self._server.wait_closed()
        for link in list(self._peers.values()):
            await link.close()
        self._peers.clear()
        self._routes.clear()

    def drop_connections(self) -> None:
        """Sever every live connection without stopping the transport.

        The nemesis's "connection reset" fault: peer links lose the
        frames already handed to the socket and reconnect with backoff;
        inbound connections (and the learned return routes riding them)
        are hung up, so remote clients re-establish on their next send.
        Nothing is duplicated or re-queued — at-most-once is preserved.
        """
        self.connection_resets += 1
        for link in self._peers.values():
            link.reset()
        for conn in list(self._inbound):
            conn.transport.close()

    # -- Transport surface ---------------------------------------------------

    def register(self, node_id: NodeId) -> Mailbox:
        if node_id in self._mailboxes:
            raise SimulationError(f"{node_id} already registered")
        mailbox = Mailbox(self._kernel, node_id)
        self._mailboxes[node_id] = mailbox
        return mailbox

    def send(
        self,
        sender: NodeId,
        recipient: NodeId,
        payload: Any,
        size: int = 256,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        if self._stopped:
            self.messages_dropped += 1
            return
        envelope = Envelope(
            sender=sender,
            recipient=recipient,
            payload=payload,
            size=size,
            sent_at=self._kernel.tick(),
            trace=trace,
        )
        local = self._mailboxes.get(recipient)
        if local is not None:
            # Same-process delivery skips the wire but still round-trips
            # through the kernel so ordering relative to scheduled work
            # matches a real hop.
            self._kernel.post(self._deliver, envelope)
            return
        frame = encode_frame(envelope)
        address = self.directory.get(recipient)
        if address is not None:
            link = self._peers.get(address)
            if link is None:
                link = _PeerLink(self, address)
                self._peers[address] = link
            link.outbox.enqueue(frame)
            return
        conn = self._routes.get(recipient)
        if conn is not None and not conn.transport.is_closing():
            conn.send_route(frame)
            return
        # No route: the peer never contacted us and is not in the
        # directory.  Fail-stop semantics — drop.
        self.messages_dropped += 1

    # -- inbound path --------------------------------------------------------

    def _deliver(self, envelope: Envelope) -> None:
        mailbox = self._mailboxes.get(envelope.recipient)
        if mailbox is None:
            self.messages_dropped += 1
            return
        envelope.delivered_at = self._kernel.now
        self.messages_delivered += 1
        mailbox.deliver(envelope)


__all__ = ["TcpTransport", "Address"]
