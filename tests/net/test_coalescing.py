"""TcpTransport write coalescing, flush bounds, and backpressure.

The coalescing counters (``flushes`` / ``frames_flushed``) make batching
observable without packet capture: their ratio is the realized batch
size on the wire.
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter

import pytest

from repro.common.types import NodeId
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport, _Connection, _Outbox

pytestmark = pytest.mark.slow

SERVER = NodeId.storage(0)
CLIENT = NodeId.client(0)


async def _receive(kernel: RealtimeKernel, mailbox, timeout: float = 5.0):
    return await asyncio.wait_for(
        kernel.wrap_future(mailbox.receive()), timeout
    )


def test_burst_coalesces_into_single_send() -> None:
    """Frames queued within one tick go out as ONE write+drain."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(kernel, {}, listen_port=0, rng=random.Random(1))
        await server.start()
        client = TcpTransport(
            kernel, {SERVER: server.listen_address}, rng=random.Random(2)
        )
        await client.start()
        server_box = server.register(SERVER)
        try:
            count = 10
            # No awaits between sends: everything queues before the pump
            # (or even the connection) gets a chance to run.
            for sequence in range(count):
                client.send(CLIENT, SERVER, sequence, size=8)
            received = [
                (await _receive(kernel, server_box)).payload
                for _ in range(count)
            ]
            assert received == list(range(count))
            assert client.frames_flushed == count
            assert client.flushes == 1  # the whole burst, one syscall path
        finally:
            await client.stop()
            await server.stop()

    asyncio.run(scenario())


def test_flush_bound_limits_batch_size() -> None:
    """``flush_bytes`` caps how much one coalesced write may join."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(kernel, {}, listen_port=0, rng=random.Random(3))
        await server.start()
        client = TcpTransport(
            kernel,
            {SERVER: server.listen_address},
            flush_bytes=1,  # degenerate bound: one frame per batch
            rng=random.Random(4),
        )
        await client.start()
        server_box = server.register(SERVER)
        try:
            count = 10
            for sequence in range(count):
                client.send(CLIENT, SERVER, sequence, size=8)
            received = [
                (await _receive(kernel, server_box)).payload
                for _ in range(count)
            ]
            assert received == list(range(count))
            assert client.frames_flushed == count
            assert client.flushes == count  # bound forbids coalescing
        finally:
            await client.stop()
            await server.stop()

    asyncio.run(scenario())


def test_slow_reader_applies_backpressure_then_drains() -> None:
    """A peer that stops reading suspends the pump via ``drain()``.

    Frames must pile up in the bounded queue (flat memory) instead of
    being written into an unbounded userspace buffer, and must all flow
    once the reader resumes.
    """

    async def scenario() -> None:
        kernel = RealtimeKernel()
        release = asyncio.Event()
        swallowed = bytearray()

        async def slow_handler(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            await release.wait()
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    break
                swallowed.extend(chunk)
            writer.close()

        raw_server = await asyncio.start_server(
            slow_handler, "127.0.0.1", 0
        )
        address = raw_server.sockets[0].getsockname()[:2]
        client = TcpTransport(
            kernel, {SERVER: address}, rng=random.Random(5)
        )
        await client.start()
        try:
            count = 128
            payload = b"x" * (1 << 16)  # 64 KiB per frame, 8 MiB total
            for _ in range(count):
                client.send(CLIENT, SERVER, payload, size=len(payload))
            await asyncio.sleep(0.3)
            # The socket + stream buffers hold far less than 8 MiB, so a
            # never-reading peer must leave most frames still queued.
            assert 0 < client.frames_flushed < count
            assert client.messages_dropped == 0
            release.set()
            deadline = asyncio.get_event_loop().time() + 10.0
            while client.frames_flushed < count:
                assert asyncio.get_event_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert client.frames_flushed == count
        finally:
            await client.stop()
            raw_server.close()
            await raw_server.wait_closed()

    asyncio.run(scenario())


class _FakeTransport:
    """Records writes; never pauses, never fails."""

    def __init__(self) -> None:
        self.writes: list = []

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return False


def test_broken_connection_drops_coalesced_batch_as_unit() -> None:
    """At-most-once: a batch in flight on a dead link is lost, never
    re-queued — re-sending could let a duplicated replica reply fake a
    quorum."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        transport = TcpTransport(kernel, {}, rng=random.Random(0))
        outbox = _Outbox(transport)
        frames = [bytes([value]) * 8 for value in range(5)]
        for frame in frames:
            outbox.enqueue(frame)
        dead = _FakeTransport()
        conn = _Connection(transport, outbox)
        conn.connection_made(dead)
        await asyncio.sleep(0)  # one loop tick: one flush
        # The whole burst was coalesced into one write...
        assert dead.writes == [b"".join(frames)]
        assert (transport.flushes, transport.frames_flushed) == (1, 5)
        conn.connection_lost(ConnectionResetError("peer vanished mid-batch"))
        # ...and on failure it is gone as a unit: nothing re-queued, so
        # the next connection of the link writes nothing.
        assert not outbox.frames
        fresh = _FakeTransport()
        _Connection(transport, outbox).connection_made(fresh)
        await asyncio.sleep(0)
        assert fresh.writes == []
        assert transport.messages_dropped == 0
        await transport.stop()

    asyncio.run(scenario())


def test_no_duplicate_delivery_across_reconnect() -> None:
    """Every payload is distinct; after a server restart nothing may
    arrive twice (loss is allowed, duplication never)."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(kernel, {}, listen_port=0, rng=random.Random(6))
        await server.start()
        address = server.listen_address
        client = TcpTransport(
            kernel,
            {SERVER: address},
            reconnect_base=0.02,
            reconnect_cap=0.1,
            rng=random.Random(7),
        )
        await client.start()
        server_box = server.register(SERVER)
        try:
            client.send(CLIENT, SERVER, "before", size=16)
            assert (await _receive(kernel, server_box)).payload == "before"
            await server.stop()
            # A burst queued around the hangup: coalesced, then lost
            # with the connection (or delivered once after reconnect).
            for sequence in range(10):
                client.send(CLIENT, SERVER, f"during-{sequence}", size=16)
            await asyncio.sleep(0.05)

            server2 = TcpTransport(
                kernel,
                {},
                listen_host=address[0],
                listen_port=address[1],
                rng=random.Random(8),
            )
            await server2.start()
            server2_box = server2.register(SERVER)
            got = []
            for attempt in range(100):
                client.send(CLIENT, SERVER, f"after-{attempt}", size=16)
                try:
                    envelope = await _receive(
                        kernel, server2_box, timeout=0.1
                    )
                    got.append(envelope.payload)
                    break
                except asyncio.TimeoutError:
                    continue
            assert got, "link never recovered"
            # Drain whatever else lands shortly after recovery.
            while True:
                try:
                    envelope = await _receive(
                        kernel, server2_box, timeout=0.3
                    )
                    got.append(envelope.payload)
                except asyncio.TimeoutError:
                    break
            duplicated = [
                payload
                for payload, copies in Counter(got).items()
                if copies > 1
            ]
            assert not duplicated, f"duplicated delivery: {duplicated}"
            await server2.stop()
        finally:
            await client.stop()

    asyncio.run(scenario())
