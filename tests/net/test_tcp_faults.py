"""TcpTransport under faults: peer death mid-stream, resets, reconnects.

Satellite coverage for the at-most-once contract: when a connection
breaks, every frame in flight is lost *as a unit* (coalesced batches
never straddle a reconnect, so the receiver's decoder never sees a torn
frame), nothing is re-queued, and the route re-establishes with backoff
once the peer is back.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.common.types import NodeId, QuorumConfig
from repro.net.codec import encode_frame
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport
from repro.sim.network import Envelope

pytestmark = pytest.mark.slow

SERVER = NodeId.storage(0)
CLIENT = NodeId.client(0)


async def _drain(kernel, mailbox, sink, count, timeout=5.0):
    for _ in range(count):
        envelope = await asyncio.wait_for(
            kernel.wrap_future(mailbox.receive()), timeout
        )
        sink.append(envelope.payload)


async def _settle(condition, timeout=5.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


def test_route_reestablishes_after_peer_death_mid_stream() -> None:
    """Kill the server while traffic flows; bring it back on the same
    port; the peer link must reconnect (with backoff) and later frames
    must arrive exactly once, with no decode errors from torn frames."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(
            kernel, {}, listen_port=0, rng=random.Random(1)
        )
        await server.start()
        assert server.listen_address is not None
        host, port = server.listen_address
        directory = {SERVER: (host, port)}
        client = TcpTransport(kernel, directory, rng=random.Random(2))
        await client.start()
        server_box = server.register(SERVER)
        client.register(CLIENT)
        received: list = []
        try:
            for round_no in range(3):
                client.send(CLIENT, SERVER, f"before-{round_no}", size=32)
            await _drain(kernel, server_box, received, 3)

            # Fail-stop the server mid-stream.  A frame sent while it is
            # down is lost if it was written to the dying socket, or
            # rides the reconnect if the link already knew it was down
            # and kept it queued (which of the two depends on when the
            # event loop reports the close: from Python 3.12 the server's
            # ``wait_closed`` lets the client see it first).  Either way
            # it arrives at most once.
            await server.stop()
            for round_no in range(5):
                client.send(CLIENT, SERVER, f"during-{round_no}", size=32)
            await asyncio.sleep(0.2)  # let the link notice and retry

            # Same port, fresh process-equivalent.
            reborn = TcpTransport(
                kernel,
                {},
                listen_host=host,
                listen_port=port,
                rng=random.Random(3),
            )
            await reborn.start()
            reborn_box = reborn.register(SERVER)
            try:
                assert await _settle(
                    lambda: any(
                        link.reconnects > 0
                        for link in client._peers.values()
                    )
                ), "peer link never reconnected"
                for round_no in range(3):
                    client.send(CLIENT, SERVER, f"after-{round_no}", size=32)
                after: list = []
                while "after-2" not in after:
                    await _drain(kernel, reborn_box, after, 1)
                # FIFO per link: downtime frames that rode the reconnect
                # arrive first, the three sent after it last.
                assert after[-3:] == ["after-0", "after-1", "after-2"]
                assert set(after[:-3]) <= {f"during-{n}" for n in range(5)}
                # Exactly once: no payload delivered twice across the
                # old and new incarnations.
                everything = received + after
                assert len(everything) == len(set(everything))
                assert server.decode_errors == 0
                assert reborn.decode_errors == 0
            finally:
                await reborn.stop()
        finally:
            await client.stop()
            await server.stop()

    asyncio.run(scenario())


def test_drop_connections_loses_inflight_as_a_unit() -> None:
    """A reset under load must never duplicate or tear frames: the
    receiver sees a prefix-unique subset of what was sent, decodes
    cleanly, and traffic resumes on the re-established link."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(
            kernel, {}, listen_port=0, rng=random.Random(4)
        )
        await server.start()
        directory = {SERVER: server.listen_address}
        client = TcpTransport(kernel, directory, rng=random.Random(5))
        await client.start()
        server_box = server.register(SERVER)
        client.register(CLIENT)
        received: list = []

        async def pump_received() -> None:
            while True:
                envelope = await kernel.wrap_future(server_box.receive())
                received.append(envelope.payload)

        pump = asyncio.get_running_loop().create_task(pump_received())
        try:
            # Interleave bursts with resets: every reset severs the live
            # connection, losing whatever batch was in flight as a unit.
            sent = 0
            for burst in range(4):
                for _ in range(50):
                    client.send(CLIENT, SERVER, f"m-{sent}", size=16)
                    sent += 1
                client.drop_connections()
                await asyncio.sleep(0.05)
            assert client.connection_resets == 4
            # The link recovers: a fresh burst after the last reset must
            # get through.
            await asyncio.sleep(0.3)
            marker_base = sent
            for _ in range(5):
                client.send(CLIENT, SERVER, f"m-{sent}", size=16)
                sent += 1
            markers = {f"m-{n}" for n in range(marker_base, sent)}
            assert await _settle(
                lambda: markers <= set(received)
            ), "post-reset traffic never arrived"

            # At-most-once: nothing duplicated...
            assert len(received) == len(set(received))
            # ...and nothing torn: every loss was a whole frame, so the
            # decoder never saw a partial record.
            assert server.decode_errors == 0
            assert set(received) <= {f"m-{n}" for n in range(sent)}
        finally:
            pump.cancel()
            try:
                await pump
            except asyncio.CancelledError:
                pass
            await client.stop()
            await server.stop()

    asyncio.run(scenario())


def test_reset_with_no_live_connection_is_harmless() -> None:
    async def scenario() -> None:
        kernel = RealtimeKernel()
        transport = TcpTransport(kernel, {}, rng=random.Random(6))
        await transport.start()
        transport.drop_connections()  # nothing to sever: no-op
        assert transport.connection_resets == 1
        await transport.stop()

    asyncio.run(scenario())


def _frame(payload: object) -> bytes:
    return encode_frame(Envelope(CLIENT, SERVER, payload, size=16))


def _spliced(payload: object, old: str, new: str) -> bytes:
    """``payload``'s frame with one run of bytes replaced in place."""
    frame = _frame(payload)
    assert frame.count(bytes.fromhex(old)) == 1
    return frame.replace(bytes.fromhex(old), bytes.fromhex(new))


#: Frames that decode to garbage the value constructors refuse; each
#: used to escape the decoder as a non-``CodecError`` exception.
BAD_FRAMES = {
    # "é" (c3 a9) becomes ff fe: invalid UTF-8.
    "invalid-utf8": _spliced("ok-\u00e9", "c3a9", "fffe"),
    # QuorumConfig(read=1) becomes read=0, which its __post_init__ refuses.
    "quorum-read-0": _spliced(
        QuorumConfig(read=1, write=2), "0a0103020304", "0a0103000304"
    ),
    # frozenset({7}) becomes frozenset({{}}): an unhashable element.
    "unhashable-element": _spliced(frozenset({7}), "0801030e", "08010900"),
}


@pytest.mark.parametrize("bad", sorted(BAD_FRAMES))
def test_malformed_frame_is_counted_and_skipped(bad: str) -> None:
    """A frame the codec refuses costs one ``decode_errors``: the good
    frames buffered around it are delivered and the stream stays up."""

    async def scenario() -> None:
        kernel = RealtimeKernel()
        server = TcpTransport(
            kernel, {}, listen_port=0, rng=random.Random(7)
        )
        await server.start()
        server_box = server.register(SERVER)
        host, port = server.listen_address
        _reader, writer = await asyncio.open_connection(host, port)
        received: list = []
        try:
            writer.write(
                _frame("good-1") + BAD_FRAMES[bad] + _frame("good-2")
            )
            await writer.drain()
            await _drain(kernel, server_box, received, 2)
            assert received == ["good-1", "good-2"]
            assert server.decode_errors == 1
            # Same connection, later frame: the stream was not dropped.
            writer.write(_frame("good-3"))
            await writer.drain()
            await _drain(kernel, server_box, received, 1)
            assert received[-1] == "good-3"
            assert server.frames_received == 4
        finally:
            writer.close()
            await server.stop()

    asyncio.run(scenario())
