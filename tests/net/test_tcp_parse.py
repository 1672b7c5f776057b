"""The inbound frame parser of ``TcpTransport``, driven without sockets.

A ``_Connection`` is an ``asyncio.Protocol``: these tests feed its
``data_received`` by hand, in chunks that split frames anywhere, and
read what it delivered from the registered mailbox.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, List

from repro.common.types import NodeId, VersionStamp
from repro.net.codec import LENGTH_PREFIX, MAX_FRAME, encode_frame
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport, _Connection
from repro.sds import messages
from repro.sim.network import Envelope

PROXY = NodeId.proxy(0)
STORAGE = NodeId.storage(0)


class _FakeTransport:
    def __init__(self) -> None:
        self.closing = False

    def write(self, data: bytes) -> None:
        pass

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


def _envelopes() -> List[Envelope]:
    value = random.Random(5).randbytes(32 * 1024)
    stamp = VersionStamp(1.5, "proxy-0")
    payloads: List[Any] = [
        messages.ReplicaRead("obj-000001", 7, 901),
        messages.ReplicaWrite(
            "obj-000002", value, len(value), stamp, 7, 3, 902
        ),
        "between",
        messages.ReplicaWriteReply("obj-000002", 902, STORAGE),
        messages.LeaseRead("obj-000003", 7, 903),
    ]
    # Four rounds, so chunk boundaries also fall inside a frame that
    # follows one completed from a held partial frame.
    return [
        Envelope(PROXY, STORAGE, payload, size=16, sent_at=float(index))
        for index, payload in enumerate(payloads * 4)
    ]


def _key(envelope: Envelope) -> tuple:
    return (
        envelope.sender,
        envelope.recipient,
        envelope.payload,
        envelope.size,
        envelope.sent_at,
        envelope.trace,
    )


def _run(body: Callable[[TcpTransport], None]) -> None:
    async def scenario() -> None:
        transport = TcpTransport(RealtimeKernel(), {PROXY: ("127.0.0.1", 9)})
        try:
            body(transport)
        finally:
            await transport.stop()

    asyncio.run(scenario())


def _feed(conn: _Connection, stream: bytes, sizes: Callable[[], int]) -> None:
    offset = 0
    while offset < len(stream):
        step = sizes()
        conn.data_received(stream[offset : offset + step])
        offset += step


def test_split_frames_parse_to_the_same_envelopes() -> None:
    sent = _envelopes()
    stream = b"".join(encode_frame(envelope) for envelope in sent)
    chunkings = {
        "one byte": lambda: 1,
        "seeded random": (lambda rng: lambda: rng.randint(1, 4000))(
            random.Random(11)
        ),
    }
    for label, sizes in chunkings.items():

        def body(transport: TcpTransport) -> None:
            mailbox = transport.register(STORAGE)
            conn = _Connection(transport)
            fake = _FakeTransport()
            conn.connection_made(fake)  # type: ignore[arg-type]
            _feed(conn, stream, sizes)
            got = mailbox.drain()
            assert [_key(e) for e in got] == [_key(e) for e in sent], label
            assert transport.frames_received == len(sent)
            assert transport.decode_errors == 0
            assert not fake.closing

        _run(body)


def test_oversized_length_header_closes_the_connection() -> None:
    def body(transport: TcpTransport) -> None:
        transport.register(STORAGE)
        conn = _Connection(transport)
        fake = _FakeTransport()
        conn.connection_made(fake)  # type: ignore[arg-type]
        conn.data_received((MAX_FRAME + 1).to_bytes(LENGTH_PREFIX, "big"))
        assert fake.closing
        assert transport.frames_received == 0

    _run(body)


def test_raising_handler_keeps_the_connection_open() -> None:
    def body(transport: TcpTransport) -> None:
        mailbox = transport.register(STORAGE)
        inner = mailbox.deliver
        calls: List[Envelope] = []

        def deliver(envelope: Envelope) -> None:
            calls.append(envelope)
            if len(calls) == 1:
                raise RuntimeError("handler fault")
            inner(envelope)

        mailbox.deliver = deliver  # type: ignore[method-assign]
        conn = _Connection(transport)
        fake = _FakeTransport()
        conn.connection_made(fake)  # type: ignore[arg-type]
        first, second = _envelopes()[:2]
        conn.data_received(encode_frame(first))
        assert transport.delivery_errors == 1
        assert not fake.closing
        conn.data_received(encode_frame(second))
        assert [_key(e) for e in mailbox.drain()] == [_key(second)]

    _run(body)
