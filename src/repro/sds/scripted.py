"""Scripted client: explicit get/put against the simulated store.

The closed-loop :class:`~repro.sds.client.ClientNode` drives workloads;
this module is for *scripts* — test scenarios, examples and protocol
experiments that need precise control over which operation happens when:

    client = ScriptedClient(cluster, proxy_index=0)

    def scenario():
        yield client.put("photo-1", b"v1")
        version = yield client.get("photo-1")
        assert version.value == b"v1"

    cluster.sim.run_process(scenario())

Each call returns a :class:`~repro.sim.kernel.Future`; a process may
also fire several operations and gather them with
:func:`repro.sim.primitives.all_of` to express concurrency explicitly.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, Version
from repro.sds.cluster import SwiftCluster
from repro.sds.messages import (
    ClientRead,
    ClientReadReply,
    ClientWrite,
    ClientWriteReply,
)
from repro.sim.kernel import Future
from repro.sim.network import Envelope
from repro.sim.node import Node

_HEADER_BYTES = 256

#: Process-wide counter so several scripted clients get distinct ids.
_client_ids = itertools.count(10_000)


class ScriptedClient(Node):
    """Issue explicit reads/writes from simulation scripts."""

    def __init__(
        self, cluster: SwiftCluster, proxy_index: int = 0
    ) -> None:
        if not 0 <= proxy_index < len(cluster.proxies):
            raise ConfigurationError(
                f"proxy_index {proxy_index} out of range"
            )
        super().__init__(
            cluster.sim,
            cluster.network,
            NodeId.client(next(_client_ids)),
        )
        self._proxy_id = cluster.proxies[proxy_index].node_id
        self._request_seq = itertools.count(1)
        self._pending: dict[int, Future] = {}
        self.register_handler(ClientReadReply, self._on_read_reply)
        self.register_handler(ClientWriteReply, self._on_write_reply)
        cluster.add_node(self)

    # -- operations -----------------------------------------------------------

    def get(self, object_id: str) -> Future:
        """Read; the future resolves with the returned :class:`Version`."""
        request_id = next(self._request_seq)
        future = self.sim.future(name=f"{self.node_id}.get-{request_id}")
        self._pending[request_id] = future
        self.send(
            self._proxy_id,
            ClientRead(object_id=object_id, request_id=request_id),
            size=_HEADER_BYTES,
        )
        return future

    def put(self, object_id: str, value: bytes, size: int | None = None) -> Future:
        """Write; the future resolves with None once the quorum acked."""
        request_id = next(self._request_seq)
        future = self.sim.future(name=f"{self.node_id}.put-{request_id}")
        self._pending[request_id] = future
        self.send(
            self._proxy_id,
            ClientWrite(
                object_id=object_id,
                value=value,
                size=size if size is not None else len(value),
                request_id=request_id,
            ),
            size=_HEADER_BYTES + (size if size is not None else len(value)),
        )
        return future

    # -- reply routing ----------------------------------------------------------

    def _on_read_reply(self, envelope: Envelope) -> None:
        reply: ClientReadReply = envelope.payload
        future = self._pending.pop(reply.request_id, None)
        if future is not None and not future.done:
            future.resolve(reply.version)

    def _on_write_reply(self, envelope: Envelope) -> None:
        reply: ClientWriteReply = envelope.payload
        future = self._pending.pop(reply.request_id, None)
        if future is not None and not future.done:
            future.resolve(None)


def read_value(cluster: SwiftCluster, object_id: str) -> Version:
    """Convenience: one synchronous-looking read from outside a process.

    Runs the simulation until the read completes; intended for tests and
    examples, not for use while other experiments are mid-flight (it
    advances simulated time).
    """
    client = ScriptedClient(cluster)

    def body() -> Generator[Future, Any, Version]:
        version = yield client.get(object_id)
        return version

    return cluster.sim.run_process(body())
