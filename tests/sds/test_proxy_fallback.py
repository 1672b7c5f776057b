"""Direct unit tests for the proxy's ``_gather`` failure paths.

The cluster-level tests exercise fallback indirectly; these drive the
generator itself so the two timeout tiers are pinned down:

* after ``fallback_timeout`` the proxy contacts the replicas beyond the
  preferred quorum (Section 2.1's "send to the remaining replicas");
* after ``gather_deadline`` the gather resolves ``("timeout", None)``
  instead of blocking forever, and ``_read`` converts an exhausted
  retry budget into a typed :class:`GatherTimeoutError`;
* a client operation that fails that way still leaves Algorithm 3's
  NEWQ drain barrier, so the proxy acks the NEWQ right after it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import GatherTimeoutError
from repro.common.types import NodeId
from repro.obs.trace import NULL_SPAN
from repro.sds.cluster import SwiftCluster
from repro.sds.messages import (
    AckNewQuorum,
    ClientOperationFailed,
    ClientRead,
    ClientReadReply,
    NewQuorum,
    ReplicaRead,
)
from repro.sim.node import Node


def preferred_order(proxy, object_id):
    return proxy._ring.preferred_order(object_id, proxy._rotation)


def run_gather(cluster, proxy, object_id, quorum):
    """Drive one read ``_gather`` to completion; return (outcome, elapsed).

    The outcome is ``("ok", replies)``, ``("timeout", None)`` when the
    attempt hit its deadline (the first of the retry budget), or
    ``("nack", None)`` when a replica answered with an ``EpochNack``.
    """
    result = {}
    started = cluster.sim.now

    def make_request(op_id):
        request = ReplicaRead(
            object_id=object_id, epoch_no=proxy.epoch_no, op_id=op_id
        )
        return request, 256

    def process():
        try:
            replies, timeouts = yield from proxy._gather(
                object_id, quorum, make_request, "read", started, 0,
                NULL_SPAN,
            )
            if timeouts:
                result["outcome"] = ("timeout", None)
            elif replies is None:
                result["outcome"] = ("nack", None)
            else:
                result["outcome"] = ("ok", replies)
        except Exception as error:  # pragma: no cover - surfaced by asserts
            result["error"] = error
        result["elapsed"] = cluster.sim.now - started

    cluster.sim.run_process(process())
    return result


def run_read(cluster, proxy, object_id):
    """Drive one full ``_read``; return the result dict."""
    result = {}
    started = cluster.sim.now

    def process():
        try:
            result["version"] = yield from proxy._read(object_id, NULL_SPAN)
        except GatherTimeoutError as error:
            result["error"] = error
        result["elapsed"] = cluster.sim.now - started

    cluster.sim.run_process(process())
    return result


class TestFallbackTimeout:
    def test_fallback_contacts_remaining_replicas(self, tiny_cluster):
        """With 2 of the 3 preferred replicas dead, the quorum completes
        only after the fallback fan-out — so the elapsed time straddles
        ``fallback_timeout`` and the replies span the full replica set."""
        proxy = tiny_cluster.proxies[0]
        object_id = "obj-fallback"
        order = preferred_order(proxy, object_id)
        for replica in order[:2]:
            tiny_cluster.crashes.crash(replica)

        result = run_gather(tiny_cluster, proxy, object_id, quorum=3)
        status, replies = result["outcome"]
        assert status == "ok"
        assert len(replies) == 3
        fallback = tiny_cluster.config.proxy.fallback_timeout
        deadline = tiny_cluster.config.proxy.gather_deadline
        assert fallback <= result["elapsed"] < deadline
        # At least one reply had to come from beyond the preferred three.
        responders = {reply.replica for reply in replies}
        assert responders & set(order[3:])

    def test_no_fallback_when_quorum_answers(self, tiny_cluster):
        """The happy path resolves well before ``fallback_timeout`` and
        only the preferred replicas answer."""
        proxy = tiny_cluster.proxies[0]
        object_id = "obj-happy"
        order = preferred_order(proxy, object_id)

        result = run_gather(tiny_cluster, proxy, object_id, quorum=3)
        status, replies = result["outcome"]
        assert status == "ok"
        assert result["elapsed"] < tiny_cluster.config.proxy.fallback_timeout
        assert {reply.replica for reply in replies} <= set(order[:3])

    def test_completed_gather_releases_its_replies(self, tiny_cluster):
        """A finished gather's replies die with it, not 2 s later.

        Both gather timers are still on the simulator's heap (it never
        removes entries, to keep event order fixed), but cancelled
        timers have dropped their callbacks, so nothing reaches the
        reply set once the caller lets go — with simulated time
        standing still.
        """
        proxy = tiny_cluster.proxies[0]
        result = run_gather(tiny_cluster, proxy, "obj-happy", quorum=3)
        finished_at = tiny_cluster.sim.now
        _status, replies = result.pop("outcome")
        reply = weakref.ref(replies[0])
        del replies
        gc.collect()
        assert tiny_cluster.sim.now == finished_at
        assert tiny_cluster.sim._queue  # the dead timers are still queued
        assert reply() is None


class TestGatherDeadline:
    def test_unreachable_quorum_times_out(self, tiny_cluster):
        """With 3 of 5 replicas dead a quorum of 3 can never form: the
        gather must resolve ``("timeout", None)`` at the deadline rather
        than hang, and must not leak its reply-collection state."""
        proxy = tiny_cluster.proxies[0]
        object_id = "obj-doomed"
        order = preferred_order(proxy, object_id)
        for replica in order[:3]:
            tiny_cluster.crashes.crash(replica)

        result = run_gather(tiny_cluster, proxy, object_id, quorum=3)
        assert result["outcome"] == ("timeout", None)
        assert result["elapsed"] == pytest.approx(
            tiny_cluster.config.proxy.gather_deadline, rel=0.1
        )
        assert not proxy._gathers

    def test_read_exhausts_rotations_then_raises_typed_error(
        self, tiny_cluster
    ):
        """``_read`` retries each gather against the next ring rotation,
        then surfaces ``GatherTimeoutError`` carrying the attempt count."""
        proxy = tiny_cluster.proxies[0]
        object_id = "obj-doomed"
        for node in tiny_cluster.storage_nodes:
            tiny_cluster.crashes.crash(node.node_id)

        result = run_read(tiny_cluster, proxy, object_id)
        assert "version" not in result
        error = result["error"]
        assert isinstance(error, GatherTimeoutError)
        max_attempts = tiny_cluster.config.proxy.max_gather_attempts
        assert error.attempts == max_attempts
        assert proxy.gather_timeouts == max_attempts
        # Each attempt burned one full gather deadline.
        assert result["elapsed"] == pytest.approx(
            max_attempts * tiny_cluster.config.proxy.gather_deadline,
            rel=0.1,
        )


class Recorder(Node):
    """A bare node that logs ``(time, payload)`` of what it receives."""

    def __init__(self, cluster: SwiftCluster, node_id: NodeId) -> None:
        super().__init__(cluster.sim, cluster.network, node_id)
        self.received = []
        for kind in (ClientReadReply, ClientOperationFailed, AckNewQuorum):
            self.register_handler(kind, self._log)
        self.start()

    def _log(self, envelope) -> None:
        self.received.append((self.sim.now, envelope.payload))


class TestDrainBarrier:
    def test_failed_read_still_releases_newq_drain(self, tiny_cluster):
        """A NEWQ that arrives while a doomed read is in flight waits for
        that read to drain — and the read's typed failure must count as
        drained, or the proxy never acks and the reconfiguration wedges."""
        proxy = tiny_cluster.proxies[0]
        for node in tiny_cluster.storage_nodes[:3]:
            tiny_cluster.crashes.crash(node.node_id)
        client = Recorder(tiny_cluster, NodeId.client(90))
        control = Recorder(tiny_cluster, NodeId.client(91))

        def drive():
            client.send(
                proxy.node_id, ClientRead(object_id="obj-doomed", request_id=1)
            )
            yield tiny_cluster.sim.sleep(0.05)
            control.send(
                proxy.node_id,
                NewQuorum(
                    epoch_no=0, cfg_no=1, plan=tiny_cluster.initial_plan
                ),
            )

        tiny_cluster.sim.spawn(drive())
        config = tiny_cluster.config.proxy
        tiny_cluster.run(config.operation_deadline() + 1.0)

        [(failed_at, failed)] = client.received
        assert isinstance(failed, ClientOperationFailed)
        assert failed.attempts == config.max_gather_attempts
        [(acked_at, ack)] = control.received
        assert isinstance(ack, AckNewQuorum)
        # Sent in the same instant the read failed (either message may
        # land first), never before: the read held the drain until then.
        assert acked_at == pytest.approx(failed_at, abs=0.01)
        assert acked_at >= config.operation_deadline()
