"""Quarantined rejoin (invariant I6): read exclusion, catch-up, exit."""

from __future__ import annotations

import random

import pytest

from repro.common.config import StorageConfig
from repro.common.types import NodeId, QuorumConfig, Version, VersionStamp
from repro.sds.messages import (
    ReplicaRead,
    ReplicaReadReply,
    ReplicaWrite,
    ReplicaWriteReply,
    SyncReply,
    SyncRequest,
)
from repro.sds.persistence import WalBackend
from repro.sds.quorum import QuorumPlan
from repro.sds.ring import PlacementRing
from repro.sds.storage import StorageNode
from repro.sim.node import Node

REPLICAS = [NodeId.storage(index) for index in range(5)]
SELF = REPLICAS[0]
PEERS = REPLICAS[1:]
PROXY = NodeId.proxy(0)
#: N=5, W=4 -> R=2: quarantine lifts after recovery_quorum = 2 replies.
PLAN = QuorumPlan.uniform(QuorumConfig(read=2, write=4))


def version(time: float, value: bytes = b"v") -> Version:
    return Version(
        value=value,
        stamp=VersionStamp(time, "proxy-0"),
        size=len(value),
        cfg_no=0,
    )


class Probe(Node):
    """Captures replies and sync traffic addressed to one node id."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.read_replies: list[ReplicaReadReply] = []
        self.write_replies: list[ReplicaWriteReply] = []
        self.sync_requests: list[SyncRequest] = []
        self.sync_replies: list[SyncReply] = []
        self.register_handler(
            ReplicaReadReply, lambda e: self.read_replies.append(e.payload)
        )
        self.register_handler(
            ReplicaWriteReply, lambda e: self.write_replies.append(e.payload)
        )
        self.register_handler(
            SyncRequest, lambda e: self.sync_requests.append(e.payload)
        )
        self.register_handler(
            SyncReply, lambda e: self.sync_replies.append(e.payload)
        )


@pytest.fixture
def wal(tmp_path):
    """Opens WalBackends on one directory; closes every one at teardown."""
    opened = []

    def open_backend():
        backend = WalBackend(str(tmp_path))
        opened.append(backend)
        return backend

    yield open_backend
    for backend in opened:
        backend.close()


def recovered_backend(wal, epoch=0, cfg=0, puts=()):
    """A WalBackend that has prior on-disk state (recovered=True)."""
    seed = wal()
    for object_id, held in puts:
        seed.put(object_id, held)
    seed.set_epoch(epoch, cfg, PLAN)
    seed.close()
    return wal()


def make_node(sim, network, wal, **kwargs):
    backend = kwargs.pop("backend", None)
    if backend is None:
        backend = recovered_backend(wal)
    node = StorageNode(
        sim,
        network,
        SELF,
        config=StorageConfig(replication_interval=0.0),
        initial_plan=PLAN,
        rng=random.Random(0),
        ring=PlacementRing(list(REPLICAS), replication_degree=5),
        backend=backend,
        **kwargs,
    )
    node.start()
    return node


@pytest.fixture
def probes(sim, network):
    nodes = {}
    for node_id in list(PEERS) + [PROXY]:
        probe = Probe(sim, network, node_id)
        probe.start()
        nodes[node_id] = probe
    return nodes


def sync_reply(replica, epoch=0, cfg=0, versions=None):
    return SyncReply(
        replica=replica,
        epoch_no=epoch,
        cfg_no=cfg,
        plan=PLAN,
        versions=dict(versions or {}),
    )


class TestQuarantineEntry:
    def test_fresh_backend_boots_unquarantined(
        self, sim, network, wal
    ) -> None:
        node = make_node(
            sim, network, wal, backend=wal()
        )
        assert node.quarantined is False

    def test_recovered_backend_boots_quarantined_at_saved_epoch(
        self, sim, network, wal
    ) -> None:
        backend = recovered_backend(
            wal, epoch=4, cfg=6, puts=[("obj", version(1.0))]
        )
        node = make_node(sim, network, wal, backend=backend)
        assert node.quarantined is True
        assert (node.epoch_no, node.cfg_no) == (4, 6)
        assert node.version_of("obj").stamp.timestamp == 1.0

    def test_quarantined_replica_declines_reads_but_acks_writes(
        self, sim, network, wal, probes
    ) -> None:
        node = make_node(sim, network, wal)
        probes[PROXY].send(
            SELF, ReplicaRead(object_id="obj", epoch_no=0, op_id=1)
        )
        probes[PROXY].send(
            SELF,
            ReplicaWrite(
                object_id="obj",
                value=b"w",
                size=1,
                stamp=VersionStamp(1.0, "proxy-0"),
                epoch_no=0,
                cfg_no=0,
                op_id=2,
            ),
        )
        sim.run(until=5.0)
        # Silence, not a NACK: a stale-epoch NACK would make the proxy
        # adopt-and-retry forever against a replica that cannot help.
        assert probes[PROXY].read_replies == []
        assert node.reads_declined == 1
        assert [reply.op_id for reply in probes[PROXY].write_replies] == [2]


class TestCatchUp:
    def test_retransmits_until_peers_answer(
        self, sim, network, wal, probes
    ) -> None:
        make_node(sim, network, wal)
        sim.run(until=1.0)
        # Several retry intervals elapsed with no replies: every peer has
        # been asked more than once.
        for peer in PEERS:
            assert len(probes[peer].sync_requests) >= 2

    def test_exits_after_read_quorum_of_caught_up_replies(
        self, sim, network, wal, probes
    ) -> None:
        node = make_node(sim, network, wal)
        probes[PEERS[0]].send(SELF, sync_reply(PEERS[0]))
        sim.run(until=0.1)
        assert node.quarantined is True  # one reply < recovery_quorum=2
        probes[PEERS[1]].send(SELF, sync_reply(PEERS[1]))
        sim.run(until=0.2)
        assert node.quarantined is False
        assert node.recoveries_completed == 1
        # Reads are served again.
        probes[PROXY].send(
            SELF, ReplicaRead(object_id="obj", epoch_no=0, op_id=9)
        )
        sim.run(until=1.0)
        assert [reply.op_id for reply in probes[PROXY].read_replies] == [9]

    def test_merges_newer_versions_from_replies(
        self, sim, network, wal, probes
    ) -> None:
        backend = recovered_backend(
            wal, puts=[("a", version(5.0, b"mine"))]
        )
        node = make_node(sim, network, wal, backend=backend)
        probes[PEERS[0]].send(
            SELF,
            sync_reply(
                PEERS[0],
                versions={
                    "a": version(3.0, b"older"),
                    "b": version(7.0, b"newer"),
                },
            ),
        )
        sim.run(until=0.1)
        assert node.version_of("a").value == b"mine"  # peer's was older
        assert node.version_of("b").value == b"newer"
        assert node.sync_versions_applied == 1

    def test_newer_epoch_in_reply_is_adopted_and_resets_progress(
        self, sim, network, wal, probes
    ) -> None:
        node = make_node(sim, network, wal)
        probes[PEERS[0]].send(SELF, sync_reply(PEERS[0], epoch=0))
        probes[PEERS[1]].send(SELF, sync_reply(PEERS[1], epoch=3, cfg=5))
        sim.run(until=0.1)
        # The epoch jumped: the epoch-0 reply no longer counts as caught
        # up, so one epoch-3 reply is not enough on its own.
        assert (node.epoch_no, node.cfg_no) == (3, 5)
        assert node.quarantined is True
        probes[PEERS[2]].send(SELF, sync_reply(PEERS[2], epoch=3, cfg=5))
        sim.run(until=0.2)
        assert node.quarantined is False

    def test_exit_state_is_durable(
        self, sim, network, wal, probes
    ) -> None:
        backend = recovered_backend(wal)
        node = make_node(sim, network, wal, backend=backend)
        probes[PEERS[0]].send(
            SELF, sync_reply(PEERS[0], versions={"x": version(2.0, b"peer")})
        )
        probes[PEERS[1]].send(SELF, sync_reply(PEERS[1]))
        sim.run(until=0.2)
        assert node.quarantined is False
        backend.close()
        # A second crash right after rejoin: the merged state replays.
        again = wal()
        assert again.versions["x"].value == b"peer"


class TestSyncService:
    def test_live_replica_answers_with_full_state(
        self, sim, network, wal, probes
    ) -> None:
        node = make_node(
            sim, network, wal, backend=wal()
        )
        assert node.quarantined is False
        probes[PROXY].send(
            SELF,
            ReplicaWrite(
                object_id="obj",
                value=b"held",
                size=4,
                stamp=VersionStamp(4.0, "proxy-0"),
                epoch_no=0,
                cfg_no=0,
                op_id=1,
            ),
        )
        sim.run(until=0.5)
        probes[PEERS[0]].send(
            SELF, SyncRequest(replica=PEERS[0], epoch_no=0)
        )
        sim.run(until=1.0)
        replies = probes[PEERS[0]].sync_replies
        assert len(replies) == 1
        assert replies[0].versions["obj"].value == b"held"
        assert node.sync_requests_served == 1

    def test_recovering_replica_stays_silent_on_sync_requests(
        self, sim, network, wal, probes
    ) -> None:
        node = make_node(sim, network, wal)
        assert node.quarantined is True
        probes[PEERS[0]].send(
            SELF, SyncRequest(replica=PEERS[0], epoch_no=0)
        )
        sim.run(until=0.1)
        # Two simultaneously recovering replicas must not certify each
        # other: no reply at all.
        assert probes[PEERS[0]].sync_replies == []
        assert node.sync_requests_served == 0
