"""Per-object read leases (invariant I7): grant, serve, invalidate.

Two layers of coverage:

* **Storage unit tests** drive a single :class:`StorageNode` with probe
  proxies, pinning the primary-side grant table semantics — who may
  grant, epoch fencing, expiry, clamping, quarantined rejoin (I6), and
  the writer exemption on lease breaks.
* **Cluster tests** run the full data plane with leases enabled and
  check the invalidation edges end to end: a foreign write, an epoch
  change, a primary crash, and clock skew at the advisory boundary all
  force the proxy back onto the quorum path — never onto a stale value
  — which the client-history checker verifies.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import (
    ClusterConfig,
    NetworkConfig,
    ProxyConfig,
    StorageConfig,
)
from repro.common.types import NodeId, OpType, QuorumConfig, VersionStamp
from repro.reconfig.manager import attach_reconfiguration_manager
from repro.sds.cluster import SwiftCluster
from repro.sds.consistency import HistoryChecker
from repro.sds.messages import (
    AckNewEpoch,
    EpochNack,
    LeaseGrant,
    LeaseNack,
    LeaseRead,
    LeaseReadReply,
    LeaseRequest,
    NewEpoch,
    ReplicaWrite,
    ReplicaWriteReply,
    SyncRequest,
)
from repro.sds.persistence import WalBackend
from repro.sds.quorum import QuorumPlan
from repro.sds.ring import PlacementRing
from repro.sds.scripted import ScriptedClient
from repro.sds.storage import StorageNode
from repro.sim.node import Node
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec

REPLICAS = [NodeId.storage(index) for index in range(5)]
SELF = REPLICAS[0]
PROXY = NodeId.proxy(0)
PLAN = QuorumPlan.uniform(QuorumConfig(read=2, write=4))
RING = PlacementRing(list(REPLICAS), replication_degree=5)

#: An object whose primary (first ring replica) is SELF, and one whose
#: primary is some other node — found by scanning, pinned by the ring's
#: determinism.
PRIMARY_OID = next(
    oid
    for oid in (f"obj-{i}" for i in range(256))
    if RING.replicas(oid)[0] == SELF
)
FOREIGN_OID = next(
    oid
    for oid in (f"obj-{i}" for i in range(256))
    if RING.replicas(oid)[0] != SELF
)


class Probe(Node):
    """Captures lease-protocol replies addressed to one node id."""

    def __init__(self, sim, network, node_id):
        super().__init__(sim, network, node_id)
        self.grants: list[LeaseGrant] = []
        self.lease_nacks: list[LeaseNack] = []
        self.read_replies: list[LeaseReadReply] = []
        self.epoch_nacks: list[EpochNack] = []
        self.register_handler(
            LeaseGrant, lambda e: self.grants.append(e.payload)
        )
        self.register_handler(
            LeaseNack, lambda e: self.lease_nacks.append(e.payload)
        )
        self.register_handler(
            LeaseReadReply, lambda e: self.read_replies.append(e.payload)
        )
        self.register_handler(
            EpochNack, lambda e: self.epoch_nacks.append(e.payload)
        )
        self.register_handler(ReplicaWriteReply, lambda e: None)
        self.register_handler(AckNewEpoch, lambda e: None)


def make_node(sim, network, tmp_path, *, recovered=False, epoch=0):
    backend = WalBackend(str(tmp_path))
    if recovered:
        backend.set_epoch(epoch, epoch, PLAN)
        backend.close()
        backend = WalBackend(str(tmp_path))
    node = StorageNode(
        sim,
        network,
        SELF,
        config=StorageConfig(replication_interval=0.0),
        initial_plan=PLAN,
        rng=random.Random(0),
        ring=RING,
        backend=backend,
    )
    node.start()
    return node


@pytest.fixture
def probe(sim, network):
    node = Probe(sim, network, PROXY)
    node.start()
    return node


def request(probe, oid=PRIMARY_OID, epoch=0, duration=2.0, op_id=1):
    probe.send(
        SELF,
        LeaseRequest(
            object_id=oid, epoch_no=epoch, duration=duration, op_id=op_id
        ),
    )


def lease_read(probe, oid=PRIMARY_OID, epoch=0, op_id=2):
    probe.send(SELF, LeaseRead(object_id=oid, epoch_no=epoch, op_id=op_id))


def replica_write(probe, oid, writer, time=1.0, op_id=9):
    probe.send(
        SELF,
        ReplicaWrite(
            object_id=oid,
            value=b"w",
            size=1,
            stamp=VersionStamp(time, writer),
            epoch_no=0,
            cfg_no=0,
            op_id=op_id,
        ),
    )


class TestGrantTable:
    def test_primary_grants_and_serves_lease_reads(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe)
        sim.run(until=0.1)
        assert len(probe.grants) == 1
        assert node.leases_granted == 1
        assert node.lease_holders(PRIMARY_OID) == [PROXY]
        lease_read(probe)
        sim.run(until=0.2)
        assert len(probe.read_replies) == 1
        assert node.lease_reads_served == 1
        # Never written: the reply carries the missing version, which
        # the proxy returns as value=None (a correct read of nothing).
        assert probe.read_replies[0].version.value is None

    def test_non_primary_nacks_requests(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe, oid=FOREIGN_OID)
        sim.run(until=0.1)
        assert probe.grants == []
        assert len(probe.lease_nacks) == 1
        assert node.leases_granted == 0

    def test_duration_clamped_to_max_lease_duration(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe, duration=100.0)
        sim.run(until=0.1)
        limit = node._config.max_lease_duration
        assert probe.grants[0].expiry <= sim.now + limit

    def test_expired_grant_is_nacked_and_forgotten(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe, duration=0.5)
        sim.run(until=0.1)
        assert node.lease_holders(PRIMARY_OID) == [PROXY]
        sim.run(until=1.0)  # past expiry
        lease_read(probe)
        sim.run(until=1.2)
        assert probe.read_replies == []
        assert len(probe.lease_nacks) == 1
        assert node.lease_holders(PRIMARY_OID) == []

    def test_served_lease_read_slides_expiry(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe, duration=1.0)
        sim.run(until=0.5)
        lease_read(probe)
        sim.run(until=0.8)
        # The grant was renewed at serve time: still valid after the
        # original expiry would have passed.
        sim.run(until=1.3)
        assert node.lease_holders(PRIMARY_OID) == [PROXY]
        assert probe.read_replies[0].expiry > probe.grants[0].expiry


class TestInvalidation:
    def test_foreign_write_breaks_grant(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe)
        sim.run(until=0.1)
        replica_write(probe, PRIMARY_OID, writer="proxy-7")
        sim.run(until=0.2)
        assert node.leases_broken == 1
        assert node.lease_holders(PRIMARY_OID) == []
        lease_read(probe)
        sim.run(until=0.3)
        assert probe.read_replies == []
        assert len(probe.lease_nacks) == 1

    def test_writers_own_lease_survives_its_write(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe)
        sim.run(until=0.1)
        # The holder's own proxy id stamps the write: exempt.
        replica_write(probe, PRIMARY_OID, writer=str(PROXY))
        sim.run(until=0.2)
        assert node.leases_broken == 0
        assert node.lease_holders(PRIMARY_OID) == [PROXY]
        lease_read(probe)
        sim.run(until=0.3)
        assert len(probe.read_replies) == 1
        assert probe.read_replies[0].version.value == b"w"

    def test_epoch_change_clears_all_grants(
        self, sim, network, tmp_path, probe
    ) -> None:
        node = make_node(sim, network, tmp_path)
        request(probe)
        sim.run(until=0.1)
        probe.send(
            SELF,
            NewEpoch(
                epoch_no=1,
                cfg_no=1,
                plan=QuorumPlan.uniform(QuorumConfig(read=3, write=3)),
            ),
        )
        sim.run(until=0.2)
        assert node.lease_holders(PRIMARY_OID) == []
        # A lease read still stamped with the old epoch gets the stale
        # -epoch NACK (with plan payload) so the proxy re-anchors.
        lease_read(probe, epoch=0)
        sim.run(until=0.3)
        assert probe.read_replies == []
        assert len(probe.epoch_nacks) == 1

    def test_quarantined_rejoin_nacks_lease_traffic(
        self, sim, network, tmp_path, probe
    ) -> None:
        """Invariant I6: a SIGKILLed primary rejoins quarantined; its
        grant table died with the process, and until caught up it must
        not serve single-replica reads — it LeaseNacks (safe: no epoch
        payload) instead of staying silent like ``_on_read``."""
        for peer in REPLICAS[1:]:
            sink = Node(sim, network, peer)
            sink.register_handler(SyncRequest, lambda e: None)
            sink.start()
        node = make_node(sim, network, tmp_path, recovered=True)
        assert node.quarantined is True
        request(probe)
        lease_read(probe, op_id=3)
        sim.run(until=0.5)
        assert probe.grants == []
        assert probe.read_replies == []
        assert len(probe.lease_nacks) == 2
        assert node.reads_declined == 1
        assert node.lease_nacks_sent == 2


# -- cluster-level invalidation edges ----------------------------------------


def lease_cluster(
    lease_duration: float = 2.0,
    skew_bound: float = 0.01,
    read: int = 2,
    write: int = 4,
    seed: int = 11,
) -> SwiftCluster:
    return SwiftCluster(
        ClusterConfig(
            num_storage_nodes=5,
            num_proxies=2,
            clients_per_proxy=3,
            replication_degree=5,
            initial_quorum=QuorumConfig(read=read, write=write),
            storage=StorageConfig(
                read_service_time=0.0005,
                write_service_time=0.0015,
                replication_interval=0.0,
            ),
            network=NetworkConfig(base_latency=0.0001),
            proxy=ProxyConfig(
                lease_duration=lease_duration, lease_skew_bound=skew_bound
            ),
        ),
        seed=seed,
    )


def primary_storage(cluster: SwiftCluster, oid: str) -> StorageNode:
    return cluster._storage(cluster.proxies[0]._primary(oid))


def warm_lease(cluster, client, oid, value=b"v1"):
    """Write, quorum-read (fires the lease request), absorb the grant."""

    def scenario():
        yield client.put(oid, value)
        yield client.get(oid)
        yield cluster.sim.sleep(0.05)

    cluster.sim.run_process(scenario())


class TestClusterFastPath:
    def test_steady_state_reads_are_lease_hits(self) -> None:
        cluster = lease_cluster()
        client = ScriptedClient(cluster)
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")
        assert proxy.leases_acquired == 1
        assert primary_storage(cluster, "doc").lease_holders("doc") == [
            proxy.node_id
        ]

        def steady():
            for _ in range(5):
                version = yield client.get("doc")
                assert version.value == b"v1"

        cluster.sim.run_process(steady())
        assert proxy.lease_read_hits == 5
        assert proxy.lease_read_misses == 0

    def test_feature_off_by_default_sends_no_lease_traffic(
        self, tiny_cluster
    ) -> None:
        client = ScriptedClient(tiny_cluster)
        warm_lease(tiny_cluster, client, "doc")
        assert all(
            p.lease_requests_sent == 0 for p in tiny_cluster.proxies
        )
        assert all(
            s.leases_granted == 0 for s in tiny_cluster.storage_nodes
        )


class TestClusterInvalidation:
    def test_foreign_write_forces_quorum_fallback_with_fresh_value(
        self,
    ) -> None:
        cluster = lease_cluster()
        reader = ScriptedClient(cluster, proxy_index=0)
        writer = ScriptedClient(cluster, proxy_index=1)
        proxy = cluster.proxies[0]
        warm_lease(cluster, reader, "doc")

        def scenario():
            yield writer.put("doc", b"v2")
            version = yield reader.get("doc")
            return version

        version = cluster.sim.run_process(scenario())
        # The lease read was refused (grant broken by proxy-1's write)
        # and the quorum fallback returned the new value.
        assert version.value == b"v2"
        assert proxy.lease_read_misses >= 1
        assert primary_storage(cluster, "doc").leases_broken >= 1

    def test_own_write_keeps_lease_and_next_read_hits(self) -> None:
        cluster = lease_cluster()
        client = ScriptedClient(cluster, proxy_index=0)
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")

        def scenario():
            yield client.put("doc", b"v2")
            version = yield client.get("doc")
            return version

        version = cluster.sim.run_process(scenario())
        assert version.value == b"v2"
        assert proxy.lease_read_hits >= 1
        assert proxy.lease_read_misses == 0
        assert primary_storage(cluster, "doc").leases_broken == 0

    def test_cfg_change_drops_proxy_leases_conservatively(self) -> None:
        """A cfg-only reconfiguration (no suspicion, so no epoch bump)
        still drops proxy-held leases on NEWQ/CONFIRM — re-acquisition
        is cheap, and it keeps the rule simple: any configuration
        movement ends the fast path until a fresh quorum read."""
        cluster = lease_cluster()
        rm = attach_reconfiguration_manager(cluster)
        client = ScriptedClient(cluster)
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")
        assert proxy.leases_held() == 1

        def reconfigure():
            yield rm.change_global(QuorumConfig(read=3, write=3))

        cluster.sim.run_process(reconfigure())
        assert rm.reconfigurations_completed == 1
        assert proxy.leases_held() == 0

        def read_after():
            version = yield client.get("doc")
            yield cluster.sim.sleep(0.05)
            return version

        assert cluster.sim.run_process(read_after()).value == b"v1"
        # The quorum read under the new configuration re-acquired.
        assert proxy.leases_held() == 1

    def test_epoch_fence_mid_lease_clears_primary_grants(self) -> None:
        """A *suspected* proxy triggers epochChange (Algorithm 2 lines
        12-14); adoption of the new epoch must clear the primary's whole
        grant table so no lease minted before the fence survives it."""
        cluster = lease_cluster()
        rm = attach_reconfiguration_manager(cluster)
        client = ScriptedClient(cluster)  # bound to proxy 0
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")
        assert primary_storage(cluster, "doc").lease_holders("doc") == [
            proxy.node_id
        ]
        # Proxy 1 cannot ack NEWQ: the manager suspects it and fences.
        cluster.crash_proxy(1)

        def reconfigure():
            yield rm.change_global(QuorumConfig(read=3, write=3))

        cluster.sim.run_process(reconfigure())
        assert rm.epoch_changes >= 1
        cluster.run(0.2)  # drain in-flight NEWEP deliveries
        assert primary_storage(cluster, "doc").lease_holders("doc") == []
        assert proxy.leases_held() == 0

        def read_after():
            version = yield client.get("doc")
            yield cluster.sim.sleep(0.05)
            return version

        assert cluster.sim.run_process(read_after()).value == b"v1"

    def test_primary_crash_falls_back_to_quorum(self) -> None:
        cluster = lease_cluster()
        client = ScriptedClient(cluster)
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")
        primary_id = proxy._primary("doc")
        index = [n.node_id for n in cluster.storage_nodes].index(
            primary_id
        )
        cluster.crash_storage(index)

        def read_after_crash():
            version = yield client.get("doc")
            return version

        version = cluster.sim.run_process(read_after_crash())
        # The lease read timed out against the dead primary; the quorum
        # path (R=2 of the 4 live replicas) still served the value.
        assert version.value == b"v1"
        assert proxy.lease_read_misses >= 1

    def test_skew_boundary_drops_lease_instead_of_serving(self) -> None:
        """At ``expiry - lease_skew_bound`` the proxy stops trusting its
        own clock: the fast path is skipped (no hit, no stale risk) and
        the quorum read re-acquires."""
        cluster = lease_cluster(lease_duration=1.0, skew_bound=0.5)
        client = ScriptedClient(cluster)
        proxy = cluster.proxies[0]
        warm_lease(cluster, client, "doc")
        held_expiry = proxy._leases["doc"].expiry
        hits_before = proxy.lease_read_hits

        def scenario():
            # Land inside the advisory window [expiry - skew, expiry).
            yield cluster.sim.sleep(
                held_expiry - 0.25 - cluster.sim.now
            )
            version = yield client.get("doc")
            return version

        version = cluster.sim.run_process(scenario())
        assert version.value == b"v1"
        assert proxy.lease_read_hits == hits_before


class TestClusterConsistency:
    """Client-history safety with leases on, under contention and chaos."""

    def workload(self, write_ratio: float, seed: int = 0):
        return SyntheticWorkload(
            WorkloadSpec(
                write_ratio=write_ratio,
                object_size=2048,
                num_objects=4,
                skew=0.0,
                name="lease-chaos",
            ),
            seed=seed,
        )

    def test_contended_history_is_consistent_and_uses_leases(self) -> None:
        cluster = lease_cluster(read=3, write=3, seed=21)
        checker = HistoryChecker()
        cluster.add_clients(
            self.workload(write_ratio=0.1), recorder=checker.record
        )
        cluster.run(4.0)
        assert len(checker.records) > 500
        checker.assert_consistent()
        assert sum(p.lease_read_hits for p in cluster.proxies) > 0
        # Foreign writes actually exercised the break path.
        assert sum(s.leases_broken for s in cluster.storage_nodes) > 0

    def test_consistent_across_reconfigurations_with_leases(self) -> None:
        cluster = lease_cluster(read=3, write=3, seed=22)
        rm = attach_reconfiguration_manager(cluster)
        checker = HistoryChecker()
        cluster.add_clients(
            self.workload(write_ratio=0.2), recorder=checker.record
        )
        for write in (2, 4, 3):
            cluster.run(1.0)
            rm.change_global(QuorumConfig.from_write(write, 5))
        cluster.run(2.0)
        assert rm.reconfigurations_completed == 3
        checker.assert_consistent()

    def test_consistent_across_storage_crash_with_leases(self) -> None:
        cluster = lease_cluster(read=3, write=3, seed=23)
        checker = HistoryChecker()
        cluster.add_clients(
            self.workload(write_ratio=0.1), recorder=checker.record
        )
        cluster.run(1.0)
        reads_before = cluster.log.count(OpType.READ)
        cluster.crash_storage(0)
        cluster.run(3.0)
        checker.assert_consistent()
        # Reads kept completing after the crash (leased or quorum).
        assert cluster.log.count(OpType.READ) > reads_before
