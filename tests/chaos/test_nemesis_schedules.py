"""The chaos matrix: seeded nemesis schedules against the full stack.

Each test runs one fault schedule through a complete cluster with the
autonomic loop attached, then asserts the invariants of
``conftest.assert_chaos_invariants``: a linearizable client history, no
hung operations, and real forward progress.  Faults that lose messages
(partitions, omission) put the network in its explicit lossy stress
mode; crashes, delay spikes and false suspicions stay inside the
paper's failure model.
"""

from __future__ import annotations

import pytest

from repro.common.types import NodeId
from repro.sim.nemesis import links_between

from .conftest import assert_chaos_invariants, build_chaos_stack

RUN_SECONDS = 15.0


def storage_ids(cluster) -> list[NodeId]:
    return [node.node_id for node in cluster.storage_nodes]


def proxy_ids(cluster) -> list[NodeId]:
    return [proxy.node_id for proxy in cluster.proxies]


class TestPartitionSchedules:
    def test_storage_partition_heals(self, base_seed):
        """Two replicas cut off for 2s: gathers route around the island
        (fallback + ring rotation) and the history stays linearizable."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 1
        )
        nemesis.schedule_isolation(2.0, 2.0, storage_ids(cluster)[:2])
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        assert any(f.kind == "partition" for f in nemesis.faults)
        assert any(f.kind == "heal" for f in nemesis.faults)
        assert not cluster.network.partitioned

    def test_proxy_partition_heals(self, base_seed):
        """One proxy cut off from everything (its clients included): those
        clients must fail typed, not hang, and recover after the heal."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 2
        )
        victim = proxy_ids(cluster)[1]
        # Longer than the client's full retry budget (deadline_bound ~5.6s)
        # so at least one operation must exhaust its attempts and fail typed.
        nemesis.schedule_isolation(2.0, 6.5, [victim])
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        # The orphaned clients exhausted retries and surfaced typed errors.
        orphans = [c for c in cluster.clients if c.proxy_id == victim]
        assert sum(c.operations_failed for c in orphans) >= 1
        assert cluster.events.of_label("op-failed")


class TestOmissionSchedules:
    def test_flaky_links(self, base_seed):
        """30% loss between one proxy and three replicas: retransmission
        and gather fallbacks absorb it."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 3
        )
        links = links_between(
            [proxy_ids(cluster)[0]], storage_ids(cluster)[:3]
        )
        nemesis.schedule_omission(2.0, 4.0, links, probability=0.3)
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        assert cluster.network.messages_omitted > 0

    def test_heavy_loss(self, base_seed):
        """90% loss between one proxy and every replica for 2s: most
        gathers time out; operations degrade gracefully and recover."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 4
        )
        links = links_between([proxy_ids(cluster)[1]], storage_ids(cluster))
        nemesis.schedule_omission(3.0, 2.0, links, probability=0.9)
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        assert cluster.network.messages_omitted > 0


class TestDelaySchedules:
    def test_delay_spike(self, base_seed):
        """A 25x latency spike is model-faithful (no lossy mode): slow,
        never wedged, and fully consistent."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 5
        )
        links = links_between(
            [proxy_ids(cluster)[0]], storage_ids(cluster)[:4]
        )
        nemesis.schedule_delay_spike(2.0, 2.0, links, factor=25.0)
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        # Delay alone must not put the network into lossy mode.
        assert not cluster.network.lossy
        assert any(f.kind == "delay-spike" for f in nemesis.faults)


class TestCrashSchedules:
    def test_storage_crash_mid_reconfiguration(self, base_seed):
        """A replica dies 50ms into the first reconfiguration — inside
        the NEWQ/CONFIRM window — and the protocol still completes."""
        cluster, system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 6, write=5, write_ratio=0.8
        )
        rm = system.reconfiguration_manager
        nemesis.crash_on_reconfiguration(
            rm, storage_ids(cluster)[0], delay=0.05
        )
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        # The crash actually landed inside a reconfiguration epoch.
        assert any(f.kind == "arm-crash" for f in nemesis.faults)
        assert any(f.kind == "crash" for f in nemesis.faults)
        assert rm.reconfigurations_completed >= 1

    def test_proxy_crash_mid_reconfiguration(self, base_seed):
        """A proxy dies as phase 1 starts: the RM must take the epoch
        change path and the surviving proxy keeps serving."""
        cluster, system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 7, write=5, write_ratio=0.8
        )
        rm = system.reconfiguration_manager
        nemesis.crash_on_reconfiguration(
            rm, proxy_ids(cluster)[1], delay=0.02
        )
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        assert any(f.kind == "crash" for f in nemesis.faults)
        assert rm.reconfigurations_completed >= 1
        # Epoch fencing kicked in for the dead proxy.
        assert rm.epoch_changes >= 1

    def test_proxy_crash_while_draining_for_newq(self, base_seed):
        """A proxy dies 5ms into the first NEWQ, while it drains in-flight
        operations.  Killing an operation child resolves the drain, and
        the NEWQ handler must not wake up to ack from a crashed node.

        Wall time: ~1.5 s.
        """
        cluster, system, checker, nemesis = build_chaos_stack(base_seed * 100)
        nemesis.crash_on_reconfiguration(
            system.reconfiguration_manager, proxy_ids(cluster)[0], delay=0.005
        )
        cluster.run(4.0)
        assert_chaos_invariants(cluster, checker)
        assert any(f.kind == "crash" for f in nemesis.faults)


class TestSuspicionSchedules:
    def test_false_suspicion_burst(self, base_seed):
        """<>P lies about a live proxy for 1.5s: indulgence means extra
        epoch changes and re-executions, never an inconsistency."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + 8, write=5, write_ratio=0.8
        )
        nemesis.schedule_false_suspicion(
            2.0, 1.5, [proxy_ids(cluster)[0]]
        )
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        assert any(f.kind == "false-suspicion" for f in nemesis.faults)


class TestComboSchedules:
    @pytest.mark.parametrize("offset", [9, 10])
    def test_storm(self, base_seed, offset):
        """Everything at once: delay spike, partition, omission, a crash
        and a false-suspicion burst over a 15s run."""
        cluster, _system, checker, nemesis = build_chaos_stack(
            base_seed * 100 + offset
        )
        storage = storage_ids(cluster)
        proxies = proxy_ids(cluster)
        nemesis.schedule_delay_spike(
            nemesis.jitter(1.0, 0.5), 1.5,
            links_between([proxies[0]], storage[:2]), factor=15.0,
        )
        nemesis.schedule_isolation(
            nemesis.jitter(3.0, 0.5), 1.5, storage[5:7]
        )
        nemesis.schedule_omission(
            nemesis.jitter(5.5, 0.5), 2.0,
            links_between([proxies[1]], storage[:4]), probability=0.4,
        )
        nemesis.schedule_crash(nemesis.jitter(8.0, 0.5), storage[7])
        nemesis.schedule_false_suspicion(
            nemesis.jitter(10.0, 0.5), 1.0, [proxies[1]]
        )
        cluster.run(RUN_SECONDS)
        assert_chaos_invariants(cluster, checker)
        kinds = {fault.kind for fault in nemesis.faults}
        assert {
            "delay-spike", "partition", "heal", "omission", "crash",
            "false-suspicion",
        } <= kinds
