"""A control plane with no single point of failure.

The paper's managers are presented as logically centralized, with the
remark that standard replication makes them fault-tolerant.  This
example deploys Q-OPT with a 3-replica primary-backup Reconfiguration
Manager and uses the nemesis fault driver to crash the primary *inside
the two-phase window of a reconfiguration* — the crash is armed on the
RM's ``on_reconfiguration_started`` hook, so it lands between NEWQ and
CONFIRM rather than at an arbitrary time.  The backup takes over and
finishes the job while clients keep running.

Run with::

    python examples/fault_tolerant_control_plane.py
"""

from repro import (
    AutonomicConfig,
    ClusterConfig,
    QuorumConfig,
    SwiftCluster,
    attach_qopt,
    ycsb,
)
from repro.sds.consistency import HistoryChecker
from repro.sim.nemesis import Nemesis


def main() -> None:
    cluster = SwiftCluster(
        ClusterConfig(
            num_proxies=2,
            clients_per_proxy=5,
            initial_quorum=QuorumConfig(read=1, write=5),
        ),
        seed=13,
    )
    system = attach_qopt(
        cluster,
        autonomic_config=AutonomicConfig(
            round_duration=2.0, quarantine=0.5, top_k=8
        ),
        rm_replicas=3,
    )
    group = system.rm_group
    checker = HistoryChecker()
    cluster.add_clients(
        ycsb.build(
            ycsb.workload_c_paper(object_size=64 * 1024, num_objects=64),
            seed=1,
        ),
        recorder=checker.record,
    )

    print("RM group:", [str(m.node_id) for m in group.members])
    print("running with a 99%-write workload on a W=5 configuration...")
    cluster.run(5.0)
    print(f"  t={cluster.sim.now:4.1f}s  throughput "
          f"{cluster.log.throughput(3, 5):5.0f} ops/s  "
          f"primary={group.primary.node_id}")

    victim = group.primary
    print(f"\narming nemesis: crash {victim.node_id} mid-reconfiguration...")
    nemesis = Nemesis.for_cluster(cluster, seed=13)
    # Fires 50 ms after the primary's next NEWQ broadcast, i.e. between
    # the two phases of Algorithm 2.  The timed crash is a fallback in
    # case the workload goes quiet (firing is idempotent).
    nemesis.crash_on_reconfiguration(victim, victim.node_id, delay=0.05)
    nemesis.schedule_crash(cluster.sim.now + 5.0, victim.node_id)
    cluster.run(10.0)
    crash = next(f for f in nemesis.faults if f.kind == "crash")
    print(f"  t={crash.time:4.1f}s  nemesis crashed {crash.target}")
    primary = group.primary
    print(f"  t={cluster.sim.now:4.1f}s  new primary: {primary.node_id} "
          f"(takeovers: {primary.takeovers})")

    cluster.run(15.0)
    manager = system.autonomic_manager
    now = cluster.sim.now
    print(f"\nafter failover, tuning continued:")
    print(f"  throughput now: {cluster.log.throughput(now - 5, now):.0f} ops/s "
          f"(vs {cluster.log.throughput(3, 5):.0f} before)")
    print(f"  fine reconfigurations: {manager.fine_reconfigurations}")
    print(f"  per-object overrides: {len(manager.installed_overrides)}")
    print(f"  RM epochs: {[m.epoch_no for m in group.members if m.alive]}")

    # Every client-observed read/write was recorded; the Wing-Gong
    # search proves the history atomic despite the crash.
    checker.assert_consistent()
    print(f"\n{len(checker.records)} operations: history is linearizable.")


if __name__ == "__main__":
    main()
