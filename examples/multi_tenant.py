"""Multi-tenant SDS: per-object quorums beat any global configuration.

Two tenants share the store with opposite profiles — a photo service
(2% writes) and a backup service (98% writes) — plus a cold tail.  No
single global (R, W) suits both; Q-OPT's top-k analysis finds each
tenant's hot objects and assigns them individual quorums (Section 5.4).

Run with::

    python examples/multi_tenant.py
"""

from repro import ClusterConfig, QuorumConfig, SwiftCluster, attach_qopt
from repro.common.config import AutonomicConfig
from repro.sds.quorum import QuorumSystem
from repro.workloads import MixedWorkload, WorkloadSpec
from repro.workloads.generator import MixtureComponent

DURATION = 36.0
MEASURE_WINDOW = 8.0


def build_workload() -> MixedWorkload:
    return MixedWorkload(
        [
            MixtureComponent(
                WorkloadSpec(
                    write_ratio=0.02,
                    object_size=64 * 1024,
                    num_objects=16,
                    skew=0.5,
                    name="tenant-photos",
                ),
                weight=0.45,
            ),
            MixtureComponent(
                WorkloadSpec(
                    write_ratio=0.98,
                    object_size=64 * 1024,
                    num_objects=16,
                    skew=0.5,
                    name="tenant-backup",
                ),
                weight=0.45,
            ),
            MixtureComponent(
                WorkloadSpec(
                    write_ratio=0.50,
                    object_size=64 * 1024,
                    num_objects=256,
                    name="tenant-tail",
                ),
                weight=0.10,
            ),
        ],
        seed=11,
    )


def run_static(quorum: QuorumConfig) -> float:
    config = ClusterConfig(
        num_proxies=2, clients_per_proxy=5, initial_quorum=quorum
    )
    cluster = SwiftCluster(config, seed=5)
    cluster.add_clients(build_workload())
    cluster.run(12.0)
    return cluster.log.throughput(12.0 - MEASURE_WINDOW, 12.0)


def run_qopt() -> tuple[float, dict]:
    cluster = SwiftCluster(
        ClusterConfig(num_proxies=2, clients_per_proxy=5), seed=5
    )
    system = attach_qopt(
        cluster,
        autonomic_config=AutonomicConfig(
            round_duration=2.0, quarantine=0.5, top_k=16
        ),
    )
    cluster.add_clients(build_workload())
    cluster.run(DURATION)
    throughput = cluster.log.throughput(DURATION - MEASURE_WINDOW, DURATION)
    return throughput, system.autonomic_manager.installed_overrides


def main() -> None:
    print("measuring every global static configuration...")
    degree = ClusterConfig().replication_degree
    static = {
        quorum: run_static(quorum)
        for quorum in QuorumSystem(degree).minimal_configs()
    }
    for quorum, throughput in static.items():
        print(f"  static {quorum}: {throughput:7.0f} ops/s")
    best_static = max(static.values())

    print("\nrunning Q-OPT with per-object tuning...")
    qopt_throughput, overrides = run_qopt()
    print(f"  q-opt:          {qopt_throughput:7.0f} ops/s "
          f"({qopt_throughput / best_static:.2f}x the best global)")
    print(f"  per-object overrides installed: {len(overrides)}")

    by_tenant: dict[str, dict[str, int]] = {}
    for object_id, quorum in overrides.items():
        tenant = object_id.rsplit("-", 1)[0]
        by_tenant.setdefault(tenant, {})
        key = str(quorum)
        by_tenant[tenant][key] = by_tenant[tenant].get(key, 0) + 1
    print("\noverrides per tenant (the opposite profiles get opposite quorums):")
    for tenant, counts in sorted(by_tenant.items()):
        print(f"  {tenant}: {counts}")


if __name__ == "__main__":
    main()
