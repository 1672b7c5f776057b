"""End-to-end integration tests: the full Q-OPT stack under stress."""

from __future__ import annotations

import pytest

from repro.autonomic.qopt import attach_qopt
from repro.common.config import (
    AutonomicConfig,
    ClusterConfig,
    StorageConfig,
)
from repro.common.types import QuorumConfig
from repro.sds.cluster import SwiftCluster
from repro.sds.consistency import HistoryChecker
from repro.workloads.generator import (
    MixedWorkload,
    MixtureComponent,
    SyntheticWorkload,
    WorkloadSpec,
)
from repro.workloads.traces import Phase, PhasedWorkload

FAST_AM = AutonomicConfig(
    round_duration=1.0, quarantine=0.2, top_k=6, gamma=2, theta=0.02
)


def cluster_config(write=3):
    return ClusterConfig(
        num_storage_nodes=8,
        num_proxies=2,
        clients_per_proxy=4,
        replication_degree=5,
        initial_quorum=QuorumConfig.from_write(write, 5),
        storage=StorageConfig(replication_interval=0.5),
    )


class TestFullStackSafety:
    def test_qopt_preserves_consistency_while_tuning(self):
        """The whole point of Section 5: the autonomic loop fires real
        reconfigurations under load and clients never observe a stale or
        fabricated value."""
        cluster = SwiftCluster(cluster_config(write=5), seed=21)
        system = attach_qopt(cluster, autonomic_config=FAST_AM)
        checker = HistoryChecker()
        cluster.add_clients(
            SyntheticWorkload(
                WorkloadSpec(
                    write_ratio=0.8,
                    object_size=16 * 1024,
                    num_objects=12,
                    skew=0.9,
                ),
                seed=2,
            ),
            recorder=checker.record,
        )
        cluster.run(15.0)
        rm = system.reconfiguration_manager
        assert rm.reconfigurations_completed >= 1
        assert len(checker.records) > 2000
        # The Wing-Gong search: the freshest-stamp read rule
        # linearizes this history.
        checker.assert_consistent()

    def test_qopt_consistent_across_workload_switch(self):
        cluster = SwiftCluster(cluster_config(), seed=22)
        attach_qopt(cluster, autonomic_config=FAST_AM)
        checker = HistoryChecker()
        office = WorkloadSpec(
            write_ratio=0.05,
            object_size=16 * 1024,
            num_objects=12,
            name="sw",
        )
        cluster.add_clients(
            PhasedWorkload(
                phases=[
                    Phase(0.0, office),
                    Phase(6.0, office.with_write_ratio(0.95)),
                ],
                clock=lambda: cluster.sim.now,
                seed=3,
            ),
            recorder=checker.record,
        )
        cluster.run(14.0)
        checker.assert_consistent()

    def test_qopt_survives_proxy_crash_mid_optimization(self):
        cluster = SwiftCluster(cluster_config(write=5), seed=23)
        system = attach_qopt(cluster, autonomic_config=FAST_AM)
        checker = HistoryChecker()
        cluster.add_clients(
            SyntheticWorkload(
                WorkloadSpec(
                    write_ratio=0.9,
                    object_size=16 * 1024,
                    num_objects=12,
                    skew=0.9,
                ),
                seed=4,
            ),
            recorder=checker.record,
        )
        cluster.run(2.5)
        cluster.crash_proxy(1)
        cluster.run(10.0)
        manager = system.autonomic_manager
        assert manager.rounds_executed >= 3
        # Optimization still happened after the crash.
        assert manager.fine_reconfigurations >= 1
        checker.assert_consistent()


class TestFullStackBehaviour:
    def test_multi_tenant_mixture_gets_opposite_overrides(self):
        cluster = SwiftCluster(cluster_config(), seed=24)
        system = attach_qopt(
            cluster,
            autonomic_config=AutonomicConfig(
                round_duration=1.0, quarantine=0.2, top_k=12
            ),
        )
        mixture = MixedWorkload(
            [
                MixtureComponent(
                    WorkloadSpec(
                        write_ratio=0.02,
                        object_size=32 * 1024,
                        num_objects=6,
                        name="readers",
                    ),
                    weight=0.5,
                ),
                MixtureComponent(
                    WorkloadSpec(
                        write_ratio=0.98,
                        object_size=32 * 1024,
                        num_objects=6,
                        name="writers",
                    ),
                    weight=0.5,
                ),
            ],
            seed=5,
        )
        cluster.add_clients(mixture)
        cluster.run(14.0)
        overrides = system.autonomic_manager.installed_overrides
        reader_quorums = {
            q.write for o, q in overrides.items() if o.startswith("readers")
        }
        writer_quorums = {
            q.write for o, q in overrides.items() if o.startswith("writers")
        }
        assert reader_quorums and writer_quorums
        assert max(writer_quorums) <= 2  # write-heavy objects: small W
        assert min(reader_quorums) >= 4  # read-heavy objects: large W

    def test_deterministic_given_seed(self):
        def run_once():
            cluster = SwiftCluster(cluster_config(), seed=99)
            attach_qopt(cluster, autonomic_config=FAST_AM)
            cluster.add_clients(
                SyntheticWorkload(
                    WorkloadSpec(
                        write_ratio=0.7,
                        object_size=16 * 1024,
                        num_objects=16,
                    ),
                    seed=6,
                )
            )
            cluster.run(6.0)
            return (
                cluster.log.total_operations,
                cluster.log.latency_summary().mean,
            )

        assert run_once() == run_once()

    def test_seed_changes_change_the_run(self):
        def run_with(seed):
            cluster = SwiftCluster(cluster_config(), seed=seed)
            cluster.add_clients(
                SyntheticWorkload(
                    WorkloadSpec(
                        write_ratio=0.7,
                        object_size=16 * 1024,
                        num_objects=16,
                    ),
                    seed=6,
                )
            )
            cluster.run(4.0)
            return cluster.log.total_operations

        assert run_with(1) != run_with(2)
