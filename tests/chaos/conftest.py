"""Shared harness for the chaos (nemesis) suite.

Every chaos test drives the full stack — cluster, autonomic loop,
reconfiguration manager — through a seeded nemesis schedule, then makes
the same three claims:

* **safety**: the recorded client history is linearizable;
* **liveness**: no client operation is left hanging — every operation
  either completed or surfaced a typed error within the client policy's
  deadline bound;
* **progress**: the cluster still completed real work.

The base seed can be swept from CI via the ``QOPT_CHAOS_SEED``
environment variable (each test derives its own substream from it).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

import pytest

from repro.autonomic.qopt import attach_qopt
from repro.common.config import (
    AutonomicConfig,
    ClientConfig,
    ClusterConfig,
    ProxyConfig,
    StorageConfig,
)
from repro.common.types import QuorumConfig
from repro.obs.context import Observability
from repro.sds.cluster import SwiftCluster
from repro.sds.consistency import HistoryChecker
from repro.sim.nemesis import Nemesis
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec

#: CI sweeps this (see the chaos-smoke job); 0 is the default matrix seed.
BASE_SEED = int(os.environ.get("QOPT_CHAOS_SEED", "0"))

#: Fast autonomic loop so reconfigurations fire within short runs.
CHAOS_AM = AutonomicConfig(
    round_duration=1.0, quarantine=0.2, top_k=6, gamma=2, theta=0.02
)

#: Snappy deadlines so degradation (not the fault-free path) is exercised
#: within a ~15 simulated-second run.  The client's per-attempt timeout
#: deliberately exceeds the proxy's full gather budget
#: (``operation_deadline() = 0.8 * 2``) so a reachable proxy always gets
#: to answer — with a result or a typed failure — before the client
#: abandons the attempt.
CHAOS_PROXY = ProxyConfig(
    fallback_timeout=0.25, gather_deadline=0.8, max_gather_attempts=2
)
CHAOS_CLIENT = ClientConfig(
    attempt_timeout=1.8,
    max_attempts=3,
    backoff_base=0.05,
    backoff_cap=0.4,
    backoff_jitter=0.5,
)


def chaos_cluster_config(
    write: int = 3, lease_duration: float = 0.0
) -> ClusterConfig:
    proxy = CHAOS_PROXY
    if lease_duration > 0:
        proxy = replace(proxy, lease_duration=lease_duration)
    return ClusterConfig(
        num_storage_nodes=8,
        num_proxies=2,
        clients_per_proxy=3,
        replication_degree=5,
        initial_quorum=QuorumConfig.from_write(write, 5),
        storage=StorageConfig(replication_interval=0.5),
        proxy=proxy,
        client=CHAOS_CLIENT,
    )


def build_chaos_stack(
    seed: int,
    write: int = 3,
    with_qopt: bool = True,
    write_ratio: float = 0.5,
    lease_duration: float = 0.0,
    obs: Optional[Observability] = None,
):
    """A wired cluster + checker + nemesis, ready for a schedule.

    Returns ``(cluster, system, checker, nemesis)``; ``system`` is None
    when ``with_qopt`` is False.
    """
    cluster = SwiftCluster(
        chaos_cluster_config(write, lease_duration=lease_duration),
        seed=seed,
        obs=obs,
    )
    system = (
        attach_qopt(cluster, autonomic_config=CHAOS_AM) if with_qopt else None
    )
    checker = HistoryChecker()
    cluster.add_clients(
        SyntheticWorkload(
            WorkloadSpec(
                write_ratio=write_ratio,
                object_size=8 * 1024,
                num_objects=12,
                skew=0.9,
            ),
            seed=seed + 1,
        ),
        recorder=checker.record,
    )
    nemesis = Nemesis.for_cluster(cluster, seed=seed)
    return cluster, system, checker, nemesis


def assert_no_hung_operations(cluster: SwiftCluster, slack: float = 0.5) -> None:
    """No live client may sit on one operation past its deadline bound.

    Crashed clients are exempt (their processes are dead by fiat).  A
    client whose *proxy* crashed is not exempt: its attempts time out and
    the operation must still resolve to a typed error within the bound.
    """
    bound = cluster.config.client.deadline_bound() + slack
    for client in cluster.clients:
        if cluster.crashes.is_crashed(client.node_id):
            continue
        if client.inflight_since is None:
            continue
        age = cluster.sim.now - client.inflight_since
        assert age <= bound, (
            f"{client.node_id} has been stuck on one operation for "
            f"{age:.2f}s (bound {bound:.2f}s)"
        )


def assert_chaos_invariants(
    cluster: SwiftCluster,
    checker: HistoryChecker,
    min_operations: int = 200,
) -> None:
    """The three core claims every chaos schedule must satisfy."""
    assert_no_hung_operations(cluster)
    assert cluster.log.total_operations >= min_operations, (
        f"cluster made too little progress: "
        f"{cluster.log.total_operations} ops"
    )
    checker.assert_consistent()


@pytest.fixture
def base_seed() -> int:
    return BASE_SEED
