"""Q-OPT: self-tuning quorum systems for strongly consistent SDS.

A full reproduction of *"Q-OPT: Self-tuning Quorum System for Strongly
Consistent Software Defined Storage"* (Middleware 2015): a simulated
Swift-like object store, the non-blocking quorum reconfiguration
protocol, Space-Saving top-k workload analysis, a from-scratch
C4.5/C5.0-style decision-tree Oracle, and the Autonomic Manager tying
them together — plus the experiment harness regenerating the paper's
evaluation.

Quickstart::

    from repro import ClusterConfig, SwiftCluster, attach_qopt, ycsb

    cluster = SwiftCluster(ClusterConfig())
    system = attach_qopt(cluster)
    cluster.add_clients(ycsb.build(ycsb.workload_a()))
    cluster.run(60.0)
    print(cluster.log.throughput(30.0, 60.0), "ops/s")
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis import (
        MvaThroughputModel,
        WorkloadPoint,
        measure_throughput,
        sweep_configurations,
    )
    from repro.autonomic import AutonomicManager, QOptSystem, attach_qopt
    from repro.common import (
        AutonomicConfig,
        ClusterConfig,
        NetworkConfig,
        NodeId,
        OpType,
        ProxyConfig,
        QuorumConfig,
        ReproError,
        StorageConfig,
        Version,
        VersionStamp,
    )
    from repro.metrics import LatencySummary, OperationLog, Timeline
    from repro.oracle import (
        BoostedTreeClassifier,
        DecisionTreeClassifier,
        QuorumOracle,
        generate_training_set,
    )
    from repro.reconfig import (
        BlockingReconfigurationManager,
        ReconfigurationManager,
        attach_blocking_manager,
        attach_reconfiguration_manager,
    )
    from repro.sds import QuorumPlan, SwiftCluster
    from repro.sim import Simulator
    from repro.topk import SpaceSaving
    from repro.workloads import (
        MixedWorkload,
        PhasedWorkload,
        SyntheticWorkload,
        WorkloadSpec,
        sweep_specs,
        ycsb,
    )

__version__ = "1.0.0"

# Import on use: a live worker imports ``repro`` on its way to
# ``repro.net`` and must not pay for the harness, the Oracle or numpy.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.analysis": (
            "MvaThroughputModel",
            "WorkloadPoint",
            "measure_throughput",
            "sweep_configurations",
        ),
        "repro.autonomic": ("AutonomicManager", "QOptSystem", "attach_qopt"),
        "repro.common": (
            "AutonomicConfig",
            "ClusterConfig",
            "NetworkConfig",
            "NodeId",
            "OpType",
            "ProxyConfig",
            "QuorumConfig",
            "ReproError",
            "StorageConfig",
            "Version",
            "VersionStamp",
        ),
        "repro.metrics": ("LatencySummary", "OperationLog", "Timeline"),
        "repro.oracle": (
            "BoostedTreeClassifier",
            "DecisionTreeClassifier",
            "QuorumOracle",
            "generate_training_set",
        ),
        "repro.reconfig": (
            "BlockingReconfigurationManager",
            "ReconfigurationManager",
            "attach_blocking_manager",
            "attach_reconfiguration_manager",
        ),
        "repro.sds": ("QuorumPlan", "SwiftCluster"),
        "repro.sim": ("Simulator",),
        "repro.topk": ("SpaceSaving",),
        "repro.workloads": (
            "MixedWorkload",
            "PhasedWorkload",
            "SyntheticWorkload",
            "WorkloadSpec",
            "sweep_specs",
            "ycsb",
        ),
    },
)

__all__ = [
    "AutonomicConfig",
    "AutonomicManager",
    "BlockingReconfigurationManager",
    "BoostedTreeClassifier",
    "ClusterConfig",
    "DecisionTreeClassifier",
    "LatencySummary",
    "MixedWorkload",
    "MvaThroughputModel",
    "NetworkConfig",
    "NodeId",
    "OperationLog",
    "OpType",
    "PhasedWorkload",
    "ProxyConfig",
    "QOptSystem",
    "QuorumConfig",
    "QuorumOracle",
    "QuorumPlan",
    "ReconfigurationManager",
    "ReproError",
    "Simulator",
    "SpaceSaving",
    "StorageConfig",
    "SwiftCluster",
    "SyntheticWorkload",
    "Timeline",
    "Version",
    "VersionStamp",
    "WorkloadPoint",
    "WorkloadSpec",
    "attach_blocking_manager",
    "attach_qopt",
    "attach_reconfiguration_manager",
    "generate_training_set",
    "measure_throughput",
    "sweep_configurations",
    "sweep_specs",
    "ycsb",
    "__version__",
]
