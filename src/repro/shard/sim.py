"""A sharded simulated deployment: S independent rings, one kernel.

:class:`ShardedSimCluster` is the sim-level analogue of the live sharded
fleet: one :class:`~repro.sds.cluster.SimWorld` — one kernel, one
network — carries S complete Q-OPT instances.  Each shard is a
:class:`~repro.sds.cluster.SwiftCluster` ring on that world with its own
replicas, proxies, :class:`PlacementRing`, epoch, Reconfiguration
Manager and (optionally) its own Autonomic Manager and Oracle, while
clients roam the whole keyspace through a
:class:`~repro.shard.router.ShardRouter`.

Sharing the kernel and network is deliberate: it lets the nemesis
schedule a partition or crash *confined to one shard* and then prove the
other shards' histories never stall or reorder — the cross-shard
independence property the tests pin.

Node-id namespacing: shard ``s`` uses storage/proxy indices
``s * SHARD_INDEX_STRIDE + i``, and its control-plane singletons
(RM/AM/Oracle) take index ``s`` — so every node id in the fleet is
unique on the shared network while ``parse`` stays trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.autonomic.manager import AutonomicManager
from repro.autonomic.qopt import attach_tuning_loop
from repro.common.config import AutonomicConfig, ClusterConfig
from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, QuorumConfig
from repro.obs.context import Observability
from repro.oracle.service import OracleNode, QuorumOracle
from repro.reconfig.manager import (
    ReconfigurationManager,
    attach_reconfiguration_manager,
)
from repro.sds.client import ClientNode, OperationRecord
from repro.sds.cluster import SimWorld, SwiftCluster, Workload
from repro.sds.proxy import ProxyNode
from repro.sds.ring import PlacementRing
from repro.sds.storage import StorageNode
from repro.shard.map import ShardMap
from repro.shard.router import ShardRouter

#: Storage/proxy index offset between consecutive shards.  Bounds a
#: shard's size, which no sim test approaches.
SHARD_INDEX_STRIDE = 100


@dataclass
class SimShard:
    """One shard of a :class:`ShardedSimCluster`: its ring and control
    plane."""

    name: str
    cluster: SwiftCluster
    manager: ReconfigurationManager
    autonomic: Optional[AutonomicManager] = None
    oracle_node: Optional[OracleNode] = None

    @property
    def index(self) -> int:
        return self.cluster.index

    @property
    def ring(self) -> PlacementRing:
        return self.cluster.ring

    @property
    def storage_nodes(self) -> List[StorageNode]:
        return self.cluster.storage_nodes

    @property
    def proxies(self) -> List[ProxyNode]:
        return self.cluster.proxies

    @property
    def write_quorum(self) -> int:
        """The shard's initial write quorum (its AM starts tuning here)."""
        return self.cluster.config.initial_quorum.write

    def node_ids(self) -> List[NodeId]:
        """Every node id belonging to this shard (its failure domain)."""
        ids = [node.node_id for node in self.storage_nodes]
        ids.extend(proxy.node_id for proxy in self.proxies)
        ids.append(self.manager.node_id)
        if self.autonomic is not None:
            ids.append(self.autonomic.node_id)
        if self.oracle_node is not None:
            ids.append(self.oracle_node.node_id)
        return ids


class ShardedSimCluster(SimWorld):
    """S independent quorum rings sharing one simulated network."""

    def __init__(
        self,
        shards: int = 2,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        write_quorums: Optional[Sequence[int]] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        config = (config or ClusterConfig()).validate()
        if write_quorums is None:
            write_quorums = [config.initial_quorum.write] * shards
        if len(write_quorums) != shards:
            raise ConfigurationError(
                f"need one write quorum per shard: got "
                f"{len(write_quorums)} for {shards} shards"
            )
        super().__init__(config, seed, obs)
        # Built before any fleet attribute: each ring aliases the world.
        self.shards: List[SimShard] = [
            self._build_shard(index, write)
            for index, write in enumerate(write_quorums)
        ]
        self.shard_map = ShardMap([shard.name for shard in self.shards])
        self.router = ShardRouter(
            self.shard_map,
            {
                shard.name: [proxy.node_id for proxy in shard.proxies]
                for shard in self.shards
            },
        )

    def _build_shard(self, index: int, write_quorum: int) -> SimShard:
        quorum = QuorumConfig.from_write(
            write_quorum, self.config.replication_degree
        )
        ring = SwiftCluster._on_world(
            self,
            self.config.with_quorum(quorum),
            index=index,
            first_node=index * SHARD_INDEX_STRIDE,
        )
        return SimShard(
            name=f"shard-{index}",
            cluster=ring,
            manager=attach_reconfiguration_manager(ring),
        )

    # -- per-shard autonomic tuning -------------------------------------------

    def attach_autonomic(
        self,
        shard: int,
        oracle: QuorumOracle,
        autonomic_config: Optional[AutonomicConfig] = None,
    ) -> AutonomicManager:
        """Give one shard its own Q-OPT tuning loop (AM + Oracle pair).

        Each shard tunes independently — the heterogeneous-workload
        case: a write-heavy shard converges to a large W while a
        read-heavy neighbour shrinks W, with no coordination between
        the loops.
        """
        target = self.shards[shard]
        if target.autonomic is not None:
            raise ConfigurationError(
                f"{target.name} already has an autonomic manager"
            )
        config = autonomic_config or AutonomicConfig()
        config.validate(self.config.replication_degree)
        oracle_node, manager = attach_tuning_loop(
            target.cluster, oracle, config, target.manager.node_id
        )
        target.oracle_node, target.autonomic = oracle_node, manager
        return manager

    # -- clients ---------------------------------------------------------------

    def add_clients(
        self,
        workload: Workload,
        clients: int,
        think_time: float = 0.0,
        recorder: Optional[Callable[[OperationRecord], None]] = None,
        pipeline_depth: int = 1,
        injection_rate: float = 0.0,
    ) -> List[ClientNode]:
        """Attach clients that route every operation key→shard→proxy."""
        fallback = self.shards[0].proxies[0].node_id
        return [
            self._add_client(
                workload,
                fallback,
                think_time,
                recorder,
                pipeline_depth,
                injection_rate,
                router=self.router,
            )
            for _ in range(clients)
        ]

    # -- history partitioning --------------------------------------------------

    def partition_records(
        self, records: Sequence[OperationRecord]
    ) -> Dict[str, List[OperationRecord]]:
        """Group a record history by owning shard (every shard listed)."""
        groups: Dict[str, List[OperationRecord]] = {
            shard.name: [] for shard in self.shards
        }
        for record in records:
            groups[self.shard_map.shard_of(record.object_id)].append(record)
        return groups

    def shard_named(self, name: str) -> SimShard:
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise ConfigurationError(f"no shard named {name!r}")


__all__ = ["ShardedSimCluster", "SimShard", "SHARD_INDEX_STRIDE"]
