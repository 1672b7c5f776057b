"""Keyspace sharding: partition one keyspace into independent quorum rings.

The paper's testbed is one placement ring driven by a handful of
proxies; its load ceiling is whatever one ring (and in our live runtime,
roughly one proxy process) can absorb.  Whittaker et al. ("Read-Write
Quorum Systems Made Practical") show that *load* is the fundamental
bound on quorum-system throughput — the practical way past it is
horizontal: S independent shards, each a full Q-OPT instance with its
own :class:`~repro.sds.ring.PlacementRing`, epoch counter,
Reconfiguration Manager and (per-shard) autonomic tuning loop.

This package provides the pieces that tie S rings back into one store:

* :mod:`repro.shard.map` — the consistent-hash key→shard partition
  every component agrees on;
* :mod:`repro.shard.router` — the client-side routing table (key →
  shard → proxy) with epoch-driven refresh;
* :mod:`repro.shard.sim` — a sharded simulated deployment (one kernel,
  S sub-clusters) for independence and per-shard-tuning tests.

The live counterparts live in :mod:`repro.net`: the sharded
:class:`~repro.net.spec.ClusterSpec`, the fleet supervisor and the
scale-out benchmark (:mod:`repro.net.scaleout`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.shard.map import ShardMap
    from repro.shard.router import RoutingTable, ShardRouter

# Import on use: a live worker reads the spec's ``ShardMap`` and never
# routes.
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.shard.map": ("ShardMap",),
        "repro.shard.router": ("RoutingTable", "ShardRouter"),
    },
)

__all__ = ["ShardMap", "RoutingTable", "ShardRouter"]
