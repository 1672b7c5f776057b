"""Client-side shard routing: key → shard → proxy, with epoch refresh.

The router is the seam between one logical keyspace and S independent
quorum rings.  It owns a :class:`RoutingTable` — one entry per shard
holding the shard's proxy set, the last shard epoch the router observed
and a rotation cursor — and exposes the single call the client hot path
needs: :meth:`ShardRouter.route`, mapping an object id to the proxy that
should serve it.

Routing is two deterministic steps:

1. the :class:`~repro.shard.map.ShardMap` names the owning shard
   (consistent hash, identical in every process);
2. the shard's entry picks a proxy round-robin, spreading one client
   fleet across all of a shard's proxies the same way the placement
   ring's ``preferred_order`` spreads read quorums across replicas.

**Epoch refresh**: a shard that reconfigures bumps its epoch (the
storage tier rejects stale-epoch operations, so proxies always converge
onto the new plan).  The router does not need new routes for safety —
shard *membership* never changes during a W reconfiguration — but it
tracks per-shard epochs so that (a) a fleet operator can see which
routing entries are stale, and (b) the rotation cursor is reset on every
epoch change, re-balancing clients across the shard's proxies after the
reconfiguration shuffled their load.  The one feed is the live load
generator's :meth:`~repro.net.loadgen.LoadGenerator.reconfigure`, which
passes on the epoch the shard manager's ``/reconfig`` reply reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId, ObjectId
from repro.shard.map import ShardMap


@dataclass
class ShardRoute:
    """One shard's routing entry."""

    shard: str
    proxies: Tuple[NodeId, ...]
    #: Last shard epoch the router observed (-1 = never observed).
    epoch: int = -1
    #: Round-robin cursor over :attr:`proxies`.
    cursor: int = 0

    def next_proxy(self) -> NodeId:
        proxy = self.proxies[self.cursor % len(self.proxies)]
        self.cursor += 1
        return proxy


@dataclass
class RoutingTable:
    """Per-shard routes plus refresh bookkeeping."""

    routes: Dict[str, ShardRoute] = field(default_factory=dict)
    #: Epoch-change refreshes performed since construction.
    refreshes: int = 0

    def entry(self, shard: str) -> ShardRoute:
        try:
            return self.routes[shard]
        except KeyError:
            raise ConfigurationError(f"no route for shard {shard!r}")

    def epochs(self) -> Dict[str, int]:
        return {name: route.epoch for name, route in self.routes.items()}


class ShardRouter:
    """Maps every object id to the proxy that should serve it."""

    def __init__(
        self,
        shard_map: ShardMap,
        proxies_by_shard: Dict[str, Sequence[NodeId]],
    ) -> None:
        missing = [
            name
            for name in shard_map.shard_names
            if not proxies_by_shard.get(name)
        ]
        if missing:
            raise ConfigurationError(
                f"router needs at least one proxy per shard; missing for "
                f"{', '.join(missing)}"
            )
        unknown = sorted(
            set(proxies_by_shard) - set(shard_map.shard_names)
        )
        if unknown:
            raise ConfigurationError(
                f"router given proxies for unknown shards: "
                f"{', '.join(unknown)}"
            )
        self.shard_map = shard_map
        self.table = RoutingTable(
            routes={
                name: ShardRoute(
                    shard=name, proxies=tuple(proxies_by_shard[name])
                )
                for name in shard_map.shard_names
            }
        )
        #: Total routing decisions served.
        self.routes_served = 0

    # -- hot path -------------------------------------------------------------

    def shard_of(self, object_id: ObjectId) -> str:
        return self.shard_map.shard_of(object_id)

    def route(self, object_id: ObjectId) -> NodeId:
        """The proxy that should serve ``object_id`` right now."""
        self.routes_served += 1
        return self.table.entry(self.shard_map.shard_of(object_id)).next_proxy()

    def proxies_of(self, shard: str) -> Tuple[NodeId, ...]:
        return self.table.entry(shard).proxies

    # -- refresh --------------------------------------------------------------

    def note_epoch(self, shard: str, epoch: int) -> bool:
        """Record a shard epoch observation; refresh the route on change.

        Returns ``True`` when the observation advanced the entry's epoch
        (and therefore reset its rotation cursor).  Stale or repeated
        observations are ignored, so feeding the same epoch twice is
        harmless.
        """
        route = self.table.entry(shard)
        if epoch <= route.epoch:
            return False
        route.epoch = epoch
        route.cursor = 0
        self.table.refreshes += 1
        return True

    @property
    def refreshes(self) -> int:
        return self.table.refreshes


#: Structural type the client seam expects: anything with ``route``.
class RouteSource:
    """Protocol-by-convention: ``route(object_id) -> NodeId``."""

    def route(
        self, object_id: ObjectId
    ) -> NodeId:  # pragma: no cover - interface
        raise NotImplementedError


__all__ = ["ShardRoute", "RoutingTable", "ShardRouter", "RouteSource"]
