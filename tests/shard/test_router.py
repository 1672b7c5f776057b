"""ShardRouter: key→shard→proxy routing and epoch-driven refresh."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import NodeId
from repro.shard.map import ShardMap
from repro.shard.router import ShardRouter

SHARDS = ["shard-0", "shard-1"]


def make_router() -> ShardRouter:
    return ShardRouter(
        ShardMap(SHARDS),
        {
            "shard-0": [NodeId.proxy(0), NodeId.proxy(1)],
            "shard-1": [NodeId.proxy(100)],
        },
    )


def test_route_agrees_with_shard_map() -> None:
    router = make_router()
    for key in (f"obj-{i}" for i in range(200)):
        owner = router.shard_of(key)
        assert router.route(key) in router.proxies_of(owner)
    assert router.routes_served == 200


def test_round_robin_within_a_shard() -> None:
    router = make_router()
    # Find a key owned by the two-proxy shard and route it repeatedly.
    key = next(
        f"obj-{i}"
        for i in range(1000)
        if router.shard_of(f"obj-{i}") == "shard-0"
    )
    seen = [router.route(key) for _ in range(4)]
    assert seen == [
        NodeId.proxy(0),
        NodeId.proxy(1),
        NodeId.proxy(0),
        NodeId.proxy(1),
    ]


def test_epoch_advance_refreshes_and_resets_cursor() -> None:
    router = make_router()
    key = next(
        f"obj-{i}"
        for i in range(1000)
        if router.shard_of(f"obj-{i}") == "shard-0"
    )
    assert router.route(key) == NodeId.proxy(0)
    # Cursor now points at proxy-1; an epoch advance resets it.
    assert router.note_epoch("shard-0", 1) is True
    assert router.refreshes == 1
    assert router.route(key) == NodeId.proxy(0)
    assert router.table.epochs()["shard-0"] == 1


def test_stale_and_repeated_epochs_are_ignored() -> None:
    router = make_router()
    assert router.note_epoch("shard-1", 3) is True
    assert router.note_epoch("shard-1", 3) is False
    assert router.note_epoch("shard-1", 1) is False
    assert router.refreshes == 1
    assert router.table.epochs()["shard-1"] == 3


def test_router_requires_a_proxy_per_shard() -> None:
    with pytest.raises(ConfigurationError):
        ShardRouter(ShardMap(SHARDS), {"shard-0": [NodeId.proxy(0)]})
    with pytest.raises(ConfigurationError):
        ShardRouter(
            ShardMap(SHARDS),
            {"shard-0": [NodeId.proxy(0)], "shard-1": []},
        )


def test_router_rejects_proxies_for_unknown_shards() -> None:
    with pytest.raises(ConfigurationError):
        ShardRouter(
            ShardMap(["shard-0"]),
            {"shard-0": [NodeId.proxy(0)], "ghost": [NodeId.proxy(1)]},
        )


def test_unknown_shard_route_is_an_explicit_error() -> None:
    router = make_router()
    with pytest.raises(ConfigurationError):
        router.proxies_of("ghost")
