"""Single-layer drivers: one layer's public calls timed on their own.

Each driver runs in this process on one thread and reports medians of
several rounds, so a noisy neighbour biases a round, not the figure.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import statistics
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List

from repro.common.config import ClusterConfig
from repro.common.types import NodeId, QuorumConfig, Version, VersionStamp
from repro.net.codec import LENGTH_PREFIX, decode_frame_body, encode_frame
from repro.net.kernel import RealtimeKernel
from repro.net.spec import (
    live_client_config,
    live_proxy_config,
    live_storage_config,
)
from repro.net.tcp import TcpTransport
from repro.sds import messages as m
from repro.sds.cluster import SwiftCluster
from repro.sds.persistence import WalBackend
from repro.sim.network import Envelope

from . import live, settings
from .settings import WorkloadDef

ROUNDS = 5


def _median_ns(func: Callable[[Any], Any], arg: Any, repeats: int) -> float:
    """Median over ROUNDS of the mean ns per ``func(arg)`` call."""
    clock = time.perf_counter_ns
    rounds = []
    for _ in range(ROUNDS):
        begin = clock()
        for _ in range(repeats):
            func(arg)
        rounds.append((clock() - begin) / repeats)
    return statistics.median(rounds)


# -- net.codec ---------------------------------------------------------------


def codec_samples(payload_bytes: int) -> Dict[str, Envelope]:
    """One envelope per message type of the request path."""
    value = random.Random(0).randbytes(payload_bytes)
    stamp = VersionStamp(timestamp=1700000000.123456, proxy="proxy-0")
    version = Version(value=value, stamp=stamp, cfg_no=3, size=len(value))
    client, proxy, storage = (
        NodeId.client(1), NodeId.proxy(0), NodeId.storage(2)
    )
    oid = "obj-000017"
    big = 256 + len(value)

    def up(payload: Any, size: int = 256) -> Envelope:
        return Envelope(client, proxy, payload, size=size)

    def down(payload: Any, size: int = 256) -> Envelope:
        return Envelope(proxy, storage, payload, size=size)

    def back(payload: Any, size: int = 256) -> Envelope:
        return Envelope(storage, proxy, payload, size=size)

    return {
        "ClientRead": up(m.ClientRead(oid, 42)),
        "ClientWrite": up(m.ClientWrite(oid, value, len(value), 43), big),
        "ClientReadReply": Envelope(
            proxy, client, m.ClientReadReply(oid, version, 42), size=big
        ),
        "ClientWriteReply": Envelope(
            proxy, client, m.ClientWriteReply(oid, 43), size=256
        ),
        "ReplicaRead": down(m.ReplicaRead(oid, 2, 7)),
        "ReplicaReadReply": back(
            m.ReplicaReadReply(oid, version, 7, storage), big
        ),
        "ReplicaWrite": down(
            m.ReplicaWrite(oid, value, len(value), stamp, 2, 3, 7), big
        ),
        "ReplicaWriteReply": back(m.ReplicaWriteReply(oid, 7, storage)),
        "LeaseRead": down(m.LeaseRead(oid, 2, 7)),
        "LeaseReadReply": back(
            m.LeaseReadReply(oid, version, 1700000002.5, 7, storage), big
        ),
    }


def codec_driver(
    payload_bytes: int, recipe: Dict[str, float]
) -> live.Metrics:
    """Encode/decode ns per type, folded with the traced message recipe
    (messages of each type per operation) into ``codec.us_per_op``."""
    out: live.Metrics = {}
    per_op_ns = 0.0
    for name, envelope in codec_samples(payload_bytes).items():
        frame = encode_frame(envelope)
        body = frame[LENGTH_PREFIX:]
        if decode_frame_body(body) != envelope:
            raise AssertionError(f"codec round trip changed {name}")
        repeats = 200 if len(frame) > 1024 else 1000
        encode = _median_ns(encode_frame, envelope, repeats)
        decode = _median_ns(decode_frame_body, body, repeats)
        out[f"codec.encode_ns.{name}"] = (encode, "ns")
        out[f"codec.decode_ns.{name}"] = (decode, "ns")
        per_op_ns += recipe.get(name, 0.0) * (encode + decode)
    out["codec.us_per_op"] = (per_op_ns / 1e3, "us")
    return out


# -- sds.persistence ---------------------------------------------------------


def _version(size: int) -> Version:
    return Version(
        value=random.Random(size).randbytes(size),
        stamp=VersionStamp(timestamp=1700000000.5, proxy="proxy-0"),
        cfg_no=1,
        size=size,
    )


def wal_driver() -> live.Metrics:
    """A bare ``WalBackend``: append, fsync, snapshot and replay."""
    clock = time.perf_counter
    root = live.scratch_dir("wal-")
    out: live.Metrics = {}
    never = 1 << 40  # keep snapshots out of the append timing
    try:
        for label, size in (("4k", 4096), ("32k", 32 * 1024)):
            version = _version(size)
            rounds = []
            for index in range(ROUNDS):
                backend = WalBackend(
                    os.path.join(root, f"put-{label}-{index}"),
                    snapshot_bytes=never,
                )
                begin = clock()
                for put in range(256):
                    backend.put(f"obj-{put % settings.OBJECTS:06d}", version)
                rounds.append((clock() - begin) / 256)
                backend.close()
            out[f"wal.put_us.{label}"] = (statistics.median(rounds) * 1e6, "us")

        version = _version(4096)
        backend = WalBackend(os.path.join(root, "flush"), snapshot_bytes=never)
        rounds = []
        for index in range(ROUNDS * 2):
            backend.put(f"obj-{index:06d}", version)
            begin = clock()
            backend.flush()
            rounds.append(clock() - begin)
        backend.close()
        out["wal.flush_ms"] = (statistics.median(rounds) * 1e3, "ms")

        version = _version(32 * 1024)
        backend = WalBackend(os.path.join(root, "snap"), snapshot_bytes=never)
        for index in range(settings.OBJECTS):
            backend.put(f"obj-{index:06d}", version)
        rounds = []
        for _ in range(ROUNDS):
            begin = clock()
            backend.snapshot()
            rounds.append(clock() - begin)
        backend.close()
        out["wal.snapshot_ms.128x32k"] = (statistics.median(rounds) * 1e3, "ms")

        version = _version(4096)
        backend = WalBackend(os.path.join(root, "replay"), snapshot_bytes=never)
        for index in range(1000):
            backend.put(f"obj-{index % settings.OBJECTS:06d}", version)
        backend.close()
        rounds = []
        for _ in range(ROUNDS):
            begin = clock()
            reopened = WalBackend(
                os.path.join(root, "replay"), snapshot_bytes=never
            )
            rounds.append(clock() - begin)
            if reopened.records_replayed != 1000:
                raise AssertionError(
                    f"replayed {reopened.records_replayed} of 1000 records"
                )
            reopened.close()
        out["wal.replay_ms_per_krecord"] = (
            statistics.median(rounds) * 1e3, "ms"
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


# -- net.tcp + net.kernel ----------------------------------------------------


async def tcp_driver() -> live.Metrics:
    """Two ``TcpTransport``s on this loop: an echo peer and a caller."""
    clock = time.perf_counter_ns
    caller_id, echo_id = NodeId.client(0), NodeId.proxy(0)
    echo_kernel, kernel = RealtimeKernel(), RealtimeKernel()
    echo = TcpTransport(echo_kernel, {}, listen_port=0)
    await echo.start()
    address = echo.listen_address
    assert address is not None
    caller = TcpTransport(kernel, {echo_id: address}, listen_port=None)
    await caller.start()
    inbox, echo_box = caller.register(caller_id), echo.register(echo_id)

    def echo_loop() -> Any:
        while True:
            envelope = yield echo_box.receive()
            echo.send(
                echo_id, envelope.sender, envelope.payload, size=envelope.size
            )

    echo_kernel.spawn(echo_loop(), name="echo")
    out: live.Metrics = {}
    try:
        for label, size in (("64b", 64), ("32k", 32 * 1024)):
            payload = m.ClientWrite("obj-000001", bytes(size), size, 1)
            trips = []
            for _ in range(400):
                begin = clock()
                caller.send(caller_id, echo_id, payload, size=size)
                await kernel.wrap_future(inbox.receive())
                trips.append(clock() - begin)
            # The first trips pay for the connection and cold code paths.
            out[f"tcp.rtt_us.{label}"] = (
                statistics.median(trips[200:]) / 1e3, "us"
            )

        payload = m.ClientWrite("obj-000001", bytes(4096), 4096, 1)
        sends: List[float] = []
        bursts: List[float] = []
        for _ in range(ROUNDS * 4):
            flushes, frames = caller.flushes, caller.frames_flushed
            begin = clock()
            for _ in range(64):
                caller.send(caller_id, echo_id, payload, size=4096)
            sends.append((clock() - begin) / 64)
            for _ in range(64):
                await kernel.wrap_future(inbox.receive())
            bursts.append(
                (caller.frames_flushed - frames)
                / max(1, caller.flushes - flushes)
            )
        out["tcp.send_us"] = (statistics.median(sends) / 1e3, "us")
        out["tcp.frames_per_flush.burst"] = (
            statistics.median(bursts), "count"
        )

        rounds = []
        loop = asyncio.get_running_loop()
        for _ in range(ROUNDS):
            done: asyncio.Future = loop.create_future()
            count = 20_000
            begin = clock()
            for _ in range(count - 1):
                kernel.post(int)
            kernel.post(done.set_result, None)
            await done
            rounds.append((clock() - begin) / count)
        out["kernel.dispatch_ns"] = (statistics.median(rounds), "ns")
    finally:
        await caller.stop()
        await echo.stop()
    return out


# -- sim control + workloads -------------------------------------------------


def sim_driver(defn: WorkloadDef, seed: int) -> live.Metrics:
    """The same op mix on ``SwiftCluster``: the protocol's CPU with no
    codec and no TCP on the path (live minus this ~ the net stack)."""
    config = ClusterConfig(
        num_storage_nodes=settings.REPLICAS,
        num_proxies=settings.PROXIES,
        clients_per_proxy=settings.CLIENTS,
        replication_degree=settings.REPLICAS,
        initial_quorum=QuorumConfig.from_write(
            defn.write_quorum, settings.REPLICAS
        ),
        storage=live_storage_config(),
        proxy=replace(
            live_proxy_config(), lease_duration=defn.lease_duration
        ),
        client=live_client_config(),
    )
    cluster = SwiftCluster(config, seed=seed)
    cluster.add_clients(
        live.make_source(defn, seed), pipeline_depth=settings.DEPTH
    )
    cluster.run(0.05)  # connections, first leases
    ops, events = cluster.log.total_operations, cluster.sim.events_processed
    begin = time.perf_counter()
    while cluster.log.total_operations - ops < 4000:
        cluster.run(0.02)
    wall = time.perf_counter() - begin
    ops = cluster.log.total_operations - ops
    events = cluster.sim.events_processed - events
    return {
        "sim.wall_us_per_op": (wall / ops * 1e6, "us"),
        "sim.events_per_op": (events / ops, "1/op"),
        "sim.events_per_s": (events / wall, "1/s"),
    }


def workload_driver(defn: WorkloadDef, seed: int) -> live.Metrics:
    source = live.make_source(defn, seed)
    rng = random.Random(seed)
    return {
        "workloads.gen_us_per_op": (
            _median_ns(source.next_operation, rng, 2000) / 1e3, "us"
        )
    }


def run_drivers(
    defn: WorkloadDef, seed: int, recipe: Dict[str, float]
) -> live.Metrics:
    out = codec_driver(defn.object_size, recipe)
    out.update(wal_driver())
    out.update(asyncio.run(tcp_driver()))
    out.update(sim_driver(defn, seed))
    out.update(workload_driver(defn, seed))
    return out
