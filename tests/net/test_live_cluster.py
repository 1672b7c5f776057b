"""In-process live cluster: full protocol over real sockets.

Boots every node of an N=5 cluster as a :class:`NodeRuntime` *inside
this test process* (one asyncio loop, one kernel per node, real TCP
between them), then drives the closed-loop load generator through a
live W=4 -> W=2 reconfiguration.  This is the same shape as the
subprocess smoke (``python -m repro livesmoke``) but fast enough for
the default suite, and failures come with in-process tracebacks.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.cluster import allocate_ports
from repro.net.httpd import http_get
from repro.net.loadgen import LoadGenerator, metric_value, run_bench
from repro.net.runtime import NodeRuntime
from repro.net.spec import build_spec
from repro.obs.exporters import parse_prometheus_text
from repro.sds.storage import StorageNode

pytestmark = pytest.mark.slow

#: Proxy work per completed operation on this run's shape (N=5,
#: W=4 then W=2, workload A, 4 closed-loop clients): kernel callbacks
#: dispatched and transport messages sent.  Both are counts, not times,
#: so they repeat to under 1 % from run to run (only the fixed cost of
#: health probes and the reconfiguration, spread over however many ops
#: a phase completes, varies); an extra round trip, timer or retry per
#: operation moves them by far more than the tolerance.  Re-pin only for
#: an intended change to the per-operation protocol.
PINNED_PROXY_PER_OP = {
    ("qopt_kernel_events_total",): 6.06,
    ("qopt_transport_messages_total", 'direction="sent"'): 4.05,
}
PIN_TOLERANCE = 0.02


def test_live_cluster_reconfigures_and_stays_linearizable() -> None:
    async def scenario() -> None:
        spec = allocate_ports(
            build_spec(replicas=5, proxies=1, write_quorum=4, seed=5)
        )
        runtimes = [
            NodeRuntime(spec, address.name)
            for address in spec.all_addresses()
        ]
        for runtime in runtimes:
            await runtime.start()
        generator = LoadGenerator(
            spec, clients=4, workload="a", objects=16, seed=5
        )
        await generator.start()
        try:
            await generator.wait_cluster_healthy()

            first = await generator.run_phase(
                "W=4", duration=0.8, write_quorum=4
            )
            assert first.operations > 0
            assert first.failed == 0

            took = await generator.reconfigure(2)
            assert took < 10.0

            second = await generator.run_phase(
                "W=2", duration=0.8, write_quorum=2
            )
            assert second.operations > 0
            assert second.failed == 0

            result = generator.result()
            assert result.linearizable is True
            assert result.reconfig_seconds == took

            manager = spec.manager
            status, body = await http_get(
                manager.host, manager.http_port, "/metrics"
            )
            assert status == 200
            assert "qopt_transport_messages_total" in body
            assert "qopt_kernel_events_total" in body

            # Every gather armed two timers and cancelled both; with the
            # load stopped nothing gather-shaped is left armed.
            proxy = spec.proxies[0]
            status, body = await http_get(
                proxy.host, proxy.http_port, "/metrics"
            )
            assert status == 200
            samples = parse_prometheus_text(body)
            timers = {
                series.partition("{")[0]: value
                for series, value in samples.items()
                if series.startswith("qopt_kernel_timers_")
            }
            gathers = first.operations + second.operations
            assert timers["qopt_kernel_timers_armed_total"] >= 2 * gathers
            assert timers["qopt_kernel_timers_cancelled_total"] >= 2 * gathers
            assert timers["qopt_kernel_timers_pending"] <= 4

            for series, pinned in PINNED_PROXY_PER_OP.items():
                per_op = metric_value(samples, *series) / gathers
                assert abs(per_op / pinned - 1) <= PIN_TOLERANCE, (
                    f"proxy {series} per op {per_op:.4f} is off the "
                    f"pinned {pinned} by more than {PIN_TOLERANCE:.0%}"
                )
        finally:
            await generator.stop()
            for runtime in runtimes:
                await runtime.stop()

    asyncio.run(scenario())


def test_same_seed_reruns_against_one_cluster_are_linearizable() -> None:
    """``loadgen --spec`` run twice against one running cluster: the
    second run writes the first run's tokens again and first reads what
    the first run left, which its checker takes as initial values."""

    async def scenario() -> None:
        spec = allocate_ports(
            build_spec(replicas=5, proxies=1, write_quorum=4, seed=7)
        )
        runtimes = [
            NodeRuntime(spec, address.name)
            for address in spec.all_addresses()
        ]
        for runtime in runtimes:
            await runtime.start()
        try:
            for _ in range(2):
                result = await run_bench(
                    spec, [4], duration=0.6, clients=4, objects=8, seed=7
                )
                assert result.phases[0].operations > 0
                assert result.linearizable is True, result.render()
        finally:
            for runtime in runtimes:
                await runtime.stop()

    asyncio.run(scenario())


def test_node_runtime_health_and_shutdown_endpoints() -> None:
    async def scenario() -> None:
        spec = allocate_ports(build_spec(replicas=5, proxies=1, seed=6))
        runtime = NodeRuntime(spec, "storage-0")
        served = asyncio.create_task(runtime.run_until_shutdown())
        try:
            address = spec.address_of("storage-0")
            for _ in range(100):
                try:
                    status, body = await http_get(
                        address.host, address.http_port, "/healthz",
                        timeout=1.0,
                    )
                    break
                except OSError:
                    await asyncio.sleep(0.05)
            else:
                raise AssertionError("healthz never came up")
            assert status == 200
            assert "storage-0" in body

            status, _ = await http_get(
                address.host, address.http_port, "/shutdown"
            )
            assert status == 200
            await asyncio.wait_for(served, 10.0)
        finally:
            if not served.done():
                runtime.request_shutdown()
                await asyncio.wait_for(served, 10.0)

    asyncio.run(scenario())


def test_wal_backed_replica_crashes_and_rejoins_quarantined(
    tmp_path,
) -> None:
    """In-process crash drill: a WAL-backed replica is torn down without
    its final fsync, restarts recovered, serves writes while read-silent,
    and re-enters read quorums only after the I6 sync completes."""

    async def scenario() -> None:
        spec = allocate_ports(
            build_spec(
                replicas=5,
                proxies=1,
                write_quorum=4,
                seed=7,
                data_dir=str(tmp_path / "data"),
            )
        )
        runtimes = {
            address.name: NodeRuntime(spec, address.name)
            for address in spec.all_addresses()
        }
        for runtime in runtimes.values():
            await runtime.start()
        generator = LoadGenerator(
            spec, clients=4, workload="a", objects=16, seed=7
        )
        await generator.start()
        try:
            await generator.wait_cluster_healthy()
            first = await generator.run_phase(
                "W=4", duration=0.8, write_quorum=4
            )
            assert first.operations > 0

            victim_name = spec.replicas[0].name
            victim = runtimes[victim_name]
            assert victim.backend is not None
            assert victim.backend.records_appended > 0
            # Crash, not shutdown: no backend.close(), so the buffered
            # WAL tail is simply gone — like the process dying.
            victim.node.crash()
            await victim.http.stop()
            await victim.transport.stop()

            reborn = NodeRuntime(spec, victim_name)
            runtimes[victim_name] = reborn
            node = reborn.node
            assert isinstance(node, StorageNode)
            assert reborn.backend is not None
            assert reborn.backend.recovered is True
            assert node.quarantined is True  # before start(): from disk
            await reborn.start()

            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while node.quarantined and loop.time() < deadline:
                await asyncio.sleep(0.05)
            assert node.quarantined is False
            assert node.recoveries_completed == 1
            assert node.sync_requests_sent > 0

            address = spec.address_of(victim_name)
            status, body = await http_get(
                address.host, address.http_port, "/healthz"
            )
            assert status == 200
            assert "quarantined=false" in body

            second = await generator.run_phase(
                "W=4-after", duration=0.5, write_quorum=4
            )
            assert second.operations > 0
            assert generator.result().linearizable is True
        finally:
            await generator.stop()
            for runtime in runtimes.values():
                await runtime.stop()

    asyncio.run(scenario())
