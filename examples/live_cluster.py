"""Live cluster end to end: real processes, real TCP, live retuning.

Everything the simulator runs in virtual time, this example runs on the
wire: it boots a 5-replica cluster as separate OS processes (one
``python -m repro serve`` worker per node), drives a closed-loop client
fleet against it, performs a *live* global quorum reconfiguration
(W=4 -> W=2) mid-run with zero downtime, and then verifies the entire
client-observed history with the linearizability checker — the same
protocol code as the simulation, on a different transport.

Run with::

    python examples/live_cluster.py
"""

import asyncio

from repro.net.cluster import LocalCluster
from repro.net.httpd import http_get
from repro.net.loadgen import LoadGenerator
from repro.net.spec import build_spec


async def run() -> None:
    # -- bring-up: one OS process per protocol node --------------------------
    spec = build_spec(replicas=5, proxies=1, write_quorum=4, seed=42)
    cluster = LocalCluster(spec)
    print("booting a live 5-replica cluster (one process per node)...")
    try:
        cluster.start()
        await cluster.wait_healthy()
        print(cluster.describe())

        # -- client session: closed-loop fleet over TCP ----------------------
        generator = LoadGenerator(
            cluster.spec, clients=6, workload="a", objects=32, seed=7
        )
        await generator.start()
        try:
            first = await generator.run_phase(
                "W=4", duration=2.0, write_quorum=4
            )
            print(
                f"\nphase W=4: {first.operations} ops "
                f"({first.ops_per_sec:.0f} ops/s), "
                f"write p99 {first.latencies['write'].get('p99', 0):.4f}s"
            )

            # -- live reconfiguration: two-phase, no stop-the-world ----------
            # Reconfigure while a load phase is in flight: the protocol
            # drains and fences epochs instead of stopping the world, so
            # clients keep completing operations throughout.
            overlapped = asyncio.create_task(
                generator.run_phase(
                    "during-reconfig", duration=1.5, write_quorum=2
                )
            )
            await asyncio.sleep(0.4)
            took = await generator.reconfigure(2)
            print(f"live reconfiguration to W=2 took {took:.3f}s")
            during = await overlapped
            print(
                f"tuning continued under load: {during.operations} ops "
                f"completed during the switch ({during.failed} failed)"
            )

            second = await generator.run_phase(
                "W=2", duration=2.0, write_quorum=2
            )
            print(
                f"phase W=2: {second.operations} ops "
                f"({second.ops_per_sec:.0f} ops/s), "
                f"write p99 {second.latencies['write'].get('p99', 0):.4f}s"
            )

            result = generator.result()
            print(
                f"\nhistory of {result.history_records} operations: "
                f"{result.consistency_violations} violations, "
                f"linearizable={result.linearizable}"
            )

            manager = cluster.spec.manager
            _status, metrics = await http_get(
                manager.host, manager.http_port, "/metrics"
            )
            exported = sum(
                1 for line in metrics.splitlines()
                if line and not line.startswith("#")
            )
            print(f"manager /metrics exports {exported} series")
        finally:
            await generator.stop()
    finally:
        codes = await cluster.shutdown()
        cluster.kill()
    clean = all(code == 0 for code in codes.values())
    print(f"cluster shut down cleanly: {clean}")


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
