"""CLI entry points for the live runtime.

Forwarded from ``python -m repro`` the same way qlint and bench are:

* ``serve``     — run ONE protocol node (replica, proxy or manager);
* ``cluster``   — spawn a whole local cluster of ``serve`` processes;
* ``loadgen``   — drive a live benchmark, write ``BENCH_net.json``;
* ``livesmoke`` — the CI end-to-end gate (boot, load, reconfigure,
  scrape, verify, shut down);
* ``livechaos`` — the crash-recovery gate (WAL-backed cluster, seeded
  kill -9 cycles under load, durability + linearizability verdicts).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.net.spec import ClusterSpec, build_spec

if TYPE_CHECKING:
    from repro.net.loadgen import LoadgenResult


def _spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--proxies", type=int, default=1)
    parser.add_argument(
        "--write-quorum", type=int, default=3,
        help="initial global write quorum W (R from QuorumConfig.from_write)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--lease-duration", type=float, default=0.0,
        help=(
            "per-object read lease duration in seconds; > 0 enables "
            "leases cluster-wide: writes require the primary's ack and "
            "proxies may serve reads from it alone (default 0 = off)"
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help=(
            "independent shards; --replicas/--proxies are per shard "
            "and each shard gets its own reconfiguration manager "
            "(default 1 = the classic single-ring cluster)"
        ),
    )


def _load_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--workload", choices=("a", "b", "c"), default="a",
        help="YCSB mix: a=50/50, b=95%% reads, c=99%% writes",
    )
    parser.add_argument("--object-size", type=int, default=4096)
    parser.add_argument("--objects", type=int, default=64)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument(
        "--depth", type=int, default=4,
        help="pipelined in-flight operations per client (default 4)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.0,
        help=(
            "open-loop injection rate per client, ops/sec "
            "(0 = closed loop, the default)"
        ),
    )


def cmd_serve(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run one live protocol node from a cluster spec.",
    )
    parser.add_argument("--spec", required=True, help="cluster JSON path")
    parser.add_argument(
        "--node", required=True, help="node name, e.g. storage-0"
    )
    args = parser.parse_args(list(argv))
    spec = ClusterSpec.load(args.spec)

    async def _serve() -> None:
        from repro.net.runtime import NodeRuntime

        runtime = NodeRuntime(spec, args.node)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, runtime.request_shutdown)
        await runtime.run_until_shutdown()

    asyncio.run(_serve())
    return 0


def cmd_cluster(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Spawn a local live cluster (one process per node).",
    )
    _spec_arguments(parser)
    parser.add_argument(
        "--duration", type=float, default=0.0,
        help="run this many seconds then shut down (0 = until Ctrl-C)",
    )
    args = parser.parse_args(list(argv))
    spec = build_spec(
        replicas=args.replicas,
        proxies=args.proxies,
        write_quorum=args.write_quorum,
        seed=args.seed,
        shards=args.shards,
        lease_duration=args.lease_duration,
    )

    async def _run() -> int:
        from repro.net.cluster import LocalCluster

        cluster = LocalCluster(spec)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        try:
            cluster.start()
            await cluster.wait_healthy()
            print(cluster.describe(), flush=True)
            print("cluster healthy; Ctrl-C to stop", flush=True)
            if args.duration > 0:
                try:
                    await asyncio.wait_for(stop.wait(), args.duration)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
            codes = await cluster.shutdown()
        finally:
            cluster.kill()
        dirty = {name: code for name, code in codes.items() if code != 0}
        if dirty:
            print(f"unclean exits: {dirty}", flush=True)
            return 1
        print("cluster stopped cleanly", flush=True)
        return 0

    return asyncio.run(_run())


def _finish(
    result: LoadgenResult,
    output: Optional[str] = None,
    extra: Optional[dict] = None,
    baseline: Optional[str] = None,
) -> int:
    """Write, print and gate one run report.

    The exit code mirrors the report's ``ok`` field (plus the baseline
    gate), so CI cannot pass a run whose JSON says it failed — or whose
    linearizability check never finished.
    """
    from repro.net.loadgen import check_baseline, write_report

    if output:
        write_report(result, output, extra=extra or {})
    print(result.render())
    if output:
        print(f"report written to {output}")
    failures: List[str] = []
    if baseline:
        failures = check_baseline(result, baseline)
        for failure in failures:
            print(f"BASELINE REGRESSION: {failure}")
        if not failures:
            print(f"baseline gate passed ({baseline})")
    return 1 if result.problems() or failures else 0


def cmd_loadgen(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description=(
            "Live benchmark against a running cluster: one timed phase "
            "per --phase W, with a live reconfiguration between phases."
        ),
    )
    parser.add_argument(
        "--spec", default=None,
        help=(
            "cluster JSON written by `python -m repro cluster` "
            "(omit with --shards N to run the self-contained scale-out "
            "benchmark, which boots its own clusters)"
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help=(
            "run the scale-out benchmark with this many shards: "
            "single-ring reference, fleet load, and a concurrent "
            "two-shard reconfiguration storm; writes "
            "BENCH_net_scaleout.json"
        ),
    )
    parser.add_argument(
        "--replicas", type=int, default=5,
        help="replicas per shard (scale-out mode only)",
    )
    _load_arguments(parser)
    parser.add_argument(
        "--phase", type=int, action="append", dest="phases",
        help="write quorum for one phase (repeatable; default: 4 then 2)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--output", default=None,
        help=(
            "report path (default BENCH_net.json, or "
            "BENCH_net_scaleout.json with --shards)"
        ),
    )
    parser.add_argument(
        "--baseline", default=None,
        help=(
            "pinned baseline JSON; fail if any phase drops "
            "below 70%% of its baseline ops/sec"
        ),
    )
    args = parser.parse_args(list(argv))
    load: Dict[str, Any] = {
        "duration": args.duration,
        "clients": args.clients,
        "workload": args.workload,
        "object_size": args.object_size,
        "objects": args.objects,
        "seed": args.seed,
        "pipeline_depth": args.depth,
        "injection_rate": args.rate,
    }
    if args.shards >= 2:
        from repro.net.scaleout import run_scaleout

        result = asyncio.run(
            run_scaleout(shards=args.shards, replicas=args.replicas, **load)
        )
        output = args.output or "BENCH_net_scaleout.json"
    else:
        if args.spec is None:
            parser.error("--spec is required (or use --shards N)")
        from repro.net.loadgen import run_bench

        result = asyncio.run(
            run_bench(
                ClusterSpec.load(args.spec),
                phases=args.phases or [4, 2],
                **load,
            )
        )
        output = args.output or "BENCH_net.json"
    extra = {key: value for key, value in load.items() if key != "duration"}
    return _finish(result, output, extra, args.baseline)


def cmd_livesmoke(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro livesmoke",
        description="CI smoke: boot cluster, load, reconfigure, verify.",
    )
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--proxies", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--workload", choices=("a", "b", "c"), default="a"
    )
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument(
        "--phase", type=int, action="append", dest="phases",
        help="write quorum per phase (repeatable; default: 4 then 2)",
    )
    parser.add_argument(
        "--depth", type=int, default=4,
        help="pipelined in-flight operations per client (default 4)",
    )
    args = parser.parse_args(list(argv))

    from repro.net.smoke import run_smoke

    return _finish(
        asyncio.run(
            run_smoke(
                replicas=args.replicas,
                proxies=args.proxies,
                write_quorums=args.phases or [4, 2],
                duration=args.duration,
                clients=args.clients,
                workload=args.workload,
                seed=args.seed,
                pipeline_depth=args.depth,
            )
        )
    )


def cmd_livechaos(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro livechaos",
        description=(
            "Crash-recovery gate: WAL-backed cluster, seeded kill -9 / "
            "restart cycles under load across a W=4 -> W=2 "
            "reconfiguration, then a read-back durability sweep and a "
            "full linearizability check."
        ),
    )
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--proxies", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--workload", choices=("a", "b", "c"), default="a"
    )
    parser.add_argument("--objects", type=int, default=32)
    parser.add_argument(
        "--duration", type=float, default=6.0,
        help="seconds of load per quorum phase (default 6)",
    )
    parser.add_argument(
        "--cycles", type=int, default=3,
        help="kill -9 -> restart cycles across the run (default 3)",
    )
    parser.add_argument(
        "--depth", type=int, default=4,
        help="pipelined in-flight operations per client (default 4)",
    )
    parser.add_argument(
        "--output", default="BENCH_net_chaos.json",
        help="report path (default BENCH_net_chaos.json)",
    )
    args = parser.parse_args(list(argv))

    from repro.net.chaos import run_chaos

    result = asyncio.run(
        run_chaos(
            replicas=args.replicas,
            proxies=args.proxies,
            cycles=args.cycles,
            duration=args.duration,
            clients=args.clients,
            workload=args.workload,
            objects=args.objects,
            seed=args.seed,
            pipeline_depth=args.depth,
        )
    )
    return _finish(
        result,
        args.output,
        extra={
            "workload": args.workload,
            "clients": args.clients,
            "objects": args.objects,
            "seed": args.seed,
            "cycles": args.cycles,
            "pipeline_depth": args.depth,
        },
    )


NET_COMMANDS = {
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "loadgen": cmd_loadgen,
    "livesmoke": cmd_livesmoke,
    "livechaos": cmd_livechaos,
}


def dispatch(command: str, argv: Sequence[str]) -> Optional[int]:
    """Run a net command; ``None`` if the name is not ours."""
    handler = NET_COMMANDS.get(command)
    if handler is None:
        return None
    return handler(argv)


__all__ = ["dispatch", "NET_COMMANDS"]
