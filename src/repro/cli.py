"""Command-line interface: one parser for every ``python -m repro`` command.

* ``figure2`` ... ``per-object`` regenerate a paper figure or claim
  (DESIGN.md's E1-E8) and print its table; ``--fast`` trades precision
  for runtime by shrinking simulation durations.  ``predict`` prints one
  MVA sweep;
* ``bench`` runs the observability perf harness and ``qlint`` the
  protocol linters (``python -m repro.qlint`` is the same command);
* ``serve``, ``cluster``, ``loadgen``, ``livesmoke`` and ``livechaos``
  drive the live TCP runtime.

:func:`build_parser` is the only parser.  Each handler imports its
module on use: every ``python -m repro serve`` worker parses its command
line here and must load only the kernel, the transport and its node —
not the harness, the Oracle, numpy or qlint.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.net.loadgen import LoadgenResult

Handler = Callable[[argparse.Namespace], int]
Render = Callable[[argparse.Namespace], str]


def _prints(render: Render) -> Handler:
    """A handler that prints ``render``'s table and exits 0."""

    def handler(args: argparse.Namespace) -> int:
        print(render(args))
        return 0

    return handler


def _cmd_figure2(args: argparse.Namespace) -> str:
    from repro.common.config import ClusterConfig
    from repro.harness.figures import figure2

    duration = 5.0 if args.fast else 8.0
    result = figure2(
        cluster_config=ClusterConfig(num_proxies=1, clients_per_proxy=10),
        duration=duration,
        warmup=min(2.0, duration / 2),
        seed=args.seed,
    )
    return result.render()


def _cmd_figure3(args: argparse.Namespace) -> str:
    from repro.harness.figures import figure3

    return figure3(clients=10).render(sample=24)


def _cmd_tuning_impact(args: argparse.Namespace) -> str:
    from repro.harness.figures import tuning_impact

    return tuning_impact(clients=10).render()


def _cmd_oracle(args: argparse.Namespace) -> str:
    from repro.harness.figures import oracle_accuracy

    folds = 5 if args.fast else 10
    return oracle_accuracy(folds=folds, seed=args.seed).render()


def _cmd_qopt_vs_static(args: argparse.Namespace) -> str:
    from repro.harness.runtime import FAST_AUTONOMIC, qopt_vs_static

    scale = 0.5 if args.fast else 1.0
    result = qopt_vs_static(
        autonomic_config=FAST_AUTONOMIC,
        static_duration=8.0 * scale,
        static_warmup=2.0 * scale,
        qopt_duration=24.0 * scale,
        measure_window=6.0 * scale,
        seed=args.seed,
    )
    return result.render()


def _cmd_reconfig_overhead(args: argparse.Namespace) -> str:
    from repro.harness.runtime import reconfiguration_overhead

    result = reconfiguration_overhead(seed=args.seed)
    return result.render()


def _cmd_dynamic(args: argparse.Namespace) -> str:
    from repro.harness.runtime import FAST_AUTONOMIC, dynamic_adaptation

    scale = 0.5 if args.fast else 1.0
    result = dynamic_adaptation(
        autonomic_config=FAST_AUTONOMIC,
        switch_time=20.0 * scale,
        duration=44.0 * scale,
        seed=args.seed,
    )
    return result.render()


def _cmd_per_object(args: argparse.Namespace) -> str:
    from repro.harness.runtime import per_object_vs_global

    scale = 0.5 if args.fast else 1.0
    result = per_object_vs_global(
        static_duration=8.0 * scale,
        qopt_duration=30.0 * scale,
        measure_window=6.0 * scale,
        seed=args.seed,
    )
    return result.render()


def _cmd_predict(args: argparse.Namespace) -> str:
    """One MVA sweep: throughput of every configuration for a workload."""
    from repro.analysis.mva import MvaThroughputModel, WorkloadPoint
    from repro.common.config import ClusterConfig
    from repro.common.types import QuorumConfig
    from repro.harness.tables import render_table

    model = MvaThroughputModel(ClusterConfig())
    point = WorkloadPoint(
        write_ratio=args.write_ratio, object_size=args.object_size
    )
    sweep = model.config_sweep(point, clients=args.clients)
    best = max(sweep, key=lambda w: sweep[w])
    degree = model.config.replication_degree
    rows = [
        (
            str(QuorumConfig.from_write(w, degree)),
            f"{x:.0f}",
            "<- optimal" if w == best else "",
        )
        for w, x in sweep.items()
    ]
    return render_table(
        ["configuration", "predicted ops/s", ""],
        rows,
        title=(
            f"MVA prediction: {args.write_ratio * 100:.0f}% writes, "
            f"{args.object_size} B objects, {args.clients} clients"
        ),
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import run_command

    return run_command(args)


def _cmd_qlint(args: argparse.Namespace) -> int:
    from repro.qlint.cli import run_command

    return run_command(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.runtime import NodeRuntime
    from repro.net.spec import ClusterSpec

    spec = ClusterSpec.load(args.spec)

    async def _serve() -> None:
        runtime = NodeRuntime(spec, args.node)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, runtime.request_shutdown)
        await runtime.run_until_shutdown()

    asyncio.run(_serve())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.net.cluster import LocalCluster
    from repro.net.spec import build_spec

    spec = build_spec(
        replicas=args.replicas,
        proxies=args.proxies,
        write_quorum=args.write_quorum,
        seed=args.seed,
        shards=args.shards,
        lease_duration=args.lease_duration,
    )

    async def _run() -> int:
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
) -> int:
    """Write, print and gate one run report.

    The exit code mirrors the report's ``ok`` field, so CI cannot pass a
    run whose JSON says it failed — or whose linearizability check never
    finished.
    """
    from repro.net.loadgen import write_report

    if output:
        write_report(result, output, extra=extra or {})
    print(result.render())
    if output:
        print(f"report written to {output}")
    return 1 if result.problems() else 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    # --spec and --shards are a required exclusive pair; the flags only
    # one mode reads are refused in the other.
    if args.spec is not None and args.replicas_given:
        args.error("argument --replicas: only with --shards (a --spec "
                   "cluster has its own size)")
    if args.shards and args.phases is not None:
        args.error("argument --phase: only with --spec (the --shards "
                   "run has fixed phases)")
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
    if args.shards:
        from repro.net.scaleout import run_scaleout

        result = asyncio.run(
            run_scaleout(shards=args.shards, replicas=args.replicas, **load)
        )
        output = args.output or "BENCH_net_scaleout.json"
    else:
        from repro.net.loadgen import run_bench
        from repro.net.spec import ClusterSpec

        result = asyncio.run(
            run_bench(
                ClusterSpec.load(args.spec),
                phases=args.phases or [4, 2],
                **load,
            )
        )
        output = args.output or "BENCH_net.json"
    extra = {key: value for key, value in load.items() if key != "duration"}
    return _finish(result, output, extra)


def _cmd_livesmoke(args: argparse.Namespace) -> int:
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


def _cmd_livechaos(args: argparse.Namespace) -> int:
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


#: E1-E8: name -> (table renderer, help, shared flags).
_EXPERIMENTS: Dict[str, Tuple[Render, str, Tuple[str, ...]]] = {
    "figure2": (
        _cmd_figure2, "E1: Figure 2 — throughput per quorum config",
        ("--seed", "--fast"),
    ),
    "figure3": (_cmd_figure3, "E2: Figure 3 — optimal W vs write %%", ()),
    "tuning-impact": (_cmd_tuning_impact, "E3: up-to-5x tuning impact", ()),
    "oracle-accuracy": (
        _cmd_oracle, "E4: oracle cross-validation", ("--seed", "--fast")
    ),
    "qopt-vs-static": (
        _cmd_qopt_vs_static, "E5: Q-OPT vs static configs",
        ("--seed", "--fast"),
    ),
    "reconfig-overhead": (
        _cmd_reconfig_overhead,
        "E6: reconfiguration throughput dip (+ stop-the-world ablation)",
        ("--seed",),
    ),
    "dynamic": (
        _cmd_dynamic, "E7: adaptation to a workload switch",
        ("--seed", "--fast"),
    ),
    "per-object": (
        _cmd_per_object, "E8: per-object vs global tuning",
        ("--seed", "--fast"),
    ),
}

#: Flags more than one command takes, declared once; a command that
#: wants another default passes it to ``command(..., flag=value)``.
#: (Not argparse parent parsers: those share their action objects, so
#: one command's ``set_defaults`` would rewrite every other's default.)
_SHARED: Dict[str, Dict[str, Any]] = {
    "--seed": dict(type=int, default=0),
    "--fast": dict(
        action="store_true",
        help="shrink simulation durations for a quick look",
    ),
    "--replicas": dict(type=int, default=5),
    "--proxies": dict(type=int, default=1),
    "--clients": dict(type=int, default=4),
    "--workload": dict(
        choices=("a", "b", "c"), default="a",
        help="YCSB mix: a=50/50, b=95%% reads, c=99%% writes",
    ),
    "--object-size": dict(type=int, default=4096),
    "--objects": dict(type=int, default=64),
    "--duration": dict(
        type=float, default=2.0, help="seconds of load per phase"
    ),
    "--depth": dict(
        type=int, default=4,
        help="pipelined in-flight operations per client (default 4)",
    ),
    "--phase": dict(
        type=int, action="append", dest="phases",
        help="write quorum for one phase (repeatable; default: 4 then 2)",
    ),
}


class _Given(argparse.Action):
    """``store``, and set ``<dest>_given``: a mode check must refuse a
    typed ``--replicas 5`` that the default 5 cannot be told apart from."""

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        setattr(namespace, self.dest, values)
        setattr(namespace, f"{self.dest}_given", True)


def _shards(text: str) -> int:
    shards = int(text)
    if shards < 2:
        raise argparse.ArgumentTypeError("scaleout needs at least 2 shards")
    return shards


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Q-OPT reproduction: regenerate the paper's experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        handler: Handler,
        summary: str,
        *shared: str,
        description: Optional[str] = None,
        **defaults: Any,
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, help=summary, description=description
        )
        for flag in shared:
            sub.add_argument(flag, **_SHARED[flag])
        sub.set_defaults(handler=handler, **defaults)
        return sub

    for name, (render, summary, shared) in _EXPERIMENTS.items():
        command(name, _prints(render), summary, *shared)
    predict = command(
        "predict", _prints(_cmd_predict),
        "MVA throughput prediction for one workload",
        "--object-size", "--clients", object_size=64 * 1024, clients=50,
    )
    predict.add_argument("--write-ratio", type=float, default=0.5)

    bench = command(
        "bench", _cmd_bench,
        "observability perf harness (writes BENCH_obs.json)", "--seed",
        description=(
            "Run the pinned observability benchmark matrix and write "
            "BENCH_obs.json"
        ),
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="run only the three core scenarios (CI perf-smoke mode)",
    )
    bench.add_argument(
        "--output", default="BENCH_obs.json",
        help="report path (default BENCH_obs.json)",
    )
    bench.add_argument(
        "--trace", default=None,
        help=(
            "also export the chaos scenario's Chrome trace_event JSON "
            "to this path (open in Perfetto)"
        ),
    )
    bench.add_argument(
        "--profile", default=None, metavar="PATH",
        help=(
            "run under cProfile, write the pstats table to PATH and "
            "print the top-3 hot functions (adds overhead: the "
            "report's wall-clock rates are then not comparable)"
        ),
    )

    qlint = command(
        "qlint", _cmd_qlint,
        "protocol-invariant static analysis (also python -m repro.qlint)",
        description=(
            "Static analysis for Q-OPT protocol invariants: determinism "
            "of the simulator, strict quorum intersection at every "
            "configuration site, interleaving safety across suspension "
            "points, and wire-registry exhaustiveness.  Exit 0 clean, "
            "1 findings, 2 usage error."
        ),
    )
    qlint.add_argument(
        "paths", nargs="*", type=Path,
        help=(
            "files or directories to analyze (default: the repro "
            "protocol packages)"
        ),
    )
    qlint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (default: text)",
    )
    qlint.add_argument(
        "--select", action="append", metavar="RULE",
        help="only report these rule ids (repeatable, e.g. --select QD001)",
    )
    qlint.add_argument(
        "--list-rules", action="store_true",
        help="list every rule id with a one-line summary and exit",
    )
    qlint.add_argument(
        "--baseline", type=Path, metavar="FILE",
        help="baseline file of accepted findings "
        "(default: <repo>/qlint-baseline.json)",
    )
    qlint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report accepted findings too",
    )
    qlint.add_argument(
        "--stats", action="store_true",
        help="print the findings/suppression summary as JSON and exit "
        "(non-gating: exit code reflects findings as usual)",
    )
    qlint.add_argument(
        "--output", type=Path, metavar="FILE",
        help="write the report/stats to FILE as well as stdout",
    )

    serve = command(
        "serve", _cmd_serve, "live runtime: run one protocol node over TCP",
        description="Run one live protocol node from a cluster spec.",
    )
    serve.add_argument("--spec", required=True, help="cluster JSON path")
    serve.add_argument(
        "--node", required=True, help="node name, e.g. storage-0"
    )

    cluster = command(
        "cluster", _cmd_cluster,
        "live runtime: spawn a local multi-process cluster",
        "--replicas", "--proxies", "--seed",
        description="Spawn a local live cluster (one process per node).",
    )
    cluster.add_argument(
        "--write-quorum", type=int, default=3,
        help="initial global write quorum W (R from QuorumConfig.from_write)",
    )
    cluster.add_argument(
        "--lease-duration", type=float, default=0.0,
        help=(
            "per-object read lease duration in seconds; > 0 enables "
            "leases cluster-wide: writes require the primary's ack and "
            "proxies may serve reads from it alone (default 0 = off)"
        ),
    )
    cluster.add_argument(
        "--shards", type=int, default=1,
        help=(
            "independent shards; --replicas/--proxies are per shard "
            "and each shard gets its own reconfiguration manager "
            "(default 1 = the classic single-ring cluster)"
        ),
    )
    cluster.add_argument(
        "--duration", type=float, default=0.0,
        help="run this many seconds then shut down (0 = until Ctrl-C)",
    )

    loadgen = command(
        "loadgen", _cmd_loadgen,
        "live runtime: benchmark a running cluster (BENCH_net.json)",
        "--clients", "--workload", "--object-size", "--objects",
        "--duration", "--depth", "--phase", "--seed",
        description=(
            "Live benchmark against a running cluster (--spec): one "
            "timed phase per --phase W, with a live reconfiguration "
            "between phases.  Or, with --shards N, the self-contained "
            "scale-out benchmark, which boots its own clusters."
        ),
        clients=8, duration=5.0, seed=1, replicas_given=False,
    )
    # _cmd_loadgen's mode checks exit 2 with loadgen's usage, as argparse does.
    loadgen.set_defaults(error=loadgen.error)
    mode = loadgen.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--spec", default=None,
        help="cluster JSON written by `python -m repro cluster`",
    )
    mode.add_argument(
        "--shards", type=_shards, default=0,
        help=(
            "run the scale-out benchmark with this many shards: "
            "single-ring reference, fleet load, and a concurrent "
            "two-shard reconfiguration storm; writes "
            "BENCH_net_scaleout.json"
        ),
    )
    loadgen.add_argument(
        "--replicas", type=int, default=5, action=_Given,
        help="replicas per shard (--shards only)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=0.0,
        help=(
            "open-loop injection rate per client, ops/sec "
            "(0 = closed loop, the default)"
        ),
    )
    loadgen.add_argument(
        "--output", default=None,
        help=(
            "report path (default BENCH_net.json, or "
            "BENCH_net_scaleout.json with --shards)"
        ),
    )

    command(
        "livesmoke", _cmd_livesmoke,
        "live runtime: end-to-end CI smoke (boot, load, reconfigure)",
        "--replicas", "--proxies", "--seed", "--clients", "--workload",
        "--duration", "--phase", "--depth",
        description="CI smoke: boot cluster, load, reconfigure, verify.",
        seed=1,
    )

    livechaos = command(
        "livechaos", _cmd_livechaos,
        (
            "live runtime: crash-recovery gate (WAL-backed cluster, "
            "kill -9 cycles under load, durability + linearizability)"
        ),
        "--replicas", "--proxies", "--seed", "--clients", "--workload",
        "--objects", "--duration", "--depth",
        description=(
            "Crash-recovery gate: WAL-backed cluster, seeded kill -9 / "
            "restart cycles under load across a W=4 -> W=2 "
            "reconfiguration, then a read-back durability sweep and a "
            "full linearizability check."
        ),
        seed=1, objects=32, duration=6.0,
    )
    livechaos.add_argument(
        "--cycles", type=int, default=3,
        help="kill -9 -> restart cycles across the run (default 3)",
    )
    livechaos.add_argument(
        "--output", default="BENCH_net_chaos.json",
        help="report path (default BENCH_net_chaos.json)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
