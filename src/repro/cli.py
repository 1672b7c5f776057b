"""Command-line interface: run any experiment without pytest.

``python -m repro <command>`` regenerates a paper figure or claim and
prints its table.  Commands map 1:1 onto the harness regenerators
(DESIGN.md's E1-E8); ``--fast`` trades precision for runtime by
shrinking simulation durations.

Each handler imports its harness on use: every ``python -m repro serve``
worker passes through this module on its way to :mod:`repro.net.cli`,
and the harness drags in the analysis model, the Oracle and numpy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro.common.config import ClusterConfig


def _cmd_figure2(args: argparse.Namespace) -> str:
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


COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], str], str]] = {
    "figure2": (_cmd_figure2, "E1: Figure 2 — throughput per quorum config"),
    "figure3": (_cmd_figure3, "E2: Figure 3 — optimal W vs write %%"),
    "tuning-impact": (_cmd_tuning_impact, "E3: up-to-5x tuning impact"),
    "oracle-accuracy": (_cmd_oracle, "E4: oracle cross-validation"),
    "qopt-vs-static": (_cmd_qopt_vs_static, "E5: Q-OPT vs static configs"),
    "reconfig-overhead": (
        _cmd_reconfig_overhead,
        "E6: reconfiguration throughput dip (+ stop-the-world ablation)",
    ),
    "dynamic": (_cmd_dynamic, "E7: adaptation to a workload switch"),
    "per-object": (_cmd_per_object, "E8: per-object vs global tuning"),
    "predict": (_cmd_predict, "MVA throughput prediction for one workload"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Q-OPT reproduction: regenerate the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--fast",
            action="store_true",
            help="shrink simulation durations for a quick look",
        )
        if name == "predict":
            sub.add_argument("--write-ratio", type=float, default=0.5)
            sub.add_argument("--object-size", type=int, default=64 * 1024)
            sub.add_argument("--clients", type=int, default=50)
    subparsers.add_parser(
        "qlint",
        help="protocol-invariant static analysis (see python -m repro.qlint)",
        add_help=False,
    )
    subparsers.add_parser(
        "bench",
        help="observability perf harness (see python -m repro bench --help)",
        add_help=False,
    )
    subparsers.add_parser(
        "serve",
        help="live runtime: run one protocol node over TCP",
        add_help=False,
    )
    subparsers.add_parser(
        "cluster",
        help="live runtime: spawn a local multi-process cluster",
        add_help=False,
    )
    subparsers.add_parser(
        "loadgen",
        help="live runtime: benchmark a running cluster (BENCH_net.json)",
        add_help=False,
    )
    subparsers.add_parser(
        "livesmoke",
        help="live runtime: end-to-end CI smoke (boot, load, reconfigure)",
        add_help=False,
    )
    subparsers.add_parser(
        "livechaos",
        help=(
            "live runtime: crash-recovery gate (WAL-backed cluster, "
            "kill -9 cycles under load, durability + linearizability)"
        ),
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "qlint":
        # Forwarded wholesale: ``python -m repro qlint ...`` is the same
        # tool as ``python -m repro.qlint ...``.
        from repro.qlint.cli import main as qlint_main

        return qlint_main(arguments[1:])
    if arguments and arguments[0] == "bench":
        # Forwarded wholesale: the bench harness owns its own flags
        # (--quick/--output/--baseline/--trace).
        from repro.obs.bench import main as bench_main

        return bench_main(arguments[1:])
    if arguments:
        # Live-runtime commands own their own flags too.
        from repro.net.cli import dispatch as net_dispatch

        outcome = net_dispatch(arguments[0], arguments[1:])
        if outcome is not None:
            return outcome
    args = build_parser().parse_args(arguments)
    handler, _help = COMMANDS[args.command]
    print(handler(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
