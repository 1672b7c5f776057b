"""End-to-end live smoke test: boot, load, reconfigure, scrape, verify.

``python -m repro livesmoke`` is what the CI ``live-smoke`` job runs:

1. boot an N-replica localhost cluster (real subprocesses, real TCP);
2. drive a short pipelined load burst at the initial write quorum;
3. force one live global reconfiguration and keep loading;
4. scrape every node's Prometheus endpoint;
5. shut the cluster down gracefully.

It fails (non-zero exit) on anything the run report fails on — a failed
operation, an unverified or non-linearizable history, a dead worker or
an unclean exit — and when a metrics scrape is missing an expected
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    HarnessChecks,
    LoadGenerator,
    LoadgenResult,
    Samples,
    metric_value,
    run_live,
)
from repro.net.spec import build_spec

#: Metric families every node's /metrics scrape must contain.
REQUIRED_METRICS = (
    "qopt_transport_messages_total",
    "qopt_kernel_events_total",
)


@dataclass
class SmokeReport(HarnessChecks):
    """What the smoke run adds: every node exports the required families."""

    title = "live-smoke"

    #: Every node's parsed ``/metrics`` page, scraped after the load.
    scrapes: Dict[str, Samples]

    def verdicts(self, result: LoadgenResult) -> List[str]:
        del result
        return [
            f"{name}: /metrics missing {family}"
            for name, samples in sorted(self.scrapes.items())
            for family in REQUIRED_METRICS
            if metric_value(samples, family) is None
        ]

    def render_lines(self, result: LoadgenResult) -> List[str]:
        del result
        return [f"scrapes: {len(self.scrapes)} endpoints ok"]


async def run_smoke(
    replicas: int = 5,
    proxies: int = 1,
    write_quorums: Sequence[int] = (4, 2),
    duration: float = 2.0,
    clients: int = 4,
    workload: str = "a",
    seed: int = 1,
    pipeline_depth: int = 4,
) -> LoadgenResult:
    """Run the full smoke sequence; never leaves processes behind."""

    async def drive(
        generator: LoadGenerator, cluster: LocalCluster
    ) -> SmokeReport:
        del cluster
        await generator.run_quorum_phases(write_quorums, duration)
        return SmokeReport(scrapes=await generator.scrape())

    spec = build_spec(
        replicas=replicas,
        proxies=proxies,
        write_quorum=write_quorums[0],
        seed=seed,
    )
    return await run_live(
        spec,
        drive,
        clients=clients,
        workload=workload,
        objects=32,
        seed=seed,
        pipeline_depth=pipeline_depth,
    )


__all__ = ["run_smoke", "SmokeReport", "REQUIRED_METRICS"]
