"""The one run report: merged histograms and every harness's verdicts.

The pinning test encodes the exact failure the old reporting had: a fast
phase and a slow phase whose *averaged* p99s land nowhere near the p99
of the combined distribution.  Merging the histograms (bucket counts
add) reproduces the union's percentiles exactly.
"""

from __future__ import annotations

import os

from repro.net.loadgen import (
    LoadgenResult,
    PhaseResult,
    ShardOutcome,
    merged_latency_summary,
)
from repro.net.scaleout import ScaleoutReport, available_cores
from repro.net.smoke import REQUIRED_METRICS, SmokeReport
from repro.obs.metrics import Histogram


def hist_of(samples) -> Histogram:
    histogram = Histogram()
    for value in samples:
        histogram.observe(value)
    return histogram


FAST = [0.001] * 1000          # a healthy steady-state phase
SLOW = [0.5] * 20              # a short, degraded phase


def phase(name: str, samples, **kwargs) -> PhaseResult:
    snapshot = hist_of(samples).snapshot()
    return PhaseResult(
        name=name,
        write_quorum=3,
        duration=1.0,
        operations=len(samples),
        ops_per_sec=float(len(samples)),
        failed=0,
        retries=0,
        latencies={"read": snapshot.as_dict(), "write": {"count": 0}},
        snapshots={"read": snapshot},
        **kwargs,
    )


class TestMergedLatencySummary:
    def test_merge_equals_union_and_averaging_is_pinned_wrong(self) -> None:
        union = hist_of(FAST + SLOW).snapshot()
        merged = merged_latency_summary(
            [hist_of(FAST).snapshot(), hist_of(SLOW).snapshot()]
        )
        # The merge IS the union distribution.
        assert merged["count"] == union.count == 1020
        assert merged["p99"] == round(union.percentile(0.99), 6)
        assert merged["mean"] == round(union.mean, 6)
        assert merged["max"] == union.maximum

        # The wrong-under-averaging case this satellite pins: ~2% of
        # union samples are slow, so the union p99 sits in the slow
        # tail, while the average of the two phases' p99s lands in the
        # no-man's-land between the modes.
        fast_p99 = hist_of(FAST).percentile(0.99)
        slow_p99 = hist_of(SLOW).percentile(0.99)
        averaged = (fast_p99 + slow_p99) / 2
        assert union.percentile(0.99) > 0.25
        assert abs(averaged - union.percentile(0.99)) > 0.1

    def test_merge_is_order_independent(self) -> None:
        forward = merged_latency_summary(
            [hist_of(FAST).snapshot(), hist_of(SLOW).snapshot()]
        )
        backward = merged_latency_summary(
            [hist_of(SLOW).snapshot(), hist_of(FAST).snapshot()]
        )
        assert forward == backward

    def test_empty_snapshots_are_ignored(self) -> None:
        assert merged_latency_summary([]) == {"count": 0}
        assert merged_latency_summary([Histogram().snapshot()]) == {
            "count": 0
        }
        live = merged_latency_summary(
            [Histogram().snapshot(), hist_of(FAST).snapshot()]
        )
        assert live["count"] == len(FAST)


def outcomes(*verdicts) -> list:
    """One :class:`ShardOutcome` per ``(records, linearizable)``."""
    return [
        ShardOutcome(f"shard-{index}", records, linearizable)
        for index, (records, linearizable) in enumerate(verdicts)
    ]


class TestLoadgenResultAggregate:
    def make_result(self, **kwargs) -> LoadgenResult:
        defaults = dict(
            phases=[phase("fast", FAST), phase("slow", SLOW)],
            reconfig_seconds=None,
            shard_outcomes=outcomes((1020, True)),
        )
        defaults.update(kwargs)
        return LoadgenResult(**defaults)

    def test_aggregate_latencies_merge_across_phases(self) -> None:
        aggregate = self.make_result().aggregate_latencies()
        union = hist_of(FAST + SLOW).snapshot()
        assert aggregate["read"]["count"] == 1020
        assert aggregate["read"]["p99"] == round(
            union.percentile(0.99), 6
        )
        # No write samples anywhere -> explicit empty summary, and the
        # "all" roll-up equals the read-only distribution.
        assert aggregate["write"] == {"count": 0}
        assert aggregate["all"] == aggregate["read"]

    def test_as_dict_carries_the_aggregate_and_shard_verdicts(self) -> None:
        result = self.make_result(
            shard_outcomes=outcomes((600, True), (420, True))
        )
        payload = result.as_dict()
        assert payload["ok"] is True
        assert payload["aggregate_latency_s"]["read"]["count"] == 1020
        assert payload["history_records"] == 1020
        assert [s["shard"] for s in payload["shard_outcomes"]] == [
            "shard-0", "shard-1",
        ]

    def test_unsharded_report_keeps_its_shape(self) -> None:
        # One implicit shard-0: the top-level verdict fields describe it
        # and no per-shard list is written.
        payload = self.make_result().as_dict()
        assert "shard_outcomes" not in payload
        assert payload["linearizable"] is True

    def test_per_shard_failures_are_problems(self) -> None:
        result = self.make_result(
            shard_outcomes=outcomes((600, False), (420, None))
        )
        problems = result.problems()
        assert any("shard-0: history is not" in p for p in problems)
        assert any("shard-1: linearizability unverified" in p
                   for p in problems)
        assert result.linearizable is False
        assert result.as_dict()["ok"] is False

    def test_failed_operations_are_problems(self) -> None:
        slow = phase("slow", SLOW)
        slow.failed = 3
        result = self.make_result(phases=[phase("fast", FAST), slow])
        assert result.problems() == [
            "phase slow: 3 client operations failed"
        ]

class TestSmokeVerdicts:
    SAMPLES = {
        f'{family}{{node="proxy-0"}}': 1.0 for family in REQUIRED_METRICS
    }

    def make_result(self, linearizable=True, scrapes=None) -> LoadgenResult:
        return LoadgenResult(
            phases=[phase("W=4", FAST), phase("W=2", FAST)],
            reconfig_seconds=0.1,
            shard_outcomes=outcomes((2000, linearizable)),
            checks=SmokeReport(
                scrapes=scrapes if scrapes is not None
                else {"proxy-0": dict(self.SAMPLES)}
            ),
        )

    def test_clean_run_passes(self) -> None:
        result = self.make_result()
        assert result.problems() == []
        text = result.render()
        assert text.startswith("live-smoke:")
        assert "scrapes: 1 endpoints ok" in text
        assert "all checks passed" in text

    def test_unverified_history_fails_the_smoke_run(self) -> None:
        # The search budget ran out: "not refuted" is not "verified".
        result = self.make_result(linearizable=None)
        assert any(
            "linearizability unverified" in p for p in result.problems()
        )

    def test_missing_metric_family_fails(self) -> None:
        family = REQUIRED_METRICS[-1]
        samples = {
            series: value
            for series, value in self.SAMPLES.items()
            if not series.startswith(family)
        }
        # A family that merely shares the prefix does not count.
        samples[f'{family}_extra{{node="proxy-0"}}'] = 1.0
        result = self.make_result(scrapes={"proxy-0": samples})
        assert result.problems() == [f"proxy-0: /metrics missing {family}"]


class TestScaleoutReport:
    def fleet(self, **kwargs) -> LoadgenResult:
        phases = [
            phase(
                name,
                FAST,
                shard_operations={"shard-0": 500, "shard-1": 520},
            )
            for name in ("pre-reconfig", "reconfig-storm", "post-reconfig")
        ]
        defaults = dict(
            phases=phases,
            reconfig_seconds=0.4,
            shard_outcomes=outcomes((1500, True), (1560, True)),
        )
        defaults.update(kwargs)
        return LoadgenResult(**defaults)

    def single_ring(self, samples=FAST, **kwargs) -> LoadgenResult:
        return LoadgenResult(
            phases=[phase("single-ring", samples)],
            reconfig_seconds=None,
            shard_outcomes=outcomes((len(samples), True)),
            **kwargs,
        )

    def make_report(self, **kwargs) -> ScaleoutReport:
        defaults = dict(
            shards=2,
            cores=available_cores(),
            single_ring=self.single_ring(),
            reconfig_seconds={"shard-0": 0.2, "shard-1": 0.2},
            route_refreshes=2,
        )
        defaults.update(kwargs)
        return ScaleoutReport(**defaults)

    def make_result(self, fleet=None, **kwargs) -> LoadgenResult:
        result = fleet if fleet is not None else self.fleet()
        result.checks = self.make_report(**kwargs)
        return result

    def test_speedup_and_expected_scaling(self) -> None:
        report = self.make_report(cores=8)
        assert report.speedup(self.fleet()) == 1.0
        assert report.expected_scaling == 2
        assert self.make_report(cores=1).expected_scaling == 1
        idle = self.make_report(single_ring=self.single_ring(samples=[]))
        assert idle.speedup(self.fleet()) is None

    def test_ok_report_has_no_problems(self) -> None:
        result = self.make_result()
        assert result.problems() == []
        payload = result.as_dict()
        assert payload["ok"] is True
        assert payload["shards"] == 2
        assert [s["shard"] for s in payload["shard_outcomes"]] == [
            "shard-0", "shard-1",
        ]
        assert payload["route_refreshes"] == 2
        assert payload["reconfig_seconds"] == 0.4
        assert payload["single_ring"]["name"] == "single-ring"
        assert payload["aggregate_latency_s"]["read"]["count"] == 3000
        assert "speedup" in payload and "cores" in payload

    def test_incomplete_storm_is_a_problem(self) -> None:
        result = self.make_result(reconfig_seconds={"shard-0": 0.2})
        assert any("storm" in p for p in result.problems())

    def test_starved_shard_is_a_problem(self) -> None:
        fleet = self.fleet()
        fleet.phases[1].shard_operations["shard-1"] = 0
        result = self.make_result(fleet=fleet)
        assert any(
            "shard shard-1 completed zero operations" in p
            for p in result.problems()
        )
        assert result.as_dict()["ok"] is False

    def test_unclean_worker_exit_fails_the_run(self) -> None:
        # A fleet worker that crashed mid-run, or exited non-zero at
        # shutdown, fails the scale-out run ...
        result = self.make_result(
            fleet=self.fleet(
                exit_codes={"storage-3": 1}, dead_workers=["proxy-1"]
            )
        )
        assert "storage-3 exited with code 1" in result.problems()
        assert "proxy-1 died during the run" in result.problems()
        assert "exits: [('storage-3', 1)]" in result.render()
        # ... and so does one of the single-ring reference.
        result = self.make_result(
            single_ring=self.single_ring(exit_codes={"storage-0": -11})
        )
        assert result.problems() == [
            "single-ring: storage-0 exited with code -11"
        ]
        assert result.as_dict()["ok"] is False

    def test_render_mentions_each_shard(self) -> None:
        text = self.make_result().render()
        assert text.startswith("scaleout:")
        assert "shard-0" in text and "shard-1" in text
        assert "speedup" in text


def test_available_cores_is_positive() -> None:
    assert available_cores() >= 1
    assert available_cores() <= (os.cpu_count() or 1)
