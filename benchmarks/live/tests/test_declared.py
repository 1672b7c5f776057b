"""What the code reports is exactly what BENCHMARK.json declares."""

import json
import os
import re

import pytest

from repro.common.types import NodeId, OpType
from repro.sds.client import OperationRecord

import run
from livebench import drivers, live, settings, tracing
from test_trace import read_op

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKERS = [f"storage-{i}" for i in range(5)] + ["proxy-0", "reconfig-manager-0"]


@pytest.fixture(scope="module")
def declared():
    return run.declared()


def fake_live_result() -> live.LiveResult:
    """A 10 s phase: 1000 reads + 1000 writes, known CPU per role."""
    records = []
    for index in range(2000):
        done = 100.0 + index * 0.005
        records.append(OperationRecord(
            client=NodeId.client(0),
            object_id="obj-000001",
            op_type=OpType.READ if index % 2 else OpType.WRITE,
            invoked_at=done - (0.004 if index % 2 else 0.008),
            completed_at=done,
            value=b"obj-000001#1",
        ))
    spent = {"storage": 0.3, "proxy": 2.0, "reconfig-manager": 0.01}

    def edge(at: float, scale: float) -> live.Boundary:
        cpu = {"loadgen": 5.0 + 1.0 * scale}
        for worker in WORKERS:
            cpu[worker] = 1.0 + spent[worker.rpartition("-")[0]] * scale
        return live.Boundary(
            at=at,
            cpu=cpu,
            rss={worker: 50e6 for worker in WORKERS},
            metrics={
                worker: {
                    'qopt_kernel_events_total{node="x"}': 1000.0 * scale,
                    'qopt_transport_messages_total{direction="sent"}': 400.0 * scale,
                    'qopt_transport_messages_total{direction="delivered"}': 9e9,
                }
                for worker in WORKERS
            },
            flushes=int(100 * scale),
            frames_flushed=int(450 * scale),
        )

    first, last = edge(100.0, 0.0), edge(110.0, 1.0)
    return live.LiveResult(
        defn=settings.BY_NAME["a_retune"],
        phase=live.PhaseStats.of(records, first.at, last.at, 5.0),
        first=first,
        last=last,
        boots=[1.9, 1.2, 1.3],
        reconfigs=[0.105, 0.101, 0.110, 0.104],
        attempted=2000,
        failed=0,
        disk_bytes=12_000_000,
        check_wall_s=0.5,
        check_records=3000,
        problems=[],
    )


def test_end_to_end_arithmetic():
    metrics = {k: v for k, (v, _) in fake_live_result().end_to_end().items()}
    assert metrics["ops_per_s"] == pytest.approx(200.0)
    assert metrics["read_p50_ms"] == pytest.approx(4.0)
    assert metrics["write_p50_ms"] == pytest.approx(8.0)
    # 5 x 0.3 + 2.0 + 0.01 + 1.0 CPU seconds over 2000 operations.
    assert metrics["cpu_ms_per_op"] == pytest.approx(4.51 / 2000 * 1e3)
    assert metrics["rss_mb"] == pytest.approx(350.0)
    assert metrics["setup_s"] == pytest.approx(1.3)


def test_first_level_cpu_terms_sum_to_the_whole():
    result = fake_live_result()
    layers = {k: v for k, (v, _) in result.layers().items()}
    total = sum(
        layers[f"{role}.cpu_ms_per_op"]
        for role in ("proxy", "storage", "loadgen", "manager")
    )
    assert total == pytest.approx(result.end_to_end()["cpu_ms_per_op"][0])
    assert layers["op_p99_ms"] == pytest.approx(8.0)
    assert layers["proxy.cpu_share"] == pytest.approx(0.2)
    assert layers["storage.cpu_share_max"] == pytest.approx(0.03)
    assert layers["total.cpu_share"] == pytest.approx(0.451)
    assert layers["harness_limited"] == 0.0
    assert layers["proxy.kernel_events_per_op"] == pytest.approx(0.5)
    assert layers["storage.msgs_sent_per_op"] == pytest.approx(1.0)
    assert layers["loadgen.frames_per_flush"] == pytest.approx(4.5)
    assert layers["reconfig.count"] == 4.0
    assert layers["reconfig.change_ms_p50"] == pytest.approx(104.5)


def test_mechanism_gate_fires():
    result = fake_live_result()
    assert result.mechanism_problems() == []
    result.reconfigs = result.reconfigs[:3]  # needs int(0.4 x 10 s) = 4
    assert any("reconfigurations" in p for p in result.mechanism_problems())
    result.defn = settings.BY_NAME["b_r4_lease"]
    assert any("lease.hit_ratio" in p for p in result.mechanism_problems())
    result.defn = settings.BY_NAME["c_w4_32k"]
    problems = result.mechanism_problems()
    assert any("snapshot" in p for p in problems)
    assert any("storage CPU" in p for p in problems)


def test_benchmark_json_shape(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/live"]
    assert declared["command"] == ["python3", "benchmarks/live/run.py"]
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    assert declared["run_seconds"] % settings.WINDOW_S == 0
    assert [w["name"] for w in declared["workloads"]] == [
        defn.name for defn in settings.WORKLOADS
    ]
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == settings.BY_NAME[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [
        m["name"]
        for m in declared["workloads"] + declared["end_to_end"]
        + declared["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    size = os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_reported_names_and_units_equal_the_declared_set(declared):
    result = fake_live_result()
    end_to_end = result.end_to_end()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()
    }
    recorder = tracing.SeamRecorder(kernel=None)
    read_op(recorder, 1, 0, gather=7)
    inproc = tracing.InprocResult(
        phase=result.phase,
        attempted=1,
        failed=0,
        problems=[],
        trace=tracing.build_trace(recorder, 0, 10_000),
    )
    defn = settings.BY_NAME["b_r4"]
    layers = run.compose_layers(
        result, inproc, inproc, drivers.run_drivers(defn, 1, {})
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
    assert not set(end_to_end) & set(layers)
    json.dumps(layers)  # every value is a plain number
