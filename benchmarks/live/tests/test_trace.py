"""Span arithmetic on a synthetic trace: self time, residual, matching."""

import pytest

from repro.common.types import NodeId

from livebench.tracing import (
    SeamRecorder,
    Span,
    build_trace,
    residual_ns,
    self_time_ns,
    summarise,
)

CLIENT = NodeId.client(0)
R0, R1 = NodeId.storage(0), NodeId.storage(1)


def span(start, end, name="x"):
    return Span(name, start, end, None, None)


def test_self_time_subtracts_the_union_of_children():
    parent = span(0, 100)
    assert self_time_ns(parent, []) == 100
    # Overlapping children count once; parts outside the parent do not.
    children = [span(10, 40), span(30, 60), span(90, 130), span(-20, 5)]
    assert self_time_ns(parent, children) == 100 - (50 + 10 + 5)
    assert self_time_ns(parent, [span(0, 100), span(20, 30)]) == 0


def test_residual_is_whole_minus_parts():
    assert residual_ns(span(0, 1000), [100, 250, 400]) == 250
    assert residual_ns(span(0, 10), [4, 4, 4]) == -2  # reported, not hidden


def read_op(rec, request_id, base, gather):
    """One read of two replicas; R1's reply completes the quorum."""
    op = (CLIENT, request_id)
    rec.op_start[op], rec.op_end[op] = base + 1000, base + 9000
    rec.op_kind[op] = "read"
    rec.sent[("c2p", CLIENT, request_id)] = base + 1100
    rec.delivered[("c2p", CLIENT, request_id)] = base + 1600
    for replica, stamps in (
        (R0, (2000, 2300, 2800, 3300)),
        (R1, (2050, 2500, 3500, 4000)),
    ):
        rec.gather_replicas[gather].append(replica)
        rec.sent[("p2s", replica, gather)] = base + stamps[0]
        rec.delivered[("p2s", replica, gather)] = base + stamps[1]
        rec.sent[("s2p", replica, gather)] = base + stamps[2]
        rec.delivered[("s2p", replica, gather)] = base + stamps[3]
    rec.gather_kind[gather] = "read"
    rec.final_gather[op] = gather
    rec.sent[("p2c", CLIENT, request_id)] = base + 4600
    rec.delivered[("p2c", CLIENT, request_id)] = base + 5200


def test_one_read_decomposes_exactly():
    rec = SeamRecorder(kernel=None)
    read_op(rec, 1, 0, gather=7)
    trace = build_trace(rec, 0, 10_000)
    assert (trace.operations, trace.unmatched) == (1, 0)
    (row,) = trace.rows["read"]
    assert row["op"] == 8000
    assert row["service"] == 3000
    # The two legs cover [2000, 4000] of the service interval.
    assert row["self"] == 1000
    assert (row["p2s"], row["storage"], row["s2p"]) == (450, 1000, 500)
    assert (row["c2p"], row["p2c"]) == (500, 600)
    assert row["residual"] == 8000 - (500 + 1000 + 450 + 1000 + 500 + 600)
    names = [s.name for s in trace.spans]
    assert names.count("client.op") == 1
    assert names.count("storage.service") == 2
    root = names.index("client.op")
    service = names.index("proxy.service")
    assert trace.spans[service].parent == root
    assert all(
        s.parent == service
        for s in trace.spans
        if s.name in ("hop.p2s", "storage.service", "hop.s2p")
    )
    assert {s.op for s in trace.spans} == {f"{CLIENT}#1"}


def test_summary_takes_medians_in_microseconds():
    rec = SeamRecorder(kernel=None)
    read_op(rec, 1, 0, gather=7)
    read_op(rec, 2, 20_000, gather=8)
    rec.op_end[(CLIENT, 2)] += 2000  # a slower client side on the second
    summary = summarise(build_trace(rec, 0, 100_000))
    assert summary["trace.op_us_p50.read"] == (pytest.approx(9.0), "us")
    assert summary["proxy.self_us_p50.read"] == (pytest.approx(1.0), "us")
    assert summary["hop.p2s_us_p50"] == (pytest.approx(0.375), "us")
    assert summary["storage.service_us_p50.read"] == (
        pytest.approx(0.75), "us"
    )
    assert summary["trace.op_us_p50.write"] == (0.0, "us")
    assert summary["trace.unmatched_share"] == (0.0, "ratio")


def test_broken_chains_are_counted_not_dropped():
    rec = SeamRecorder(kernel=None)
    read_op(rec, 1, 0, gather=7)
    read_op(rec, 2, 20_000, gather=8)
    del rec.delivered[("s2p", R1, 8)]  # a reply that never arrived
    read_op(rec, 3, 40_000, gather=9)
    rec.sent[("p2s", R0, 9)] = 40_000  # gather sent before its request
    trace = build_trace(rec, 0, 100_000)
    assert (trace.operations, trace.unmatched) == (3, 2)
    assert summarise(trace)["trace.unmatched_share"][0] == pytest.approx(2 / 3)


def test_operations_outside_the_phase_are_left_out():
    rec = SeamRecorder(kernel=None)
    read_op(rec, 1, 0, gather=7)
    read_op(rec, 2, 20_000, gather=8)
    assert build_trace(rec, 5_000, 100_000).operations == 1
    assert build_trace(rec, 0, 25_000).operations == 1


def test_write_is_tied_to_its_gather_by_token():
    rec = SeamRecorder(kernel=None)
    read_op(rec, 1, 0, gather=7)
    op = (CLIENT, 1)
    rec.op_kind[op] = "write"
    del rec.final_gather[op]
    rec.gather_kind[7] = "write"
    rec.write_token[op] = b"obj-000001#5"
    # An earlier NACKed gather and a later write-back of the same value.
    rec.write_gathers[b"obj-000001#5"] = [6, 7, 11]
    for gather, sent in ((6, 1700), (11, 7000)):
        rec.gather_replicas[gather].append(R0)
        rec.gather_kind[gather] = "write"
        rec.sent[("p2s", R0, gather)] = sent
    trace = build_trace(rec, 0, 10_000)
    assert (trace.operations, trace.unmatched) == (1, 0)
    assert trace.rows["write"][0]["self"] == 1000
