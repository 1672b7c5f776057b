"""Cancelling a timer must never perturb a seeded simulation.

``wait_for`` cancels the losing timer of every gather, lease read,
client attempt and NEWEP retransmit wait.  Under the live kernel that
frees the loop's heap entry; under the simulator it must change
*nothing* — the entry still pops at its instant and resolves a timer
nobody listens to.  The figures below were recorded on the commit
before cancellable timers existed (``any_of([f, sim.sleep(t)])`` at all
five sites), on a schedule that takes every timeout branch: attempt
timeouts, gather deadlines, lease-read fallbacks and NEWEP retransmits.
A drift in any of them means cancellation leaked into event order.

The traced case pins the span tree of the same schedule with tracing
on: span count plus the sha256 of the deterministic trace export,
recorded on the commit before the data-plane lifecycle fold (one
client-operation handler, one gather step, spans never ``None``).  A
drift means a refactor moved, dropped or re-parented a span.

Wall time: ~1.5 s untraced, ~2 s traced.
"""

from __future__ import annotations

import hashlib

from repro.obs.context import Observability
from repro.obs.exporters import to_trace_json
from tests.chaos.conftest import build_chaos_stack

EVENTS_PROCESSED = 95147
HISTORY_RECORDS = 3326
SIGNATURE = "d5b2741d74bc115f69cd4955e0d5c94ffb37f7d241edabc106ac3852a1f7bc0b"

TRACED_SPANS = 15691
TRACE_SIGNATURE = (
    "8754a7cb1cb0bdceca9092f6cd9e2c4d5918086fc7afb66bfebab0c65b2c8891"
)


def run_pin(cluster, records) -> tuple[int, int, str]:
    """(kernel events, record count, sha256 of events + history): a
    seeded run's fingerprint, byte-identical across refactors."""
    digest = hashlib.sha256()
    digest.update(repr(cluster.events.signature()).encode())
    digest.update(
        repr(
            [
                (
                    r.client, r.object_id, r.op_type, r.invoked_at,
                    r.completed_at, r.value, r.stamp,
                )
                for r in records
            ]
        ).encode()
    )
    return cluster.sim.events_processed, len(records), digest.hexdigest()


def run_isolation_schedule(obs: Observability | None = None):
    """Seed 142, 1.5 s leases, two replicas isolated over [1, 2] s."""
    cluster, system, checker, nemesis = build_chaos_stack(
        142, write_ratio=0.2, lease_duration=1.5, obs=obs
    )
    storage = [node.node_id for node in cluster.storage_nodes]
    nemesis.schedule_isolation(1.0, 2.0, storage[:2])
    cluster.run(5.0)
    return cluster, system, checker


def test_seeded_run_is_byte_identical_to_pre_cancellation_parent() -> None:
    cluster, system, checker = run_isolation_schedule()

    # The schedule really did walk the timeout branches.
    assert sum(c.attempt_timeouts for c in cluster.clients) == 2
    assert sum(p.gather_timeouts for p in cluster.proxies) == 13
    assert sum(p.lease_read_misses for p in cluster.proxies) == 403
    assert system.reconfiguration_manager.retransmissions == 2

    assert run_pin(cluster, checker.records) == (
        EVENTS_PROCESSED,
        HISTORY_RECORDS,
        SIGNATURE,
    )


def test_traced_run_span_tree_is_pinned() -> None:
    obs = Observability(tracing=True)
    run_isolation_schedule(obs)
    trace = to_trace_json(obs.tracer).encode()
    assert (
        len(obs.tracer.spans),
        hashlib.sha256(trace).hexdigest(),
    ) == (TRACED_SPANS, TRACE_SIGNATURE)
