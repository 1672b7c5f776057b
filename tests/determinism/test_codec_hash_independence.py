"""Wire encodings must be byte-identical across PYTHONHASHSEED values.

The live runtime ships frames between *separately started* processes,
each with its own hash seed.  Any hash-order leak in the codec (dict or
frozenset iteration feeding the byte stream) would make the same
message encode differently on each side — invisible in one process,
fatal between two.  The codec sorts container items by their encoded
bytes precisely to kill this class of bug; these subprocess tests keep
it dead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any

import pytest

#: The child builds hash-order-sensitive values (dict- and frozenset-
#: heavy, including a RoundStats with a populated top-k map and a
#: QuorumPlan with overrides) and prints their encodings as hex.
_CHILD_SCRIPT = """
import json
from repro.common.types import NodeId, QuorumConfig, VersionStamp
from repro.net.codec import encode_frame, encode_value
from repro.sds.messages import NewTopK, RoundStats, ObjectStats, AggregateStats
from repro.sds.quorum import QuorumPlan
from repro.sim.network import Envelope

plan = QuorumPlan.uniform(QuorumConfig(read=2, write=4)).with_overrides(
    {f"obj-{i}": QuorumConfig(read=4, write=2) for i in range(12)}
)
stats = RoundStats(
    round_no=3,
    proxy=NodeId.proxy(1),
    top_k={f"hot-{i}": 100 - i for i in range(16)},
    stats_top_k=tuple(
        ObjectStats(object_id=f"hot-{i}", reads=i, writes=2 * i,
                    mean_size=64.0 * i)
        for i in range(4)
    ),
    stats_tail=AggregateStats(reads=7, writes=9, mean_size=512.0),
    throughput=123.5,
)
topk = NewTopK(round_no=4, object_ids=frozenset(f"hot-{i}" for i in range(16)))
frame = encode_frame(Envelope(
    sender=NodeId.proxy(1),
    recipient=NodeId.storage(2),
    payload=stats,
    size=4096,
    sent_at=1.25,
))
print(json.dumps({
    "plan": encode_value(plan).hex(),
    "stats": encode_value(stats).hex(),
    "topk": encode_value(topk).hex(),
    "frame": frame.hex(),
}))
"""


#: Warms the codec's NodeId caches (decode interning and encoded bytes)
#: in the order given by ``sys.argv[1]``, then encodes fixed envelopes
#: whose endpoints are fresh, decoded (interned) and reused NodeIds.
_WARM_CACHES_SCRIPT = """
import json, sys
from repro.common.types import NodeId, Version, VersionStamp
from repro.net.codec import decode_frame_body, encode_frame
from repro.sds.messages import ClientRead, ReplicaReadReply
from repro.sim.network import Envelope

nodes = [NodeId.proxy(i) for i in range(3)] + [
    NodeId.storage(i) for i in range(5)
] + [NodeId.client(i) for i in range(200, 203)]
if sys.argv[1] == "reverse":
    nodes.reverse()
for sender in nodes:
    for recipient in nodes:
        frame = encode_frame(Envelope(sender, recipient, ClientRead("w", 1)))
        decode_frame_body(frame[4:])


def envelopes(pick):
    version = Version(b"v" * 64, VersionStamp(2.5, "proxy-1"), 3, 64)
    for index in range(5):
        replica = pick(NodeId.storage(index))
        yield Envelope(
            replica,
            pick(NodeId.proxy(1)),
            ReplicaReadReply("obj-7", version, 900 + index, replica),
            size=4096,
            sent_at=1.5,
        )


def decoded(node):
    frame = encode_frame(Envelope(node, node, None))
    return decode_frame_body(frame[4:]).sender


frames = [encode_frame(e) for e in envelopes(lambda node: node)]
frames += [encode_frame(e) for e in envelopes(decoded)]
frames += [encode_frame(decode_frame_body(f[4:])) for f in frames[:5]]
print(json.dumps([frame.hex() for frame in frames]))
"""


def _run_child(
    hash_seed: str, script: str = _CHILD_SCRIPT, *args: str
) -> Any:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.slow
def test_encodings_identical_across_hash_seeds() -> None:
    baseline = _run_child("0")
    assert all(baseline.values())
    for other_seed in ("1", "12345"):
        assert _run_child(other_seed) == baseline


@pytest.mark.slow
def test_encodings_identical_across_warm_caches() -> None:
    """The NodeId caches fill in whatever order traffic arrives; which
    entries exist, and in what hash order, must never reach the bytes."""
    forward = _run_child("0", _WARM_CACHES_SCRIPT, "forward")
    backward = _run_child("4242", _WARM_CACHES_SCRIPT, "reverse")
    assert len(forward) == 15
    assert forward == backward
    assert len(set(forward[:5])) == 5
    assert forward[:5] == forward[5:10] == forward[10:]
