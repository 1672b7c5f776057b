"""Padded values: real bytes on the wire, unique tokens in the history."""

import random

import pytest

from repro.common.types import NodeId, OpType
from repro.sds.client import OperationRecord

from livebench import live, settings
from livebench.payload import (
    PaddedSource,
    check_wire_size,
    compact,
    token_of,
)


@pytest.mark.parametrize("size", [4096, 32 * 1024])
def test_writes_are_padded_to_the_stated_size_and_unique(size):
    source = PaddedSource(0.5, size, settings.OBJECTS, settings.ZIPF, seed=3)
    rng = random.Random(3)
    values = []
    for _ in range(2000):
        operation = source.next_operation(rng)
        if operation.op_type is OpType.WRITE:
            assert len(operation.value) == size
            values.append(operation.value)
        else:
            assert operation.value == b""
    assert len(values) > 800
    tokens = {token_of(value) for value in values}
    assert len(tokens) == len(values)
    assert all(len(token) < 32 for token in tokens)


def test_same_seed_same_operations():
    def draw(seed):
        source = PaddedSource(0.5, 4096, 128, 0.99, seed=seed)
        rng = random.Random(seed)
        return [source.next_operation(rng) for _ in range(200)]

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_wire_frame_carries_the_bytes():
    for defn in settings.WORKLOADS:
        source = live.make_source(defn, seed=1)
        assert check_wire_size(source, 1) >= defn.object_size


def test_wire_check_catches_a_token_only_value():
    source = PaddedSource(1.0, 4096, 8, 0.0, seed=1)
    source._padding = b""  # what the stock workloads put on the wire
    with pytest.raises(AssertionError):
        check_wire_size(source, 1)


def test_history_keeps_only_the_token():
    record = OperationRecord(
        client=NodeId.client(0),
        object_id="obj-000001",
        op_type=OpType.WRITE,
        invoked_at=1.0,
        completed_at=2.0,
        value=b"obj-000001#7|" + bytes(4000),
    )
    assert compact(record).value == b"obj-000001#7"
    assert token_of(None) is None
    assert token_of(b"") == b""
