"""Real-payload operation source.

The stock workloads write a ~20-byte token and only *model* the object
size, so no live bench ever moved real bytes through the codec, TCP or
the WAL.  :class:`PaddedSource` pads each write value to ``object_size``
real bytes behind its unique token; :func:`token_of` recovers the token,
which is all a history needs (keeping 32 KiB values would grow the
loadgen's RSS by ~1 GB over one run).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from repro.common.types import NodeId, OpType
from repro.net.codec import encode_frame
from repro.sds.client import OperationRecord
from repro.sds.messages import ClientWrite
from repro.sim.network import Envelope
from repro.workloads.base import Operation
from repro.workloads.generator import SyntheticWorkload, WorkloadSpec

#: Ends the token; never part of one (tokens are ``<object>#<n>``).
SEPARATOR = b"|"


class PaddedSource:
    """YCSB-style operation stream whose writes carry real bytes."""

    def __init__(
        self,
        write_ratio: float,
        object_size: int,
        objects: int,
        skew: float,
        seed: int,
    ) -> None:
        self.object_size = object_size
        self._inner = SyntheticWorkload(
            WorkloadSpec(
                write_ratio=write_ratio,
                object_size=object_size,
                num_objects=objects,
                skew=skew,
                name="obj",
            ),
            seed=seed,
        )
        self._padding = random.Random(seed).randbytes(object_size)

    def next_operation(self, rng: random.Random) -> Operation:
        operation = self._inner.next_operation(rng)
        if operation.op_type is not OpType.WRITE:
            return operation
        head = operation.value + SEPARATOR
        return Operation(
            object_id=operation.object_id,
            op_type=operation.op_type,
            size=operation.size,
            value=head + self._padding[: self.object_size - len(head)],
        )


def token_of(value: Optional[bytes]) -> Optional[bytes]:
    """The unique token of a (possibly padded) value."""
    if value is None:
        return None
    return value.partition(SEPARATOR)[0]


def compact(record: OperationRecord) -> OperationRecord:
    """The record with its value cut down to the token."""
    return replace(record, value=token_of(record.value))


def check_wire_size(source: PaddedSource, seed: int) -> int:
    """Frame size of one encoded ``ClientWrite`` from ``source``.

    Raises if the frame is smaller than the stated object size — the
    distortion this source exists to remove.
    """
    rng = random.Random(seed)
    while True:
        operation = source.next_operation(rng)
        if operation.op_type is OpType.WRITE:
            break
    frame = encode_frame(
        Envelope(
            sender=NodeId.client(0),
            recipient=NodeId.proxy(0),
            payload=ClientWrite(
                object_id=operation.object_id,
                value=operation.value,
                size=operation.size,
                request_id=1,
            ),
            size=operation.size,
        )
    )
    if len(frame) < source.object_size:
        raise AssertionError(
            f"encoded ClientWrite is {len(frame)} bytes, below the stated "
            f"object size {source.object_size}"
        )
    return len(frame)
