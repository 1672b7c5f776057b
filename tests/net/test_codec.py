"""Wire codec coverage: every message round-trips, bytes are pinned.

Three layers of protection:

* **Completeness** — introspect ``repro.sds.messages`` and require every
  public dataclass to be registered in ``WIRE_TYPES`` and to round-trip
  through the codec with representative field values.
* **Golden bytes** — one frame's exact encoding is pinned so that
  accidental codec changes (field reorder, varint tweak, tag renumber)
  fail loudly; wire compatibility between mixed-version processes
  depends on these bytes never changing for existing types.
* **Adversarial values** — the encodings that historically break codecs:
  ±inf floats (``ZERO_STAMP``), negative and 2**70 integers, empty and
  non-ASCII strings, nested containers, frozensets and dicts (whose
  *iteration order* must not leak into the bytes).
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.common.types import (
    NodeId,
    QuorumConfig,
    Version,
    VersionStamp,
    ZERO_STAMP,
)
from repro.net.codec import (
    CodecError,
    WIRE_TYPES,
    decode_frame_body,
    decode_value,
    encode_frame,
    encode_value,
)
from repro.sds import messages
from repro.sds.messages import ClientRead, LeaseGrant
from repro.sds.quorum import QuorumPlan
from repro.sim.network import Envelope

#: The exact bytes of one frame, length prefix included.  Pinned: a
#: change here is a wire-format break and needs a conscious decision
#: (plus a WIRE_TYPES append, never a reorder).
GOLDEN_FRAME_HEX = (
    "0000003607060a000506636c69656e74030e0a00050570726f7879030003d804"
    "0440290000000000000702030203040a0605056f626a2d310354"
)

#: Same contract for the lease subprotocol (appended in the lease PR):
#: a ``LeaseGrant`` frame's exact bytes, pinned at its WIRE_TYPES
#: position.  Reordering the registry or reshaping the dataclass breaks
#: mixed-version clusters mid-rollout, so it must fail this test first.
LEASE_GOLDEN_FRAME_HEX = (
    "0000005007060a00050773746f7261676503040a00050570726f787903020380"
    "040440110000000000000702031203020a2905056f626a2d3904402180000000"
    "00000306039a010a00050773746f726167650304"
)


def _message_classes() -> list[type]:
    found = []
    for _name, obj in inspect.getmembers(messages, inspect.isclass):
        if obj.__module__ == messages.__name__ and dataclasses.is_dataclass(
            obj
        ):
            found.append(obj)
    return found


def _sample_value(field: dataclasses.Field, index: int) -> object:
    """A representative, type-correct value for one dataclass field."""
    annotation = str(field.type)
    by_name = {
        "object_id": f"obj-{index}",
        "request_id": 1000 + index,
        "epoch_no": 3,
        "cfg_no": 4,
        "round_no": 5,
    }
    if field.name in by_name:
        return by_name[field.name]
    if "NodeId" in annotation:
        return NodeId.storage(index % 5)
    if "QuorumPlan" in annotation:
        return QuorumPlan.uniform(
            QuorumConfig(read=2, write=4)
        ).with_overrides({"hot": QuorumConfig(read=4, write=2)})
    if "AggregateStats" in annotation:
        return messages.AggregateStats(reads=7, writes=3, mean_size=128.0)
    if "QuorumConfig" in annotation:
        return QuorumConfig(read=2, write=4)
    if "VersionStamp" in annotation:
        return VersionStamp(12.25, "proxy-0")
    if "Version" in annotation:
        return Version(value=b"v", stamp=VersionStamp(1.5, "proxy-1"), cfg_no=2)
    if "Mapping" in annotation or "Dict" in annotation or "dict" in annotation:
        return {f"obj-{index}": 2, "obj-z": 1}
    if "FrozenSet" in annotation or "frozenset" in annotation:
        return frozenset({f"obj-{index}", "obj-z"})
    if "Tuple" in annotation or "tuple" in annotation:
        return ()
    if "float" in annotation:
        return 0.5 + index
    if "bytes" in annotation:
        return bytes([index % 251, 0, 255])
    if "bool" in annotation:
        return True
    if "int" in annotation:
        return index
    if "str" in annotation:
        return f"s-{index}"
    raise AssertionError(
        f"no sample rule for field {field.name!r}: {annotation}"
    )


def _instantiate(cls: type) -> object:
    kwargs = {
        field.name: _sample_value(field, position)
        for position, field in enumerate(dataclasses.fields(cls))
    }
    return cls(**kwargs)


def test_every_message_class_is_registered() -> None:
    registered = set(WIRE_TYPES)
    missing = [
        cls.__name__ for cls in _message_classes() if cls not in registered
    ]
    assert not missing, (
        f"unregistered wire types {missing}: append them to WIRE_TYPES "
        "(never reorder existing entries)"
    )


@pytest.mark.parametrize(
    "cls", _message_classes(), ids=lambda cls: cls.__name__
)
def test_message_round_trip(cls: type) -> None:
    message = _instantiate(cls)
    assert decode_value(encode_value(message)) == message


def test_wire_types_have_unique_positions() -> None:
    assert len(WIRE_TYPES) == len(set(WIRE_TYPES))


def test_golden_frame_bytes() -> None:
    envelope = Envelope(
        sender=NodeId.client(7),
        recipient=NodeId.proxy(0),
        payload=ClientRead("obj-1", 42),
        size=300,
        sent_at=12.5,
        trace=(1, 2),
    )
    assert encode_frame(envelope).hex() == GOLDEN_FRAME_HEX


def test_golden_frame_decodes() -> None:
    raw = bytes.fromhex(GOLDEN_FRAME_HEX)
    envelope = decode_frame_body(raw[4:])
    assert envelope.sender == NodeId.client(7)
    assert envelope.recipient == NodeId.proxy(0)
    assert envelope.payload == ClientRead("obj-1", 42)
    assert envelope.size == 300
    assert envelope.sent_at == 12.5
    assert envelope.trace == (1, 2)


def _lease_golden_envelope() -> Envelope:
    return Envelope(
        sender=NodeId.storage(2),
        recipient=NodeId.proxy(1),
        payload=LeaseGrant(
            object_id="obj-9",
            expiry=8.75,
            epoch_no=3,
            op_id=77,
            replica=NodeId.storage(2),
        ),
        size=256,
        sent_at=4.25,
        trace=(9, 1),
    )


def test_lease_golden_frame_bytes() -> None:
    assert (
        encode_frame(_lease_golden_envelope()).hex()
        == LEASE_GOLDEN_FRAME_HEX
    )


def test_lease_golden_frame_decodes() -> None:
    raw = bytes.fromhex(LEASE_GOLDEN_FRAME_HEX)
    envelope = decode_frame_body(raw[4:])
    assert envelope == _lease_golden_envelope()


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**70,
        -(2**70),
        0.0,
        -2.5,
        float("inf"),
        float("-inf"),
        "",
        "objet-Ω",
        b"",
        b"\x00\xff",
        (),
        (1, "two", b"3", (4.0,)),
        frozenset(),
        # A set's repr follows the per-process string hash seed, so the
        # case id is pinned to keep the test name stable across runs.
        pytest.param(
            frozenset({"a", "b", "c"}), id="frozenset({'c', 'b', 'a'})"
        ),
        {},
        {"b": 2, "a": 1},
        NodeId.storage(3),
        QuorumConfig(read=1, write=5),
        ZERO_STAMP,
        VersionStamp(float("inf"), "proxy-9"),
        Version(value=None, stamp=ZERO_STAMP, cfg_no=0),
    ],
    ids=repr,
)
def test_value_round_trip(value: object) -> None:
    assert decode_value(encode_value(value)) == value


def test_container_encoding_is_order_insensitive() -> None:
    """Dict/frozenset bytes must not depend on insertion order."""
    forward = {"a": 1, "b": 2, "c": 3}
    backward = {"c": 3, "b": 2, "a": 1}
    assert encode_value(forward) == encode_value(backward)
    assert encode_value(frozenset("abc")) == encode_value(
        frozenset("cba")
    )


def test_trailing_garbage_rejected() -> None:
    with pytest.raises(CodecError):
        decode_value(encode_value(42) + b"\x00")


def test_unknown_type_rejected() -> None:
    with pytest.raises(CodecError):
        encode_value(object())


def test_nan_is_rejected() -> None:
    """NaN breaks ``decode(encode(x)) == x`` and stamp ordering."""
    with pytest.raises(CodecError):
        encode_value(float("nan"))
