"""Deterministic binary wire format for the Q-OPT protocol messages.

Design goals, in order:

1. **Determinism** — the same value encodes to the same bytes in every
   process, under every ``PYTHONHASHSEED``.  Mappings are serialized
   sorted by encoded key, ``frozenset`` elements sorted by encoded
   element; floats use fixed big-endian IEEE-754 (``inf``/``-inf`` round
   trip, which ``ZERO_STAMP`` needs).
2. **Completeness** — every dataclass in :mod:`repro.sds.messages` and
   every supporting value type it embeds has an explicit entry in
   :data:`WIRE_TYPES`; the codec tests introspect the messages module to
   prove nothing is missing.
3. **Simplicity** — a type-tagged recursive encoding, no schema
   negotiation.  The class table is append-only: codes are positional,
   so reordering or removing entries is a wire-format break (the
   golden-bytes test pins this).

Framing: a frame is a 4-byte big-endian length followed by the encoded
envelope tuple ``(sender, recipient, size, sent_at, trace, payload)``.
The length prefix covers everything after itself.  Every malformed
input raises :class:`CodecError`, chained from the underlying error
(invalid UTF-8, a constructor's validation, an unhashable set element;
a NaN, which no encoder writes, is refused too), so a reader can skip
one bad frame or record and keep going.

Hot-path implementation notes (the bytes are pinned; only the code
producing them changed):

* **Per-class codecs, compiled on first use** — the first time a
  registered class (or the envelope) is encoded or decoded, one
  straight-line encoder and one decoder are generated for it from
  ``dataclasses.fields`` and the field annotations.  A field annotated
  ``str``/``ObjectId``, ``int``, ``float`` or ``bytes``/``Optional[bytes]``
  is read and written inline; a field annotated with a registered class
  calls that class's codec directly.  Any other field, and any tag the
  annotation did not predict (a ``None``, a float in an ``int`` field),
  takes the generic tag-dispatched path, so bytes and decoded values
  are exactly the generic codec's.  Nothing is compiled at import: a
  process pays only for the classes it sees.
* **Construction** — a decoded class without ``__post_init__`` is a bare
  instance with its ``__dict__`` filled in, which is what its frozen
  ``__init__`` does one ``object.__setattr__`` at a time; ``QuorumConfig``
  and ``VectorStamp`` still go through their constructors, so their
  validation runs.
* **NodeId interning** — decoded ``NodeId``s are interned in a bounded
  dict keyed by their encoded bytes, and each ``NodeId``'s encoding is
  cached in a bounded dict keyed by the node's identity, so an endpoint
  costs about one lookup each way.
* **Zero-copy decode** — :func:`decode_frame_body` accepts any buffer
  (``bytes``, ``bytearray`` or ``memoryview``) and parses it in place;
  the transport hands it sub-``memoryview`` slices of its receive buffer,
  so a TCP segment carrying many coalesced frames is decoded without
  per-frame body copies.  Decoded leaves always *materialize* (``bytes``
  values are copied out), so no decoded message retains a view of the
  receive buffer.
* **Buffer pool** — :func:`encode_frame` reuses a small pool of
  ``bytearray`` buffers and writes the length prefix into a reserved
  slot, so steady-state encoding allocates only the final immutable
  ``bytes``.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import ReproError, SimulationError
from repro.common.types import NodeId, QuorumConfig, Version, VersionStamp
from repro.sds import messages
from repro.sds.quorum import QuorumPlan
from repro.sds.vector_clocks import VectorStamp
from repro.sim.network import Envelope


class CodecError(SimulationError):
    """Raised on malformed or truncated wire data."""


#: Any read-only byte buffer the decoder accepts.
Buffer = Union[bytes, bytearray, memoryview]

# -- value tags --------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_FROZENSET = 0x08
_T_MAP = 0x09
_T_DATACLASS = 0x0A

#: Registered wire classes.  APPEND-ONLY: the class code is the position
#: in this tuple, so inserting or reordering entries breaks the format.
WIRE_TYPES: Tuple[type, ...] = (
    # Supporting value types.
    NodeId,
    QuorumConfig,
    VersionStamp,
    VectorStamp,
    Version,
    QuorumPlan,
    # Client <-> proxy.
    messages.ClientRead,
    messages.ClientWrite,
    messages.ClientReadReply,
    messages.ClientWriteReply,
    messages.ClientOperationFailed,
    # Proxy <-> storage.
    messages.ReplicaRead,
    messages.ReplicaReadReply,
    messages.ReplicaWrite,
    messages.ReplicaWriteReply,
    messages.ReplicaSync,
    messages.EpochNack,
    # Reconfiguration manager <-> proxy.
    messages.NewQuorum,
    messages.AckNewQuorum,
    messages.Confirm,
    messages.AckConfirm,
    messages.PauseProxy,
    messages.AckPause,
    messages.ResumeProxy,
    # Reconfiguration manager <-> storage.
    messages.NewEpoch,
    messages.AckNewEpoch,
    # Autonomic manager <-> proxy.
    messages.NewRound,
    messages.ObjectStats,
    messages.AggregateStats,
    messages.RoundStats,
    messages.NewTopK,
    # Autonomic manager <-> oracle.
    messages.NewStats,
    messages.NewQuorums,
    messages.TailStats,
    messages.TailQuorum,
    # Autonomic manager <-> reconfiguration manager.
    messages.FineRec,
    messages.CoarseRec,
    messages.AckRec,
    # Storage <-> storage recovery (appended: codes are positional).
    messages.SyncRequest,
    messages.SyncReply,
    # Per-object read leases (appended: codes are positional).
    messages.LeaseRequest,
    messages.LeaseGrant,
    messages.LeaseRead,
    messages.LeaseReadReply,
    messages.LeaseNack,
)

_CODE_BY_TYPE = {cls: code for code, cls in enumerate(WIRE_TYPES)}
#: Codes below this have a one-byte varint, so their class header is
#: the two bytes ``_T_DATACLASS, code``.
_ONE_BYTE_CODES = min(len(WIRE_TYPES), 0x80)

_pack_double = struct.Struct(">d").pack
_unpack_double_from = struct.Struct(">d").unpack_from


# -- varints -----------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: Buffer, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


# -- generic encoding --------------------------------------------------------

Encoder = Callable[[bytearray, Any], None]

#: Exact-type encoder dispatch: scalars and containers, plus each
#: registered class once its encoder has been compiled.
_ENCODER_BY_TYPE: Dict[type, Encoder] = {}


def _enc_none(out: bytearray, value: Any) -> None:
    out.append(_T_NONE)


def _enc_bool(out: bytearray, value: Any) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _enc_int(out: bytearray, value: Any) -> None:
    out.append(_T_INT)
    _write_uvarint(out, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _enc_float(out: bytearray, value: Any) -> None:
    if value != value:  # NaN: breaks round-trip equality and ordering
        raise CodecError("NaN is not encodable")
    out.append(_T_FLOAT)
    out += _pack_double(value)


def _enc_str(out: bytearray, value: Any) -> None:
    _enc_bytes(out, value.encode("utf-8"), _T_STR)


def _enc_bytes(out: bytearray, value: Any, tag: int = _T_BYTES) -> None:
    out.append(tag)
    _write_uvarint(out, len(value))
    out += value


def _enc_tuple(out: bytearray, value: Any) -> None:
    out.append(_T_TUPLE)
    _write_uvarint(out, len(value))
    for item in value:
        _encode_value(out, item)


def _enc_frozenset(out: bytearray, value: Any) -> None:
    out.append(_T_FROZENSET)
    _write_uvarint(out, len(value))
    for encoded_item in sorted(encode_value(item) for item in value):
        out += encoded_item


def _enc_map(out: bytearray, value: Any) -> None:
    out.append(_T_MAP)
    _write_uvarint(out, len(value))
    pairs = sorted(
        (encode_value(key), encode_value(item)) for key, item in value.items()
    )
    for encoded_key, encoded_item in pairs:
        out += encoded_key
        out += encoded_item


_ENCODER_BY_TYPE.update(
    {
        type(None): _enc_none,
        bool: _enc_bool,
        int: _enc_int,
        float: _enc_float,
        str: _enc_str,
        bytes: _enc_bytes,
        bytearray: _enc_bytes,
        tuple: _enc_tuple,
        list: _enc_tuple,
        frozenset: _enc_frozenset,
        set: _enc_frozenset,
        dict: _enc_map,
    }
)


def _encode_fallback(out: bytearray, value: Any) -> None:
    """Everything the exact-type table does not (yet) know.

    Subclasses of the scalar and container types (an ``OrderedDict``, an
    ``enum.IntEnum``) are encoded by an ``isinstance`` ladder; a registered
    class, or a subclass of one, gets its compiled encoder, which is then
    entered in the table for the registered class.
    """
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        _enc_int(out, value)
    elif isinstance(value, float):
        _enc_float(out, value)
    elif isinstance(value, str):
        _enc_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        _enc_bytes(out, value)
    elif isinstance(value, (tuple, list)):
        _enc_tuple(out, value)
    elif isinstance(value, (frozenset, set)):
        _enc_frozenset(out, value)
    elif isinstance(value, dict):
        _enc_map(out, value)
    else:
        for cls in type(value).__mro__:
            if cls in _CODE_BY_TYPE:
                encoder = _ENCODER_BY_TYPE[cls] = _encoder(cls)
                encoder(out, value)
                return
        raise CodecError(
            f"type {type(value).__name__} is not a registered wire type"
        )


def _encode_value(out: bytearray, value: Any) -> None:
    encoder = _ENCODER_BY_TYPE.get(value.__class__)
    if encoder is None:
        _encode_fallback(out, value)
    else:
        encoder(out, value)


def encode_value(value: Any) -> bytes:
    """Encode one value (message payload or embedded field)."""
    out = bytearray()
    _encode_value(out, value)
    return bytes(out)


# -- generic decoding --------------------------------------------------------


def _decode_value(data: Buffer, offset: int) -> Tuple[Any, int]:
    """Decode the value at ``offset`` by its tag.

    Registered classes dispatch to their compiled decoders, which come
    back here only for fields whose annotation does not predict their
    tag.  Malformed input raises :data:`_PARSE_ERRORS` here too;
    :func:`decode_value` and :func:`decode_frame_body` turn those into
    :class:`CodecError`.
    """
    tag = data[offset]
    offset += 1
    if tag == _T_DATACLASS:
        code, offset = _read_uvarint(data, offset)
        if code >= len(WIRE_TYPES):
            raise CodecError(f"unknown wire-type code {code}")
        cls = WIRE_TYPES[code]
        return (_DECODERS.get(cls) or _decoder(cls))(data, offset)
    if tag == _T_INT:
        value, offset = _read_uvarint(data, offset)
        return (
            (value >> 1) if not value & 1 else -((value + 1) >> 1)
        ), offset
    if tag == _T_STR or tag == _T_BYTES:
        length, offset = _read_uvarint(data, offset)
        end = offset + length
        # Always materialize: decoded values must never retain a view of
        # a transport receive buffer (which is mutated after the parse).
        chunk = bytes(data[offset:end])
        if len(chunk) != length:
            raise CodecError("truncated string or bytes")
        return (str(chunk, "utf-8") if tag == _T_STR else chunk), end
    if tag == _T_NONE:
        return None, offset
    if tag == _T_FLOAT:
        value = _unpack_double_from(data, offset)[0]
        if value != value:
            raise CodecError("NaN is not decodable")
        return value, offset + 8
    if tag == _T_TUPLE or tag == _T_FROZENSET:
        count, offset = _read_uvarint(data, offset)
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_value(data, offset)
            append(item)
        return (tuple(items) if tag == _T_TUPLE else frozenset(items)), offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_MAP:
        count, offset = _read_uvarint(data, offset)
        mapping = {}
        for _ in range(count):
            key, offset = _decode_value(data, offset)
            item, offset = _decode_value(data, offset)
            mapping[key] = item
        return mapping, offset
    raise CodecError(f"unknown value tag {tag:#04x}")


#: What parsing untrusted bytes raises besides :class:`CodecError`:
#: truncation (``IndexError``, ``struct.error``), invalid UTF-8
#: (``ValueError``), an unhashable set element or map key (``TypeError``),
#: nesting deeper than the stack (``RecursionError``) and a constructor
#: refusing its fields (``ReproError``, e.g. ``QuorumConfig(read=0)``).
_PARSE_ERRORS = (
    IndexError, struct.error, ValueError, TypeError, RecursionError, ReproError
)


def _malformed(exc: Exception) -> CodecError:
    """The :class:`CodecError` reported for one of ``_PARSE_ERRORS``."""
    if isinstance(exc, (IndexError, struct.error)):
        return CodecError("truncated wire data")
    return CodecError(f"malformed wire data: {exc!r}")


def decode_value(data: Buffer) -> Any:
    """Decode one value; the entire buffer must be consumed."""
    try:
        value, offset = _decode_value(data, 0)
    except CodecError:
        raise
    except _PARSE_ERRORS as exc:
        raise _malformed(exc) from exc
    if offset != len(data):
        raise CodecError(
            f"{len(data) - offset} trailing bytes after decoded value"
        )
    return value


# -- per-class codecs, compiled on first use ---------------------------------

Decoder = Callable[[Buffer, int], Tuple[Any, int]]

#: Compiled codecs of the registered classes and of ``Envelope``.  A
#: decoder starts just past the class header and returns the instance
#: and the offset after it; an encoder writes the header and the fields.
_DECODERS: Dict[type, Decoder] = {}
_ENCODERS: Dict[type, Encoder] = {}

#: The envelope's fields in wire order: a frame body is this tuple.
_ENVELOPE_FIELDS = ("sender", "recipient", "size", "sent_at", "trace", "payload")

#: Entries per NodeId cache.
_INTERN_LIMIT = 4096
#: Decoded NodeIds by their encoded fields.
_NODE_BY_BYTES: Dict[bytes, NodeId] = {}
#: ``id(node) -> (node, encoding)``; holding the node keeps its id from
#: being reused while the entry lives.
_BYTES_BY_NODE: Dict[int, Tuple[NodeId, bytes]] = {}

_new_instance = object.__new__

#: A NodeId decoder first looks the usual encoding up in the intern table
#: without parsing it: a kind of under 128 bytes, an index varint of one
#: byte.  In a valid frame this reads no byte past the NodeId.
_NODE_PEEK = f"""\
if data[o] == {_T_STR} and data[o + 1] < 0x80:
    e = o + 2 + data[o + 1]
    if data[e] == {_T_INT} and data[e + 1] < 0x80:
        obj = _NODE_BY_BYTES.get(bytes(data[o:e + 2]))
        if obj is not None:
            return obj, e + 2
"""

_READ_VARINT = """\
n = data[o]
o += 1
if n & 0x80:
    n &= 0x7F
    s = 7
    while True:
        b = data[o]
        o += 1
        n |= (b & 0x7F) << s
        if not b & 0x80:
            break
        s += 7
        if s > 70:
            raise CodecError("varint too long")
"""

_WRITE_VARINT = """\
while n > 0x7F:
    out.append((n & 0x7F) | 0x80)
    n >>= 7
out.append(n)
"""

#: Inline code per scalar annotation: ``(tag, decode, guard, encode)``.
#: ``decode`` starts just past the tag and leaves the value in ``v``;
#: ``encode`` writes ``v`` when ``guard`` holds for it.
_INLINE: Dict[Any, Tuple[int, str, str, str]] = {
    int: (
        _T_INT,
        _READ_VARINT + "v = (n >> 1) if not n & 1 else -((n + 1) >> 1)\n",
        "v.__class__ is int",
        f"out.append({_T_INT})\n"
        "n = (v << 1) if v >= 0 else ((-v << 1) - 1)\n" + _WRITE_VARINT,
    ),
    float: (
        _T_FLOAT,
        "v = _unpack_double_from(data, o)[0]\n"
        "if v != v:\n"
        '    raise CodecError("NaN is not decodable")\n'
        "o += 8\n",
        "v.__class__ is float and v == v",
        f"out.append({_T_FLOAT})\nout += _pack_double(v)\n",
    ),
    str: (
        _T_STR,
        _READ_VARINT + "e = o + n\n"
        "if e > len(data):\n"
        '    raise CodecError("truncated string")\n'
        'v = str(data[o:e], "utf-8")\n'
        "o = e\n",
        "v.__class__ is str",
        f'v = v.encode("utf-8")\nout.append({_T_STR})\nn = len(v)\n'
        + _WRITE_VARINT + "out += v\n",
    ),
    bytes: (
        _T_BYTES,
        _READ_VARINT + "e = o + n\n"
        "v = bytes(data[o:e])\n"
        "if len(v) != n:\n"
        '    raise CodecError("truncated bytes")\n'
        "o = e\n",
        "v.__class__ is bytes",
        f"out.append({_T_BYTES})\nn = len(v)\n" + _WRITE_VARINT + "out += v\n",
    ),
}
_INLINE[Optional[bytes]] = _INLINE[bytes]


def _wire_fields(cls: type) -> List[Tuple[str, Any]]:
    """``(name, annotation)`` of each field ``cls`` puts on the wire."""
    hints = typing.get_type_hints(cls)
    if cls is Envelope:
        return [(name, hints[name]) for name in _ENVELOPE_FIELDS]
    return [(field.name, hints[field.name]) for field in dataclasses.fields(cls)]


def _indent(source: str) -> str:
    return "".join("    " + line for line in source.splitlines(True))


def _define(name: str, source: str, namespace: Dict[str, Any]) -> Any:
    exec(compile(source, f"<wire codec {name}>", "exec"), namespace)
    return namespace[name]


def _decode_field(annotation: Any, namespace: Dict[str, Any]) -> str:
    """Source that decodes one field at ``o`` into ``v``."""
    code = _CODE_BY_TYPE.get(annotation)
    if code is not None and code < _ONE_BYTE_CODES:
        namespace[f"decode_{code}"] = _decoder(annotation)
        return (
            f"if data[o] == {_T_DATACLASS} and data[o + 1] == {code}:\n"
            f"    v, o = decode_{code}(data, o + 2)\n"
            "else:\n"
            "    v, o = _decode_value(data, o)\n"
        )
    if annotation not in _INLINE:
        return (
            f"t = data[o]\nif t == {_T_NONE}:\n    v = None\n    o += 1\n"
            f"elif t == {_T_DATACLASS} and data[o + 1] < {_ONE_BYTE_CODES}:\n"
            "    k = WIRE_TYPES[data[o + 1]]\n"
            "    v, o = (_DECODERS.get(k) or _decoder(k))(data, o + 2)\n"
            "else:\n"
            "    v, o = _decode_value(data, o)\n"
        )
    tag, decode, _guard, _encode = _INLINE[annotation]
    source = f"t = data[o]\nif t == {tag}:\n    o += 1\n" + _indent(decode)
    if annotation == Optional[bytes]:
        source += f"elif t == {_T_NONE}:\n    v = None\n    o += 1\n"
    return source + "else:\n    v, o = _decode_value(data, o)\n"


def _compile_decoder(cls: type) -> Decoder:
    namespace = {**globals(), "cls": cls}
    wire_fields = _wire_fields(cls)
    source = ""
    for name, annotation in wire_fields:
        source += _decode_field(annotation, namespace) + f"f_{name} = v\n"
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__"):
        # Validating constructors run, so a bad value is refused here.
        arguments = ", ".join(f"f_{field.name}" for field in fields)
        build = f"obj = cls({arguments})\n"
    else:
        build = "obj = _new_instance(cls)\nd = obj.__dict__\n"
        for field in fields:
            if field.name not in dict(wire_fields):  # Envelope.delivered_at
                namespace[f"f_{field.name}"] = field.default
            build += f"d[{field.name!r}] = f_{field.name}\n"
    if cls is NodeId:  # interned: one instance per distinct encoding
        source = (
            f"{_NODE_PEEK}start = o\n{source}"
            "key = bytes(data[start:o])\n"
            "obj = _NODE_BY_BYTES.get(key)\n"
            "if obj is None:\n"
        ) + _indent(build + "_intern(_NODE_BY_BYTES, key, obj)\n")
    else:
        source += build
    name = f"decode_{cls.__name__}"
    source = f"def {name}(data, o):\n" + _indent(source + "return obj, o\n")
    return _define(name, source, namespace)


def _decoder(cls: type) -> Decoder:
    """The compiled decoder of ``cls``, compiled on first use."""
    decoder = _DECODERS.get(cls)
    if decoder is None:
        decoder = _DECODERS[cls] = _compile_decoder(cls)
    return decoder


def _encode_field(annotation: Any, namespace: Dict[str, Any]) -> str:
    """Source that encodes the field value ``v``."""
    if annotation is NodeId:
        return (
            "c = _BYTES_BY_NODE.get(id(v))\n"
            "if c is not None and c[0] is v:\n"
            "    out += c[1]\n"
            "else:\n"
            "    _encode_node(out, v)\n"
        )
    if annotation in _CODE_BY_TYPE:
        code = _CODE_BY_TYPE[annotation]
        namespace[f"cls_{code}"] = annotation
        namespace[f"encode_{code}"] = _encoder(annotation)
        return (
            f"if v.__class__ is cls_{code}:\n"
            f"    encode_{code}(out, v)\n"
            "else:\n"
            "    _encode_value(out, v)\n"
        )
    if annotation not in _INLINE:
        return (
            f"if v is None:\n    out.append({_T_NONE})\n"
            "else:\n"
            "    e = _ENCODER_BY_TYPE.get(v.__class__)\n"
            "    if e is None:\n"
            "        _encode_fallback(out, v)\n"
            "    else:\n"
            "        e(out, v)\n"
        )
    _tag, _decode, guard, encode = _INLINE[annotation]
    source = f"if {guard}:\n" + _indent(encode)
    if annotation == Optional[bytes]:
        source += f"elif v is None:\n    out.append({_T_NONE})\n"
    return source + "else:\n    _encode_value(out, v)\n"


def _compile_encoder(cls: type) -> Encoder:
    fields = _wire_fields(cls)
    if cls is Envelope:
        header = bytearray([_T_TUPLE, len(fields)])
    else:
        header = bytearray([_T_DATACLASS])
        _write_uvarint(header, _CODE_BY_TYPE[cls])
    namespace = {**globals(), "header": bytes(header)}
    source = "out += header\n"
    for name, annotation in fields:
        source += f"v = value.{name}\n" + _encode_field(annotation, namespace)
    name = f"encode_{cls.__name__}"
    source = f"def {name}(out, value):\n" + _indent(source)
    return _define(name, source, namespace)


def _encoder(cls: type) -> Encoder:
    """The compiled encoder of ``cls``, compiled on first use."""
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = _ENCODERS[cls] = _compile_encoder(cls)
    return encoder


def _intern(cache: Dict[Any, Any], key: Any, value: Any) -> None:
    """Bounded insert: a full cache is emptied and refilled."""
    if len(cache) >= _INTERN_LIMIT:
        cache.clear()
    cache[key] = value


def _encode_node(out: bytearray, node: Any) -> None:
    """Encode the value of a ``NodeId`` field and cache a NodeId's bytes."""
    if node.__class__ is not NodeId:
        _encode_value(out, node)
        return
    encoded = bytearray()
    _encoder(NodeId)(encoded, node)
    _intern(_BYTES_BY_NODE, id(node), (node, bytes(encoded)))
    out += encoded


# -- envelope framing --------------------------------------------------------

#: Bytes of the frame length prefix.
LENGTH_PREFIX = 4

#: Upper bound on one frame body; a peer announcing more is protocol
#: garbage (or an attack) and the connection is dropped.
MAX_FRAME = 64 * 1024 * 1024

#: Free encode buffers, at most eight of at most 1 MiB each, so one huge
#: frame does not pin its memory.  No locking: asyncio is single-threaded,
#: and the worst case of a race is a missed reuse.
_FREE_BUFFERS: List[bytearray] = []
_POOL_CAPACITY = 8
_POOL_MAX_BYTES = 1 << 20

_PREFIX_PLACEHOLDER = b"\x00" * LENGTH_PREFIX


def encode_frame(envelope: Envelope) -> bytes:
    """Serialize an envelope as a length-prefixed frame."""
    free = _FREE_BUFFERS
    out = free.pop() if free else bytearray()
    out += _PREFIX_PLACEHOLDER
    (_ENCODERS.get(Envelope) or _encoder(Envelope))(out, envelope)
    body_length = len(out) - LENGTH_PREFIX
    if body_length > MAX_FRAME:
        raise CodecError(f"frame of {body_length} bytes exceeds MAX_FRAME")
    out[:LENGTH_PREFIX] = body_length.to_bytes(LENGTH_PREFIX, "big")
    frame = bytes(out)
    if len(free) < _POOL_CAPACITY and len(out) <= _POOL_MAX_BYTES:
        del out[:]
        free.append(out)
    return frame


def decode_frame_body(body: Buffer) -> Envelope:
    """Deserialize a frame body (the bytes after the length prefix).

    ``body`` may be any buffer — in particular a ``memoryview`` into a
    transport receive buffer; every decoded leaf is materialized, so the
    returned envelope never aliases the caller's buffer.
    """
    try:
        if body[0] != _T_TUPLE or body[1] != len(_ENVELOPE_FIELDS):
            raise CodecError("malformed envelope frame")
        decoder = _DECODERS.get(Envelope) or _decoder(Envelope)
        envelope, offset = decoder(body, 2)
    except CodecError:
        raise
    except _PARSE_ERRORS as exc:
        raise _malformed(exc) from exc
    if offset != len(body):
        raise CodecError(
            f"{len(body) - offset} trailing bytes after decoded value"
        )
    if not isinstance(envelope.sender, NodeId) or not isinstance(
        envelope.recipient, NodeId
    ):
        raise CodecError("envelope endpoints must be NodeIds")
    return envelope


__all__ = [
    "CodecError",
    "WIRE_TYPES",
    "LENGTH_PREFIX",
    "MAX_FRAME",
    "encode_value",
    "decode_value",
    "encode_frame",
    "decode_frame_body",
]
