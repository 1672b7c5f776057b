"""Pluggable persistence for storage nodes: memory or an on-disk WAL.

The simulator prices durability in *modelled* seconds (the disk queue in
:mod:`repro.sds.storage`), so its backend is a plain dict — byte-for-byte
the behaviour the determinism tripwire pins.  The live runtime pays for
durability in real syscalls instead: :class:`WalBackend` gives each
``repro serve`` replica a crash-recoverable store built from two files
in one record format,

* ``wal.bin``      — an append-only log of CRC-framed records, one
  ``put`` per applied write and one ``epoch`` per adopted epoch, reusing
  the deterministic :mod:`repro.net.codec` value encoding for the bodies;
* ``snapshot.bin`` — a *compacted* log: one fresh ``epoch`` record, then
  each object's latest ``put`` frame copied byte for byte (CRC included)
  from ``wal.bin`` or from the previous ``snapshot.bin``.  It is written
  whenever the WAL grows past ``snapshot_bytes``, after which the WAL is
  truncated.  Compaction never re-encodes a value: the backend remembers
  where each object's latest frame lives and ``os.pread``\\ s it.

Compaction ordering, each step durable before the next::

    write snapshot.bin.tmp -> fsync(tmp) -> os.replace -> fsync(dir)
                           -> truncate wal.bin -> fsync(wal)

so a crash at any point leaves either the old snapshot with the full WAL
or the new snapshot (whose records subsume the WAL's) — never the old
snapshot with an emptied WAL.

Recovery replays snapshot then WAL through one record handler.  The
snapshot is accepted only whole: if any byte of it fails to parse into
``put``/``epoch`` records it is discarded (``snapshots_discarded``) and
the WAL still replays; the replica then rejoins quarantined and re-syncs
from its peers.  The WAL tolerates a torn tail: the first record whose
length, CRC or tag does not check out ends the replay and is truncated
away (a ``kill -9`` mid-append loses at most the unsynced suffix — the
quarantined-rejoin protocol re-fetches anything lost from a read quorum
of peers before the replica serves reads again, invariant I6 in
``docs/PROTOCOL.md``).

fsync policy: appends are batched — the file is flushed and fsynced once
every ``fsync_batch`` records, on snapshot, and on close; the storage
node's periodic flush loop bounds how long an acked write can sit in the
OS page cache.  Durability of an *acknowledged* write is therefore a
cluster property (it lives on W replicas), not a per-replica one,
matching the paper's deployment assumptions.
"""

from __future__ import annotations

import os
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.common.types import ObjectId, Version
from repro.net.codec import CodecError, decode_value, encode_value
from repro.sds.quorum import QuorumPlan

#: Bytes of framing per record: 4-byte length + 4-byte CRC32 of the body.
_RECORD_HEADER = 8
#: Refuse to parse absurd record lengths (corrupt header).
_MAX_RECORD = 64 * 1024 * 1024
#: Tuple arity of each record tag; any other record is corrupt.
_ARITY = {"put": 3, "epoch": 4}

_SNAPSHOT_NAME = "snapshot.bin"
_WAL_NAME = "wal.bin"

#: Where one record's whole frame lives: (offset, frame length).
_Extent = Tuple[int, int]


def _frame(body: bytes) -> bytes:
    return (
        len(body).to_bytes(4, "big")
        + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "big")
        + body
    )


def _known(record: object) -> bool:
    return (
        isinstance(record, tuple)
        and len(record) > 0
        and isinstance(record[0], str)
        and _ARITY.get(record[0]) == len(record)
    )


def _read_records(data: bytes) -> Tuple[List[Tuple[_Extent, tuple]], int]:
    """Parse CRC-framed records; returns ``([(extent, record)], valid)``.

    Stops at the first torn, corrupt or unknown record — everything
    before it is intact (CRC-checked), everything after it is unreachable
    anyway because records are parsed sequentially.
    """
    records = []
    view = memoryview(data)
    offset = 0
    total = len(data)
    while total - offset >= _RECORD_HEADER:
        length = int.from_bytes(view[offset:offset + 4], "big")
        if length > _MAX_RECORD:
            break
        end = offset + _RECORD_HEADER + length
        if end > total:
            break
        crc = int.from_bytes(view[offset + 4:offset + 8], "big")
        body = view[offset + _RECORD_HEADER:end]
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            break
        try:
            record = decode_value(body)
        except CodecError:
            break
        if not _known(record):
            break
        records.append(((offset, end - offset), record))
        offset = end
    return records, offset


def _read_file(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


class MemoryBackend:
    """The simulator's store: a dict, nothing else.

    The storage node reads through :attr:`versions` directly (identical
    code path to the pre-seam implementation) and routes mutations
    through :meth:`put` / :meth:`set_epoch`, which for this backend are
    plain dict stores — the sim stays byte-for-byte deterministic.
    """

    durable = False

    def __init__(self) -> None:
        self.versions: Dict[ObjectId, Version] = {}
        self.recovered = False

    def put(self, object_id: ObjectId, version: Version) -> None:
        self.versions[object_id] = version

    def set_epoch(
        self, epoch_no: int, cfg_no: int, plan: Optional[QuorumPlan] = None
    ) -> None:
        pass

    def recovered_state(self) -> Tuple[int, int, Optional[QuorumPlan]]:
        return (0, 0, None)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class WalBackend:
    """File-backed store: compacted snapshot + append-only CRC-framed WAL."""

    durable = True

    def __init__(
        self,
        directory: str,
        fsync_batch: int = 64,
        snapshot_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if fsync_batch < 1:
            raise ConfigurationError("fsync_batch must be >= 1")
        self.directory = directory
        self.fsync_batch = fsync_batch
        self.snapshot_bytes = snapshot_bytes
        os.makedirs(directory, exist_ok=True)
        self.snapshot_path = os.path.join(directory, _SNAPSHOT_NAME)
        self.wal_path = os.path.join(directory, _WAL_NAME)
        #: Whether prior on-disk state existed — a restart, not a first
        #: boot.  Drives the quarantined-rejoin path in the storage node.
        self.recovered = os.path.exists(self.snapshot_path) or os.path.exists(
            self.wal_path
        )
        self.versions: Dict[ObjectId, Version] = {}
        #: Per object, its latest ``put`` frame: (in the WAL?, extent).
        self._frames: Dict[ObjectId, Tuple[bool, _Extent]] = {}
        self._epoch_no = 0
        self._cfg_no = 0
        self._plan: Optional[QuorumPlan] = None
        # Observability counters.
        self.records_replayed = 0
        self.records_truncated = 0
        self.snapshots_discarded = 0
        self.records_appended = 0
        self.snapshots_taken = 0
        self.fsyncs = 0
        #: Read side of the accepted ``snapshot.bin``, if any, for
        #: compaction's ``os.pread`` copies (``wal.bin``'s is below).
        self._snapshot_reader: Optional[BinaryIO] = None
        self._wal_bytes = self._load()
        self._wal = open(self.wal_path, "ab")
        self._wal_reader = open(self.wal_path, "rb", buffering=0)
        self._pending = 0
        self._closed = False

    # -- recovery ------------------------------------------------------------

    def _load(self) -> int:
        """Replay snapshot then WAL; returns the WAL's valid length."""
        data = _read_file(self.snapshot_path)
        if data is not None:
            records, valid = _read_records(data)
            # A snapshot starts with its epoch record and parses whole.
            if valid == len(data) and records and records[0][1][0] == "epoch":
                for extent, record in records:
                    self._apply(record, False, extent)
                self._snapshot_reader = open(
                    self.snapshot_path, "rb", buffering=0
                )
            else:
                # Torn, rotted or foreign (e.g. an older single-record
                # dump): trust none of it.  The WAL still replays and the
                # quarantined rejoin re-syncs whatever the snapshot held.
                self.snapshots_discarded += 1
        data = _read_file(self.wal_path)
        if data is None:
            return 0
        records, valid = _read_records(data)
        for extent, record in records:
            self.records_replayed += 1
            self._apply(record, True, extent)
        if valid < len(data):
            # Torn tail from a crash mid-append: cut it off so the next
            # append does not splice new records after garbage.
            self.records_truncated += 1
            with open(self.wal_path, "r+b") as handle:
                handle.truncate(valid)
        return valid

    def _apply(self, record: tuple, in_wal: bool, extent: _Extent) -> None:
        if record[0] == "put":
            _tag, object_id, version = record
            self.versions[object_id] = version
            self._frames[object_id] = (in_wal, extent)
        else:
            _tag, epoch_no, cfg_no, plan = record
            self._epoch_no = int(epoch_no)
            self._cfg_no = int(cfg_no)
            self._plan = plan

    def recovered_state(self) -> Tuple[int, int, Optional[QuorumPlan]]:
        """Epoch/cfg/plan as of the last durable record (ZERO if fresh)."""
        return (self._epoch_no, self._cfg_no, self._plan)

    # -- mutation ------------------------------------------------------------

    def put(self, object_id: ObjectId, version: Version) -> None:
        self.versions[object_id] = version
        self._append(("put", object_id, version), object_id)

    def set_epoch(
        self, epoch_no: int, cfg_no: int, plan: Optional[QuorumPlan] = None
    ) -> None:
        self._epoch_no = epoch_no
        self._cfg_no = cfg_no
        self._plan = plan
        self._append(("epoch", epoch_no, cfg_no, plan))

    def _append(
        self, record: tuple, object_id: Optional[ObjectId] = None
    ) -> None:
        if self._closed:
            return
        frame = _frame(encode_value(record))
        self._wal.write(frame)
        if object_id is not None:
            self._frames[object_id] = (True, (self._wal_bytes, len(frame)))
        self._wal_bytes += len(frame)
        self.records_appended += 1
        self._pending += 1
        if self._pending >= self.fsync_batch:
            self.flush()
        if self._wal_bytes >= self.snapshot_bytes:
            self.snapshot()

    def flush(self) -> None:
        """Batched durability point: flush + fsync the WAL file."""
        if self._closed or self._pending == 0:
            return
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self.fsyncs += 1
        self._pending = 0

    def snapshot(self) -> None:
        """Compact into a fresh ``snapshot.bin``, then truncate the WAL.

        Writes one ``epoch`` record and copies every object's latest
        ``put`` frame verbatim.  Ordering matters: the snapshot must be
        durable — fsynced, atomically in place, and its directory entry
        fsynced — *before* the WAL records it subsumes are discarded, or
        a crash between the two loses acknowledged writes.
        """
        if self._closed:
            return
        self._wal.flush()
        # Indexed by an entry's ``in_wal`` flag.
        readers = (self._snapshot_reader, self._wal_reader)
        frames: Dict[ObjectId, Tuple[bool, _Extent]] = {}
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as out:
            offset = out.write(
                _frame(
                    encode_value(
                        ("epoch", self._epoch_no, self._cfg_no, self._plan)
                    )
                )
            )
            for object_id, (in_wal, (start, length)) in self._frames.items():
                reader = readers[in_wal]
                # Only a replayed or written snapshot has in_wal=False
                # entries, and either leaves its reader open.
                assert reader is not None
                frame = os.pread(reader.fileno(), length, start)
                if len(frame) != length:
                    raise OSError(
                        f"short read copying {object_id!r}: "
                        f"{len(frame)} of {length} bytes"
                    )
                out.write(frame)
                frames[object_id] = (False, (offset, length))
                offset += length
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp_path, self.snapshot_path)
        directory = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        os.ftruncate(self._wal.fileno(), 0)
        os.fsync(self._wal.fileno())
        if self._snapshot_reader is not None:
            self._snapshot_reader.close()
        self._snapshot_reader = open(self.snapshot_path, "rb", buffering=0)
        self._frames = frames
        self._wal_bytes = 0
        self._pending = 0
        self.snapshots_taken += 1

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._wal.close()
        self._wal_reader.close()
        if self._snapshot_reader is not None:
            self._snapshot_reader.close()

    # -- introspection (tests, metrics) --------------------------------------

    def wal_records(self) -> Iterator[tuple]:
        """Decode every intact record currently in the WAL file."""
        self._wal.flush()
        data = _read_file(self.wal_path) or b""
        return iter([record for _extent, record in _read_records(data)[0]])


#: What the storage node accepts as a backend.  A closed union rather
#: than a Protocol: both implementations live in this module, and the
#: union keeps mypy checking every call site against both concretely.
StorageBackend = Union[MemoryBackend, WalBackend]


__all__ = ["MemoryBackend", "WalBackend", "StorageBackend"]
