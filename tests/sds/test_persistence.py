"""WAL-backed persistence: replay, torn tails, snapshots, kill -9."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import zlib
from typing import Dict, Optional, Tuple

import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import QuorumConfig, Version, VersionStamp
from repro.net.codec import decode_value, encode_value
from repro.sds import persistence
from repro.sds.persistence import MemoryBackend, WalBackend
from repro.sds.quorum import QuorumPlan


def version(time: float, value: bytes = b"v") -> Version:
    return Version(
        value=value,
        stamp=VersionStamp(time, "proxy-0"),
        size=len(value),
        cfg_no=0,
    )


def frame(record: tuple) -> bytes:
    """One record in the on-disk format: length, CRC32, codec body."""
    body = encode_value(record)
    return (
        len(body).to_bytes(4, "big")
        + zlib.crc32(body).to_bytes(4, "big")
        + body
    )


def frames_of(data: bytes) -> list:
    """Split a well-formed file into ``(frame bytes, record)`` pairs."""
    out = []
    offset = 0
    while offset < len(data):
        length = int.from_bytes(data[offset:offset + 4], "big")
        end = offset + 8 + length
        out.append((data[offset:end], decode_value(data[offset + 8:end])))
        offset = end
    return out


def read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestMemoryBackend:
    def test_is_a_plain_dict_with_no_recovery(self) -> None:
        backend = MemoryBackend()
        assert backend.durable is False
        assert backend.recovered is False
        backend.put("obj", version(1.0))
        backend.set_epoch(3, 4)
        backend.flush()
        backend.close()
        assert backend.versions["obj"].stamp.timestamp == 1.0
        assert backend.recovered_state() == (0, 0, None)


class TestWalRoundTrip:
    def test_replay_restores_versions_and_epoch(self, tmp_path) -> None:
        plan = QuorumPlan.uniform(QuorumConfig(2, 4))
        first = WalBackend(str(tmp_path))
        assert first.recovered is False
        first.put("a", version(1.0, b"one"))
        first.put("b", version(2.0, b"two"))
        first.put("a", version(3.0, b"three"))  # newer overwrite
        first.set_epoch(5, 7, plan)
        first.close()

        second = WalBackend(str(tmp_path))
        assert second.recovered is True
        assert second.records_replayed == 4
        assert second.versions["a"].value == b"three"
        assert second.versions["b"].value == b"two"
        epoch_no, cfg_no, recovered_plan = second.recovered_state()
        assert (epoch_no, cfg_no) == (5, 7)
        assert recovered_plan == plan
        second.close()

    def test_append_after_recovery_extends_the_log(self, tmp_path) -> None:
        first = WalBackend(str(tmp_path))
        first.put("a", version(1.0))
        first.close()
        second = WalBackend(str(tmp_path))
        second.put("b", version(2.0))
        second.close()
        third = WalBackend(str(tmp_path))
        assert set(third.versions) == {"a", "b"}
        third.close()

    def test_fsync_batch_must_be_positive(self, tmp_path) -> None:
        with pytest.raises(ConfigurationError):
            WalBackend(str(tmp_path), fsync_batch=0)


class TestTornTail:
    def test_torn_record_is_truncated_not_fatal(self, tmp_path) -> None:
        first = WalBackend(str(tmp_path))
        first.put("a", version(1.0, b"keep"))
        first.put("b", version(2.0, b"keep"))
        first.close()
        # A crash mid-append leaves a half-written record at the tail.
        with open(first.wal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x40GARBAGE")

        second = WalBackend(str(tmp_path))
        assert second.records_truncated == 1
        assert set(second.versions) == {"a", "b"}
        # The tail was cut off on disk: appends splice after valid data.
        second.put("c", version(3.0))
        second.close()
        third = WalBackend(str(tmp_path))
        assert set(third.versions) == {"a", "b", "c"}
        assert third.records_truncated == 0
        third.close()

    def test_corrupt_crc_ends_replay_at_the_flip(self, tmp_path) -> None:
        first = WalBackend(str(tmp_path))
        first.put("a", version(1.0))
        first.put("b", version(2.0))
        first.close()
        with open(first.wal_path, "r+b") as handle:
            data = handle.read()
            handle.seek(len(data) - 1)
            handle.write(bytes([data[-1] ^ 0xFF]))  # flip last body byte
        second = WalBackend(str(tmp_path))
        assert second.records_replayed == 1  # only the intact prefix
        assert second.records_truncated == 1
        assert set(second.versions) == {"a"}
        second.close()

    def test_unknown_tag_ends_replay_like_a_crc_failure(
        self, tmp_path
    ) -> None:
        first = WalBackend(str(tmp_path))
        first.put("a", version(1.0))
        first.close()
        # CRC-valid, decodable, but no record this backend ever writes.
        with open(first.wal_path, "ab") as handle:
            handle.write(frame(("delete", "a")))
            handle.write(frame(("put", "b", version(2.0))))
        second = WalBackend(str(tmp_path))
        assert second.records_replayed == 1
        assert second.records_truncated == 1
        assert set(second.versions) == {"a"}
        second.close()
        assert [r[0] for r in frames_of(read(first.wal_path))] == [
            frame(("put", "a", version(1.0)))
        ]

    def test_undecodable_record_ends_replay_like_a_crc_failure(
        self, tmp_path
    ) -> None:
        first = WalBackend(str(tmp_path))
        first.put("a", version(1.0))
        first.close()
        # CRC-valid, but the object id is invalid UTF-8 ("é" -> ff fe).
        body = encode_value(("put", "\u00e9", version(2.0)))
        body = body.replace("\u00e9".encode(), b"\xff\xfe")
        with open(first.wal_path, "ab") as handle:
            handle.write(len(body).to_bytes(4, "big"))
            handle.write(zlib.crc32(body).to_bytes(4, "big"))
            handle.write(body)
        second = WalBackend(str(tmp_path))
        assert second.records_replayed == 1
        assert second.records_truncated == 1
        assert set(second.versions) == {"a"}
        second.close()


class TestSnapshot:
    def test_snapshot_truncates_wal_and_survives_restart(
        self, tmp_path
    ) -> None:
        backend = WalBackend(str(tmp_path), snapshot_bytes=1)
        # Every append crosses the 1-byte threshold: snapshot each time.
        backend.put("a", version(1.0, b"one"))
        assert backend.snapshots_taken == 1
        assert os.path.getsize(backend.wal_path) == 0
        backend.set_epoch(2, 3)
        backend.close()

        second = WalBackend(str(tmp_path))
        assert second.versions["a"].value == b"one"
        assert second.recovered_state()[:2] == (2, 3)
        # Snapshot already holds everything: nothing left in the WAL.
        assert second.records_replayed == 0
        second.close()

    def test_fsync_batching_counts(self, tmp_path) -> None:
        backend = WalBackend(str(tmp_path), fsync_batch=2)
        backend.put("a", version(1.0))
        assert backend.fsyncs == 0  # below the batch threshold
        backend.put("b", version(2.0))
        assert backend.fsyncs == 1  # batch boundary
        backend.flush()
        assert backend.fsyncs == 1  # nothing pending: flush is a no-op
        backend.close()

    def test_snapshot_is_the_wal_compacted_frame_for_frame(
        self, tmp_path
    ) -> None:
        plan = QuorumPlan.uniform(QuorumConfig(2, 4))
        backend = WalBackend(str(tmp_path), snapshot_bytes=1 << 30)
        backend.put("a", version(1.0, b"old"))
        backend.put("b", version(2.0, b"bee"))
        backend.set_epoch(4, 6, plan)
        backend.put("a", version(3.0, b"new"))
        backend.flush()
        wal = dict(
            (record[1], raw)
            for raw, record in frames_of(read(backend.wal_path))
            if record[0] == "put"
        )  # later frames win: the latest put per object
        backend.snapshot()
        snapshot = frames_of(read(backend.snapshot_path))
        assert snapshot[0][1] == ("epoch", 4, 6, plan)
        # Each object's latest WAL frame, byte for byte: CRC copied.
        assert [raw for raw, _record in snapshot[1:]] == [wal["a"], wal["b"]]
        assert os.path.getsize(backend.wal_path) == 0

        # A second compaction copies from the first snapshot and the WAL.
        backend.put("c", version(4.0, b"sea"))
        backend.snapshot()
        again = frames_of(read(backend.snapshot_path))
        assert [record[1] for _raw, record in again[1:]] == ["a", "b", "c"]
        assert [raw for raw, _record in again[1:3]] == [wal["a"], wal["b"]]
        backend.close()

    def test_fsync_order_tmp_replace_dir_truncate_wal(
        self, tmp_path, monkeypatch
    ) -> None:
        backend = WalBackend(str(tmp_path), snapshot_bytes=1 << 30)
        backend.put("a", version(1.0))
        backend.put("b", version(2.0))
        backend.flush()
        tmp = backend.snapshot_path + ".tmp"
        calls = []

        def name(fd: int) -> str:
            for label, path in (
                ("tmp", tmp),
                ("dir", str(tmp_path)),
                ("wal", backend.wal_path),
            ):
                if os.path.exists(path) and os.path.samestat(
                    os.fstat(fd), os.stat(path)
                ):
                    return label
            return "?"

        real_fsync, real_replace = os.fsync, os.replace
        real_ftruncate = os.ftruncate

        def fsync(fd: int) -> None:
            calls.append(("fsync", name(fd)))
            real_fsync(fd)

        def replace(src: str, dst: str) -> None:
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        def ftruncate(fd: int, length: int) -> None:
            calls.append(("truncate", name(fd)))
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "ftruncate", ftruncate)
        backend.snapshot()
        monkeypatch.undo()
        assert calls == [
            ("fsync", "tmp"),
            ("replace", "snapshot.bin"),
            ("fsync", "dir"),
            ("truncate", "wal"),
            ("fsync", "wal"),
        ]
        backend.close()

    @pytest.mark.parametrize("objects", [1, 200])
    def test_snapshot_encodes_only_the_epoch_record(
        self, tmp_path, monkeypatch, objects: int
    ) -> None:
        backend = WalBackend(str(tmp_path), snapshot_bytes=1 << 30)
        for index in range(objects):
            backend.put(f"obj-{index}", version(float(index), b"x" * 64))
        encoded = []

        def counting(value: object) -> bytes:
            encoded.append(value)
            return encode_value(value)

        monkeypatch.setattr(persistence, "encode_value", counting)
        backend.snapshot()
        backend.snapshot()  # the second copies from the first snapshot
        assert [value[0] for value in encoded] == ["epoch", "epoch"]
        backend.close()


class TestCorruptSnapshot:
    """``snapshot.bin`` is trusted whole or not at all."""

    @staticmethod
    def _snapshotted(directory: str) -> WalBackend:
        backend = WalBackend(directory, snapshot_bytes=1 << 30)
        for index in range(4):
            backend.put(f"snap-{index}", version(float(index + 1)))
        backend.snapshot()
        backend.put("wal-0", version(9.0))
        backend.set_epoch(3, 5)
        backend.close()
        return backend

    def test_crc_flip_mid_snapshot_discards_it_and_replays_the_wal(
        self, tmp_path
    ) -> None:
        first = self._snapshotted(str(tmp_path))
        data = bytearray(read(first.snapshot_path))
        data[len(data) // 2] ^= 0xFF
        with open(first.snapshot_path, "wb") as handle:
            handle.write(data)
        second = WalBackend(str(tmp_path))
        assert second.recovered is True  # rejoins quarantined, I6 re-syncs
        assert second.snapshots_discarded == 1
        assert set(second.versions) == {"wal-0"}
        assert second.recovered_state()[:2] == (3, 5)
        # Nothing points into the rejected file: compaction still works.
        second.snapshot()
        second.close()
        third = WalBackend(str(tmp_path))
        assert third.snapshots_discarded == 0
        assert set(third.versions) == {"wal-0"}
        third.close()

    def test_single_record_legacy_snapshot_is_discarded(
        self, tmp_path
    ) -> None:
        with open(tmp_path / "snapshot.bin", "wb") as handle:
            handle.write(
                frame(("snapshot", 2, 2, None, {"old": version(1.0)}))
            )
        with open(tmp_path / "wal.bin", "wb") as handle:
            handle.write(frame(("put", "new", version(2.0))))
        backend = WalBackend(str(tmp_path))
        assert backend.recovered is True
        assert backend.snapshots_discarded == 1
        assert backend.records_replayed == 1
        assert set(backend.versions) == {"new"}
        assert backend.recovered_state() == (0, 0, None)
        backend.close()

    def test_truncated_snapshot_is_discarded(self, tmp_path) -> None:
        first = self._snapshotted(str(tmp_path))
        size = os.path.getsize(first.snapshot_path)
        os.truncate(first.snapshot_path, size - 3)
        second = WalBackend(str(tmp_path))
        assert second.snapshots_discarded == 1
        assert set(second.versions) == {"wal-0"}
        second.close()


class TestModel:
    """Seeded random operations against a dict model of the store."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_operations_match_a_dict(self, tmp_path, seed) -> None:
        rng = random.Random(seed)
        directory = str(tmp_path)
        plans = [None, QuorumPlan.uniform(QuorumConfig(2, 4))]
        model: Dict[str, Version] = {}
        epoch: Tuple[int, int, Optional[QuorumPlan]] = (0, 0, None)
        backend = WalBackend(directory, fsync_batch=3, snapshot_bytes=700)
        snapshots = 0

        def reopen(torn: bool = False) -> WalBackend:
            nonlocal snapshots
            backend.close()
            snapshots += backend.snapshots_taken
            if torn:
                with open(backend.wal_path, "ab") as handle:
                    handle.write(frame(("put", "torn", version(0.0)))[:-2])
            fresh = WalBackend(directory, fsync_batch=3, snapshot_bytes=700)
            assert fresh.snapshots_discarded == 0
            assert fresh.records_truncated == (1 if torn else 0)
            if rng.random() < 0.5:
                fresh.snapshot()  # compaction straight after a reopen
            return fresh

        for step in range(300):
            roll = rng.random()
            if roll < 0.6:
                object_id = f"obj-{rng.randrange(12)}"
                held = version(float(step), b"%d" % step * rng.randrange(1, 40))
                model[object_id] = held
                backend.put(object_id, held)
            elif roll < 0.7:
                epoch = (step, step + 1, rng.choice(plans))
                backend.set_epoch(*epoch)
            elif roll < 0.8:
                backend.snapshot()
            elif roll < 0.88:
                backend.flush()
            elif roll < 0.96:
                backend = reopen()
            else:
                backend = reopen(torn=True)
            assert backend.versions == model
            assert backend.recovered_state() == epoch
        backend = reopen()
        assert backend.versions == model
        assert backend.recovered_state() == epoch
        backend.close()
        assert snapshots + backend.snapshots_taken > 10


_KILLER = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro.common.types import QuorumConfig, Version, VersionStamp
from repro.sds.persistence import WalBackend
from repro.sds.quorum import QuorumPlan

TRAP = {trap!r}
directory = {directory!r}
tmp = os.path.join(directory, "snapshot.bin.tmp")
backend = WalBackend(directory, fsync_batch=1, snapshot_bytes={snapshot_bytes})
armed = False


def die():
    os.kill(os.getpid(), signal.SIGKILL)  # no close(), no atexit, nothing


def trap(name, real, fires):
    def wrapper(*args):
        result = real(*args)
        if armed and TRAP == name and fires(*args):
            die()
        return result
    setattr(os, name.split(":")[0], wrapper)


trap("fsync:tmp", os.fsync, lambda fd: os.path.exists(tmp)
     and os.path.samestat(os.fstat(fd), os.stat(tmp)))
trap("replace", os.replace, lambda *_: True)
trap("ftruncate", os.ftruncate, lambda *_: True)
copies = []
trap("pread", os.pread, lambda *_: copies.append(1) or len(copies) == 3)

for index in range({puts}):
    if index == 3:
        backend.set_epoch(9, 9, QuorumPlan.uniform(QuorumConfig(2, 4)))
    # Arm once a snapshot exists, so compaction also copies from it.
    armed = backend.snapshots_taken > 0
    os.write(1, b"put %d\\n" % index)
    backend.put(
        "obj-%d" % (index % 5),
        Version(
            value=b"durable-%d" % index,
            stamp=VersionStamp(float(index + 1), "proxy-0"),
            size=16,
            cfg_no=0,
        ),
    )
os.write(1, b"ready\\n")
die()
"""

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _kill_writer(
    directory: str, trap: str = "", snapshot_bytes: int = 4 << 20, puts: int = 5
) -> int:
    """Run a writer that SIGKILLs itself; returns the last put begun."""
    process = subprocess.run(
        [
            sys.executable,
            "-c",
            _KILLER.format(
                src=_SRC,
                directory=directory,
                trap=trap,
                snapshot_bytes=snapshot_bytes,
                puts=puts,
            ),
        ],
        capture_output=True,
        timeout=60,
    )
    assert process.returncode == -9, process.stderr  # died by SIGKILL
    lines = process.stdout.decode().split()
    assert (lines[-1] == "ready") == (trap == "")
    return max(int(n) for n in lines if n.isdigit())


def _expected(last: int) -> Dict[str, bytes]:
    return {
        "obj-%d" % (index % 5): b"durable-%d" % index
        for index in range(last + 1)
    }


class TestKillNine:
    def test_sigkill_then_replay_recovers_fsynced_records(
        self, tmp_path
    ) -> None:
        """The acceptance scenario: kill -9 a writer, replay its WAL.

        ``fsync_batch=1`` makes every record durable at append time, so
        a SIGKILL immediately after the last append must lose nothing.
        """
        directory = str(tmp_path / "wal")
        last = _kill_writer(directory)
        assert last == 4

        backend = WalBackend(directory)
        assert backend.recovered is True
        assert backend.records_replayed == 6  # 5 puts + 1 epoch
        assert backend.records_truncated == 0
        assert {
            object_id: held.value for object_id, held in backend.versions.items()
        } == {"obj-%d" % i: b"durable-%d" % i for i in range(5)}
        assert backend.recovered_state()[:2] == (9, 9)
        backend.close()

    @pytest.mark.parametrize(
        "trap",
        [
            "fsync:tmp",  # tmp durable, old snapshot + full WAL in place
            "replace",  # new snapshot in place, WAL not yet truncated
            "ftruncate",  # WAL truncated, its fsync not yet issued
            "pread",  # mid-copy: a partial snapshot.bin.tmp left behind
        ],
    )
    def test_sigkill_inside_compaction_loses_nothing(
        self, tmp_path, trap: str
    ) -> None:
        """``fsync_batch=1`` and a small ``snapshot_bytes``: the writer
        is killed inside its second or later compaction, and the put
        that triggered it was already fsynced, so nothing may be lost."""
        directory = str(tmp_path / "wal")
        last = _kill_writer(directory, trap, snapshot_bytes=400, puts=200)
        assert last > 3  # the epoch went in before the kill
        tmp = os.path.join(directory, "snapshot.bin.tmp")
        assert os.path.exists(tmp) == (trap in ("fsync:tmp", "pread"))

        backend = WalBackend(directory, snapshot_bytes=400)
        assert backend.snapshots_discarded == 0
        assert backend.records_truncated == 0
        plan = QuorumPlan.uniform(QuorumConfig(2, 4))
        assert backend.recovered_state() == (9, 9, plan)
        recovered = {
            object_id: held.value for object_id, held in backend.versions.items()
        }
        assert recovered == _expected(last)
        # The stale tmp is simply overwritten by the next compaction.
        backend.snapshot()
        assert not os.path.exists(tmp)
        backend.close()
        again = WalBackend(directory)
        assert {
            object_id: held.value for object_id, held in again.versions.items()
        } == _expected(last)
        assert again.recovered_state() == (9, 9, plan)
        again.close()
