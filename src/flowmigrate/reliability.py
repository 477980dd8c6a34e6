"""At-least-once acknowledgment service and the checkpoint state store.

The acker keeps one XOR accumulator per root event: every causally derived
event id is folded in when anchored and folded out when acked, so a zero
hash after an ack means the whole tree was processed.  Expired roots are
harvested in sweeps and replayed by the source.

The store holds per-instance checkpoint records through a prepare/commit
protocol.  Writes are charged a modeled latency (base cost per record plus
a per-byte cost) calibrated so that persisting 2000 captured events costs
about 100 ms.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

from . import _kernels
from .errors import (
    CommitWithoutPrepareError,
    DuplicateRootError,
    StoreUnavailableError,
    UnknownRootError,
)

PREPARED = "PREPARED"
COMMITTED = "COMMITTED"


class AckerService:
    """Causal-tree tracking via 64-bit XOR hashes, with timeout sweeps."""

    def __init__(self, timeout_ms: int) -> None:
        self.timeout_ms = timeout_ms
        self._table = _kernels.AckerTable()

    def __len__(self) -> int:
        return len(self._table)

    def register_root(self, root_id: int, ts_ms: int) -> None:
        """Start tracking a root; its own id counts as anchored once."""
        if not self._table.register(root_id, ts_ms):
            raise DuplicateRootError(f"root {root_id:#x} already registered")

    def anchor_emit(self, root_id: int, child_event_id: int) -> None:
        """Fold a newly emitted event into its root's tree."""
        status = self._table.anchor(root_id, child_event_id)
        if status == _kernels.ACK_UNKNOWN:
            raise UnknownRootError(f"anchor on unknown root {root_id:#x}")

    def ack_event(self, root_id: int, event_id: int) -> bool:
        """Fold a processed event out of the tree; True when it completed."""
        status = self._table.ack(root_id, event_id)
        if status == _kernels.ACK_UNKNOWN:
            raise UnknownRootError(f"ack on unknown root {root_id:#x}")
        return status == _kernels.ACK_COMPLETED

    def anchor_if_tracked(self, root_id: int, child_event_id: int) -> None:
        """Anchor, ignoring roots already discarded or completed.

        Late traffic for a root that finished via another delivery is
        normal under at-least-once; it must not corrupt the table.
        """
        self._table.anchor(root_id, child_event_id)

    def ack_if_tracked(self, root_id: int, event_id: int) -> bool:
        status = self._table.ack(root_id, event_id)
        return status == _kernels.ACK_COMPLETED

    def is_completed(self, root_id: int) -> bool:
        return self._table.is_completed(root_id)

    def is_tracked(self, root_id: int) -> bool:
        return self._table.contains(root_id)

    def hash_of(self, root_id: int) -> int:
        return self._table.hash_of(root_id)

    def discard(self, root_id: int) -> None:
        self._table.discard(root_id)

    def pending_count(self) -> int:
        return self._table.pending_count()

    def sweep_timeouts(self, now_ms: int) -> list[int]:
        """Roots overdue for replay; their entries are re-armed in place."""
        return self._table.sweep(now_ms, self.timeout_ms)


@dataclass
class CheckpointRecord:
    instanceId: str
    checkpointId: int
    userStateBlob: bytes
    pendingEventsBlob: bytes | None = None
    phase: str = PREPARED
    writeTs: int = 0

    def payload_size(self) -> int:
        size = len(self.userStateBlob)
        if self.pendingEventsBlob is not None:
            size += len(self.pendingEventsBlob)
        return size


@dataclass
class StoreLatencyModel:
    """Write cost: fixed per record plus per byte, in milliseconds."""

    write_base_ms: float = 0.4
    write_per_byte_ms: float = 0.0013

    def write_latency_ms(self, record: CheckpointRecord) -> int:
        cost = self.write_base_ms + self.write_per_byte_ms * record.payload_size()
        return max(1, round(cost))


class StateStore:
    """Checkpoint records keyed by (instanceId, checkpointId).

    The file backend keeps one file per record so committed state survives
    a process restart within a scenario run; the in-memory backend is the
    default for simulation.
    """

    def __init__(self, backend: str = "memory", directory: str | Path | None = None,
                 latency: StoreLatencyModel | None = None) -> None:
        if backend not in ("memory", "file"):
            raise ValueError(f"unknown store backend {backend!r}")
        self.backend = backend
        self.latency = latency or StoreLatencyModel()
        self._records: dict[tuple[str, int], CheckpointRecord] = {}
        self._dir: Path | None = None
        if backend == "file":
            if directory is None:
                raise ValueError("file backend needs a directory")
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._load_existing()

    # -- protocol ----------------------------------------------------------

    def prepare(self, record: CheckpointRecord) -> CheckpointRecord:
        record.phase = PREPARED
        self._records[(record.instanceId, record.checkpointId)] = record
        if self._dir is not None:
            self._write_file(record)
        return record

    def commit(self, instance_id: str, checkpoint_id: int, write_ts: int = 0) -> CheckpointRecord:
        record = self._records.get((instance_id, checkpoint_id))
        if record is None:
            raise CommitWithoutPrepareError(
                f"no prepared record for ({instance_id}, {checkpoint_id})"
            )
        record.phase = COMMITTED
        record.writeTs = write_ts
        if self._dir is not None:
            self._write_file(record)
        return record

    def get_latest_committed(self, instance_id: str) -> CheckpointRecord | None:
        best: CheckpointRecord | None = None
        for (inst, _ckpt), record in self._records.items():
            if inst == instance_id and record.phase == COMMITTED:
                if best is None or record.checkpointId > best.checkpointId:
                    best = record
        return best

    def get(self, instance_id: str, checkpoint_id: int) -> CheckpointRecord | None:
        return self._records.get((instance_id, checkpoint_id))

    def discard_prepared(self, instance_id: str, checkpoint_id: int) -> None:
        record = self._records.get((instance_id, checkpoint_id))
        if record is not None and record.phase == PREPARED:
            del self._records[(instance_id, checkpoint_id)]
            if self._dir is not None:
                path = self._file_path(record.instanceId, record.checkpointId)
                if path.exists():
                    path.unlink()

    def write_latency_ms(self, record: CheckpointRecord) -> int:
        return self.latency.write_latency_ms(record)

    # -- file layout -------------------------------------------------------
    #
    # One file per (instanceId, checkpointId):
    #   magic 'FMCK' | version u8 | phase u8 (0=PREPARED, 1=COMMITTED)
    #   | instance-id length u16 | instance-id utf-8 bytes
    #   | checkpointId i64 | writeTs i64
    #   | user blob length u32 | pending blob length u32 (0xFFFFFFFF = none)
    #   | user blob | pending blob
    # All integers little-endian.

    _MAGIC = b"FMCK"
    _NO_PENDING = 0xFFFFFFFF

    def _file_path(self, instance_id: str, checkpoint_id: int) -> Path:
        assert self._dir is not None
        safe = instance_id.replace("/", "_").replace("#", "_")
        return self._dir / f"{safe}.{checkpoint_id}.ckpt"

    def _write_file(self, record: CheckpointRecord) -> None:
        inst_bytes = record.instanceId.encode("utf-8")
        pending = record.pendingEventsBlob
        header = (
            self._MAGIC
            + struct.pack("<BB", 1, 1 if record.phase == COMMITTED else 0)
            + struct.pack("<H", len(inst_bytes))
            + inst_bytes
            + struct.pack("<qq", record.checkpointId, record.writeTs)
            + struct.pack(
                "<II",
                len(record.userStateBlob),
                self._NO_PENDING if pending is None else len(pending),
            )
        )
        path = self._file_path(record.instanceId, record.checkpointId)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                fh.write(record.userStateBlob)
                if pending is not None:
                    fh.write(pending)
            os.replace(tmp, path)
        except OSError as exc:
            raise StoreUnavailableError(f"write failed for {path}: {exc}") from None

    @classmethod
    def read_record_file(cls, path: str | Path) -> CheckpointRecord:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise StoreUnavailableError(f"read failed for {path}: {exc}") from None
        if raw[:4] != cls._MAGIC:
            raise StoreUnavailableError(f"{path}: bad magic")
        _version, phase_byte = struct.unpack_from("<BB", raw, 4)
        (inst_len,) = struct.unpack_from("<H", raw, 6)
        offset = 8
        instance_id = raw[offset : offset + inst_len].decode("utf-8")
        offset += inst_len
        checkpoint_id, write_ts = struct.unpack_from("<qq", raw, offset)
        offset += 16
        user_len, pending_len = struct.unpack_from("<II", raw, offset)
        offset += 8
        user_blob = raw[offset : offset + user_len]
        offset += user_len
        pending_blob: bytes | None
        if pending_len == cls._NO_PENDING:
            pending_blob = None
        else:
            pending_blob = raw[offset : offset + pending_len]
        return CheckpointRecord(
            instanceId=instance_id,
            checkpointId=checkpoint_id,
            userStateBlob=user_blob,
            pendingEventsBlob=pending_blob,
            phase=COMMITTED if phase_byte == 1 else PREPARED,
            writeTs=write_ts,
        )

    def _load_existing(self) -> None:
        assert self._dir is not None
        for path in sorted(self._dir.glob("*.ckpt")):
            record = self.read_record_file(path)
            self._records[(record.instanceId, record.checkpointId)] = record
