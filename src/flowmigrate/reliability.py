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

from dataclasses import dataclass

from . import _kernels
from .errors import InvariantViolation

PREPARED = "PREPARED"
COMMITTED = "COMMITTED"


class AckerService:
    """Causal-tree tracking via 64-bit XOR hashes, with timeout sweeps.

    ``table`` is public.  The engine's per-event data path holds each
    root's table entry, from ``register_root``, and folds anchors and acks
    into it inline, skipping a call and a lookup per event (see
    ``_kernels.AckerTable`` for the handle contract).
    """

    def __init__(self, timeout_ms: int) -> None:
        self.timeout_ms = timeout_ms
        self.table = _kernels.AckerTable()

    def __len__(self) -> int:
        return len(self.table)

    def register_root(self, root_id: int, ts_ms: int) -> list:
        """Start tracking a root; its own id counts as anchored once.
        Returns the root's entry, ``[hash, register_ts, done]``."""
        entry = self.table.register(root_id, ts_ms)
        if entry is None:
            raise InvariantViolation(f"root {root_id:#x} already registered")
        return entry

    def anchor_emit(self, root_id: int, child_event_id: int) -> None:
        """Fold a newly emitted event into its root's tree."""
        status = self.table.anchor(root_id, child_event_id)
        if status == _kernels.ACK_UNKNOWN:
            raise InvariantViolation(f"anchor on unknown root {root_id:#x}")

    def ack_event(self, root_id: int, event_id: int) -> bool:
        """Fold a processed event out of the tree; True when it completed."""
        status = self.table.ack(root_id, event_id)
        if status == _kernels.ACK_UNKNOWN:
            raise InvariantViolation(f"ack on unknown root {root_id:#x}")
        return status == _kernels.ACK_COMPLETED

    def anchor_if_tracked(self, root_id: int, child_event_id: int) -> None:
        """Anchor, ignoring roots already discarded or completed.

        Late traffic for a root that finished via another delivery is
        normal under at-least-once; it must not corrupt the table.
        """
        self.table.anchor(root_id, child_event_id)

    def ack_if_tracked(self, root_id: int, event_id: int) -> bool:
        status = self.table.ack(root_id, event_id)
        return status == _kernels.ACK_COMPLETED

    def is_completed(self, root_id: int) -> bool:
        return self.table.is_completed(root_id)

    def is_tracked(self, root_id: int) -> bool:
        return self.table.contains(root_id)

    def hash_of(self, root_id: int) -> int:
        return self.table.hash_of(root_id)

    def discard(self, root_id: int) -> None:
        self.table.discard(root_id)

    def pending_count(self) -> int:
        return self.table.pending_count()

    def sweep_timeouts(self, now_ms: int) -> list[int]:
        """Roots overdue for replay; their entries are re-armed in place."""
        return self.table.sweep(now_ms, self.timeout_ms)


@dataclass
class CheckpointRecord:
    instanceId: str
    checkpointId: int
    userStateBlob: bytes
    pendingEventsBlob: bytes | None = None
    phase: str = PREPARED

    def payload_size(self) -> int:
        size = len(self.userStateBlob)
        if self.pendingEventsBlob is not None:
            size += len(self.pendingEventsBlob)
        return size


class StateStore:
    """Checkpoint records keyed by (instanceId, checkpointId), in memory.

    Each write is charged a fixed cost per record plus a cost per payload
    byte, in milliseconds.
    """

    write_base_ms = 0.4
    write_per_byte_ms = 0.0013

    def __init__(self) -> None:
        self._records: dict[tuple[str, int], CheckpointRecord] = {}

    def prepare(self, record: CheckpointRecord) -> CheckpointRecord:
        record.phase = PREPARED
        self._records[(record.instanceId, record.checkpointId)] = record
        return record

    def commit(self, instance_id: str, checkpoint_id: int) -> CheckpointRecord:
        record = self._records.get((instance_id, checkpoint_id))
        if record is None:
            raise InvariantViolation(
                f"no prepared record for ({instance_id}, {checkpoint_id})"
            )
        record.phase = COMMITTED
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

    def write_latency_ms(self, record: CheckpointRecord) -> int:
        cost = self.write_base_ms + self.write_per_byte_ms * record.payload_size()
        return max(1, round(cost))
