"""Kernels for the hot simulation paths.

Two data structures dominate the inner loop of every run: the time-ordered
action calendar that drives the virtual clock, and the XOR hash table that
tracks causal trees for at-least-once delivery.  Both are deterministic
(same pop order, same sweep results), so runs are bit-reproducible.
"""

from __future__ import annotations

from heapq import heappop, heappush

# ack() result codes
ACK_OK = 0
ACK_COMPLETED = 1
ACK_UNKNOWN = 2
ACK_ALREADY_DONE = 3


class EventCalendar:
    """Actions in (fire_time_ms, sequence) order, as (time, seq, payload).

    Sequence numbers are assigned on push, so actions scheduled for the
    same millisecond fire in insertion order.  Payloads are never compared.
    One binary heap holds every entry.  Most zero-delay data hops never
    reach it: the engine serves them in the sending action (see
    SimulationEngine.deliver).
    """

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, object]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, fire_ms: int, payload: object) -> int:
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (fire_ms, seq, payload))
        return seq

    def pop(self) -> tuple[int, int, object]:
        return heappop(self._heap)  # IndexError when the calendar is empty


class AckerTable:
    """Per-root XOR accumulators with timeout sweeps.

    Each entry folds event ids into a 64-bit hash: once when an event is
    anchored, once when it is acked.  A hash returning to zero on an ack
    marks the causal tree complete.  Completed entries stay visible (for
    the at-least-once bookkeeping of the caller) until discarded.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # root_id -> [xor_hash, register_ts, completed]
        self._entries: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, root_id: int, ts_ms: int) -> bool:
        """Track a new root; the root id counts as anchored once.

        Returns False if the root is already tracked (caller raises).
        A swept root is re-armed by ``sweep`` itself.
        """
        if root_id in self._entries:
            return False
        self._entries[root_id] = [root_id, ts_ms, False]
        return True

    def anchor(self, root_id: int, event_id: int) -> int:
        """XOR a newly created event into the tree. Result codes as ack()."""
        entry = self._entries.get(root_id)
        if entry is None:
            return ACK_UNKNOWN
        if entry[2]:
            return ACK_ALREADY_DONE
        entry[0] ^= event_id
        return ACK_OK

    def ack(self, root_id: int, event_id: int) -> int:
        """XOR a processed event out of the tree; detect completion."""
        entry = self._entries.get(root_id)
        if entry is None:
            return ACK_UNKNOWN
        if entry[2]:
            return ACK_ALREADY_DONE
        entry[0] ^= event_id
        if entry[0] == 0:
            entry[2] = True
            return ACK_COMPLETED
        return ACK_OK

    def is_completed(self, root_id: int) -> bool:
        entry = self._entries.get(root_id)
        return entry is not None and entry[2]

    def contains(self, root_id: int) -> bool:
        return root_id in self._entries

    def hash_of(self, root_id: int) -> int:
        entry = self._entries.get(root_id)
        if entry is None:
            raise KeyError(root_id)
        return entry[0]

    def discard(self, root_id: int) -> None:
        self._entries.pop(root_id, None)

    def pending_count(self) -> int:
        n = 0
        for entry in self._entries.values():
            if not entry[2]:
                n += 1
        return n

    def sweep(self, now_ms: int, timeout_ms: int) -> list[int]:
        """Roots whose tree is incomplete after ``timeout_ms``.

        Matches insertion order for determinism.  Swept entries are
        re-armed (hash = root id, register_ts = now) so the caller can
        re-emit them; the next sweep sees the fresh timestamp.
        """
        expired: list[int] = []
        for root_id, entry in self._entries.items():
            if not entry[2] and now_ms - entry[1] >= timeout_ms:
                expired.append(root_id)
        for root_id in expired:
            entry = self._entries[root_id]
            entry[0] = root_id
            entry[1] = now_ms
            entry[2] = False
        return expired


def active_backend() -> str:
    """Name of the kernel implementation; benchmark runs record it."""
    return "pure"
