"""Kernels for the hot simulation paths.

Two data structures dominate the inner loop of every run: the time-ordered
action calendar that drives the virtual clock, and the XOR hash table that
tracks causal trees for at-least-once delivery.  Both are deterministic
(same pop order, same sweep results), so runs are bit-reproducible.

The calendar groups its entries by fire time: most pushes land on a
millisecond that already waits (a degenerate calendar queue, Brown, CACM
1988), so only a push to a new millisecond touches a heap.
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

    Entries wait in one list per millisecond, in push order; a heap holds
    only the distinct pending milliseconds.  ``pop`` walks the earliest
    millisecond's list, the open one, by index: a push to the open
    millisecond or to another pending one appends to its list, and only a
    push to a new millisecond touches the heap.  A push earlier than the
    open millisecond puts the open list's unpopped rest back as a pending
    list and opens its own millisecond, so any push sequence pops in exact
    (time, seq) order.  The engine never pushes into the past, but that
    path stays: ``perfbench/micro.py``'s ``calendar_ns_per_op`` pushes
    uniform random times, and about 15 % of them land before the open
    millisecond.  Every pending millisecond is later than the open one,
    which starts at 0 with an empty list; no fire time is reserved, so
    negative times are legal.
    Popped entries stay in the open list until the next millisecond opens.
    Many data hops never reach the calendar as arrivals: the engine places
    them in the sending action, into a ready target's service slot or queue,
    at any delay, and pushes only the completions (SimulationEngine.deliver).
    """

    __slots__ = ("_times", "_waiting", "_open", "_open_ms", "_i", "_popped", "_next_seq")

    def __init__(self) -> None:
        self._times: list[int] = []  # heap of the milliseconds in _waiting
        self._waiting: dict[int, list[tuple[int, int, object]]] = {}
        self._open: list[tuple[int, int, object]] = []
        self._open_ms = 0
        self._i = 0  # index of the open list's next entry
        self._popped = 0  # entries popped before the open list
        self._next_seq = 0

    def __len__(self) -> int:
        return self._next_seq - self._popped - self._i

    def push(self, fire_ms: int, payload: object) -> int:
        seq = self._next_seq
        self._next_seq = seq + 1
        if fire_ms == self._open_ms:
            self._open.append((fire_ms, seq, payload))
        else:
            entries = self._waiting.get(fire_ms)
            if entries is not None:
                entries.append((fire_ms, seq, payload))
            elif fire_ms > self._open_ms:
                self._waiting[fire_ms] = [(fire_ms, seq, payload)]
                heappush(self._times, fire_ms)
            else:
                self._reopen((fire_ms, seq, payload))
        return seq

    def pop(self) -> tuple[int, int, object]:
        i = self._i
        entries = self._open
        if i < len(entries):
            self._i = i + 1
            return entries[i]
        fire_ms = heappop(self._times)  # IndexError when the calendar is empty
        self._popped += i
        self._open = entries = self._waiting.pop(fire_ms)
        self._open_ms = fire_ms
        self._i = 1
        return entries[0]

    def _reopen(self, entry: tuple[int, int, object]) -> None:
        """Open the millisecond of ``entry``, earlier than the open one."""
        i = self._i
        if i < len(self._open):
            self._waiting[self._open_ms] = self._open[i:]
            heappush(self._times, self._open_ms)
        self._popped += i
        self._open = [entry]
        self._open_ms = entry[0]
        self._i = 0


class AckerTable:
    """Per-root XOR accumulators with timeout sweeps.

    Each entry folds event ids into a 64-bit hash: once when an event is
    anchored, once when it is acked.  A hash returning to zero on an ack
    marks the causal tree complete.  Completed entries stay visible (for
    the at-least-once bookkeeping of the caller) until discarded.

    An entry is the list ``[hash, register_ts, done, rootSeqNo, epoch]``:
    the last two are the root's, for its replays.  ``register`` returns it,
    so a caller may hold it as a handle and fold ids into it without a
    lookup: an anchor or an ack is ``e[0] ^= id``, and an ack that zeroes
    the hash completes the root.  The handle stays exact: ``sweep`` re-arms
    an entry in place, so a replay holds the same object.  A caller that
    discards each root at completion may fold into a dropped handle
    unguarded: no lookup or sweep reads the entry again.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: dict[int, list] = {}  # root_id -> entry

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, root_id: int, ts_ms: int, seq: int = 0, epoch: int = 0) -> list | None:
        """Track a new root; the root id counts as anchored once.

        Returns the root's entry (the handle), or None if the root is
        already tracked (caller raises).  A swept root is re-armed by
        ``sweep`` itself.
        """
        if root_id in self._entries:
            return None
        entry = self._entries[root_id] = [root_id, ts_ms, False, seq, epoch]
        return entry

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

    def discard(self, root_id: int) -> bool:
        """Stop tracking a root; True if it was tracked."""
        return self._entries.pop(root_id, None) is not None

    def pending_count(self) -> int:
        n = 0
        for entry in self._entries.values():
            if not entry[2]:
                n += 1
        return n

    def sweep(self, now_ms: int, timeout_ms: int) -> list[tuple[int, list]]:
        """``(root_id, entry)`` of each root whose tree is incomplete after
        ``timeout_ms``, in insertion order for determinism.  Each is re-armed
        in place (hash = root id, register_ts = now) for the caller to
        re-emit; the next sweep sees the fresh timestamp."""
        expired = []
        for root_id, entry in self._entries.items():
            if not entry[2] and now_ms - entry[1] >= timeout_ms:
                entry[0] = root_id
                entry[1] = now_ms
                expired.append((root_id, entry))
        return expired


def active_backend() -> str:
    """Name of the kernel implementation; benchmark runs record it."""
    return "pure"
