import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowmigrate._kernels import ACK_COMPLETED, ACK_UNKNOWN, AckerTable, EventCalendar

# One calendar operation: push at the last-popped millisecond, push later
# or earlier than it by some milliseconds, or pop.
_calendar_ops = st.lists(st.one_of(
    st.just(("now", 0)),
    st.tuples(st.just("later"), st.integers(1, 50)),
    st.tuples(st.just("earlier"), st.integers(1, 50)),
    st.just(("pop", 0)),
), max_size=300)


@pytest.fixture(autouse=True, params=["pure"])
def _node_id():
    """Keeps the tests' node ids ("...[pure]") from when two kernel
    implementations were compared, so their history stays comparable."""


class TestEventCalendar:
    def test_orders_by_time(self):
        cal = EventCalendar()
        cal.push(30, "c")
        cal.push(10, "a")
        cal.push(20, "b")
        assert [cal.pop()[2] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        cal = EventCalendar()
        for tag in "abcde":
            cal.push(5, tag)
        assert [cal.pop()[2] for _ in range(5)] == list("abcde")

    def test_interleaved_push_pop(self):
        cal = EventCalendar()
        rng = random.Random(42)
        reference = []
        seq = 0
        popped = []
        expected = []
        for _ in range(2000):
            if reference and rng.random() < 0.45:
                reference.sort()
                expected.append(reference.pop(0)[2])
                popped.append(cal.pop()[2])
            else:
                t = rng.randrange(1000)
                reference.append((t, seq, f"p{seq}"))
                cal.push(t, f"p{seq}")
                seq += 1
        while len(cal):
            reference.sort()
            expected.append(reference.pop(0)[2])
            popped.append(cal.pop()[2])
        assert popped == expected

    def test_peek_and_len(self):
        cal = EventCalendar()
        cal.push(7, None)
        assert len(cal) == 1
        assert cal.pop() == (7, 0, None)
        assert len(cal) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventCalendar().pop()

    @given(ops=_calendar_ops)
    def test_any_interleaving_pops_in_time_seq_order(self, ops):
        cal = EventCalendar()
        reference: list[tuple[int, int]] = []  # (time, seq), sorted
        last_popped = 0
        seq = 0
        for op, delta in ops:
            if op == "pop":
                if not reference:
                    with pytest.raises(IndexError):
                        cal.pop()
                    continue
                t, s, payload = cal.pop()
                assert (t, s) == reference.pop(0)
                assert payload == s
                last_popped = t
            else:
                t = {"now": last_popped, "later": last_popped + delta,
                     "earlier": last_popped - delta}[op]
                assert cal.push(t, seq) == seq
                reference.append((t, seq))
                reference.sort()
                seq += 1
            assert len(cal) == len(reference)
        while reference:
            assert cal.pop()[:2] == reference.pop(0)
        assert len(cal) == 0
        with pytest.raises(IndexError):
            cal.pop()

    def test_negative_times_pop_first(self):
        cal = EventCalendar()
        cal.push(-3, "a")
        cal.push(-1, "b")
        cal.push(0, "c")
        assert [cal.pop()[:2] for _ in range(3)] == [(-3, 0), (-1, 1), (0, 2)]

    def test_earlier_push_interrupts_an_open_millisecond(self):
        cal = EventCalendar()
        for tag in "abcd":
            cal.push(10, tag)
        cal.push(12, "e")
        assert cal.pop() == (10, 0, "a")
        assert cal.pop() == (10, 1, "b")
        assert len(cal) == 3
        cal.push(7, "x")  # earlier than the half-popped millisecond 10
        assert len(cal) == 4
        assert cal.pop() == (7, 5, "x")
        assert len(cal) == 3
        cal.push(10, "f")  # joins the rest of millisecond 10, after it
        assert len(cal) == 4
        assert [cal.pop() for _ in range(4)] == [
            (10, 2, "c"), (10, 3, "d"), (10, 6, "f"), (12, 4, "e")]
        assert len(cal) == 0

    def test_push_and_pop_work_after_an_empty_pop(self):
        cal = EventCalendar()
        cal.push(4, "a")
        cal.pop()
        with pytest.raises(IndexError):
            cal.pop()
        assert len(cal) == 0
        cal.push(4, "b")
        cal.push(2, "c")
        assert cal.pop() == (2, 2, "c")
        assert cal.pop() == (4, 1, "b")
        with pytest.raises(IndexError):
            cal.pop()
        cal.push(9, "d")
        assert cal.pop() == (9, 3, "d")
        assert len(cal) == 0

    def test_deep_copy_mid_millisecond_pops_the_same_sequence(self):
        # fork_at_trigger deep-copies the calendar at the trigger's millisecond.
        cal = EventCalendar()
        for i, t in enumerate((5, 5, 5, 8, 5, 3)):
            cal.push(t, i)
        assert cal.pop()[:2] == (3, 5)
        assert cal.pop()[:2] == (5, 0)
        twin = copy.deepcopy(cal)
        for c in (cal, twin):
            c.push(5, "late")
            c.push(1, "early")
        drain = [[c.pop()[:2] for _ in range(len(c))] for c in (cal, twin)]
        assert drain[0] == drain[1] == [(1, 7), (5, 1), (5, 2), (5, 4), (5, 6), (8, 3)]

    def test_growth_beyond_initial_capacity(self):
        cal = EventCalendar()
        for i in range(10_000):
            cal.push(i % 97, i)
        assert len(cal) == 10_000
        last = (-1, -1)
        while len(cal):
            t, seq, _ = cal.pop()
            assert (t, seq) > last
            last = (t, seq)


class TestAckerTable:
    def test_register_anchor_ack_cycle(self):
        table = AckerTable()
        assert table.register(0x5, 0)
        assert table.hash_of(0x5) == 0x5
        table.anchor(0x5, 0x3)
        assert table.hash_of(0x5) == 0x6
        table.ack(0x5, 0x5)
        assert table.hash_of(0x5) == 0x3
        assert table.ack(0x5, 0x3) == 1  # completed
        assert table.is_completed(0x5)

    def test_duplicate_register_refused(self):
        table = AckerTable()
        assert table.register(9, 0)
        assert not table.register(9, 1)

    def test_sweep_reregisters(self):
        table = AckerTable()
        one = table.register(1, 0)
        two = table.register(2, 5_000)
        table.anchor(1, 77)
        assert table.sweep(29_999, 30_000) == []
        assert table.sweep(30_000, 30_000) == [(1, one)]
        # Re-armed: hash back to the root id, fresh timestamp.
        assert table.hash_of(1) == 1
        assert table.sweep(35_000, 30_000) == [(2, two)]
        assert table.sweep(59_999, 30_000) == []
        # Root 1 re-armed at 30s is due again; root 2 (re-armed 35s) is not.
        assert table.sweep(60_000, 30_000) == [(1, one)]
        assert table.sweep(65_000, 30_000) == [(2, two)]

    def test_completed_roots_not_swept(self):
        table = AckerTable()
        table.register(1, 0)
        table.ack(1, 1)
        assert table.sweep(100_000, 30_000) == []

    def test_register_returns_the_entry(self):
        table = AckerTable()
        entry = table.register(0x5, 7)
        assert entry == [0x5, 7, False, 0, 0]
        assert table.register(0x6, 7, 11, 1) == [0x6, 7, False, 11, 1]
        table.anchor(0x5, 0x3)
        assert entry[0] == table.hash_of(0x5) == 0x6

    @given(seed=st.integers(0, 2**32 - 1), n_ops=st.integers(0, 400))
    def test_folding_by_handle_matches_calls_by_id(self, seed, n_ops):
        # Two tables see the same random trees: one through anchor and ack
        # by root id, one through the engine's inline folds into the
        # entries that register returned.  Sweeps and discards go through
        # both by id, and roots stay in play after a discard (late traffic).
        rng = random.Random(seed)
        by_id, by_handle = AckerTable(), AckerTable()
        roots = [rng.getrandbits(64) or 1 for _ in range(rng.randint(1, 8))]
        handles = {}
        live = {}  # root -> ids anchored and not yet acked, as the engine sees them
        for root in roots:
            by_id.register(root, 0)
            handles[root] = by_handle.register(root, 0)
            live[root] = [root]
        now = 0
        for _ in range(n_ops):
            root = rng.choice(roots)
            entry = handles[root]
            op = rng.random()
            if op < 0.4:
                event = rng.getrandbits(64) or 1
                by_id.anchor(root, event)
                if not entry[2]:
                    entry[0] ^= event
                live[root].append(event)
            elif op < 0.85:
                pending = live[root]
                event = (pending.pop(rng.randrange(len(pending))) if pending
                         else rng.getrandbits(64) or 1)
                completed = by_id.ack(root, event) == ACK_COMPLETED
                folded = False
                if not entry[2]:
                    entry[0] ^= event
                    if not entry[0]:
                        entry[2] = folded = True
                # A discarded root's handle still takes folds; no call reads it.
                assert folded == completed or not by_handle.contains(root)
            elif op < 0.95:
                now += rng.randint(1, 20_000)
                swept = by_id.sweep(now, 30_000)
                assert by_handle.sweep(now, 30_000) == swept
                for root_id, _entry in swept:
                    live[root_id] = [root_id]
            else:
                by_id.discard(root)
                by_handle.discard(root)
            assert by_handle._entries == by_id._entries
            for root_id, tracked in by_handle._entries.items():
                assert tracked is handles[root_id]

    def test_a_handle_held_across_discard_is_inert(self):
        table = AckerTable()
        entry = table.register(0x5, 0)
        table.anchor(0x5, 0x3)
        assert table.discard(0x5)  # before the tree completed: hash 0x6
        assert table.ack(0x5, 0x6) == ACK_UNKNOWN
        assert not table.discard(0x5)
        assert entry == [0x6, 0, False, 0, 0]

    def test_sweep_rearms_the_same_entry(self):
        table = AckerTable()
        entry = table.register(1, 0)
        table.anchor(1, 77)
        (root_id, swept), = table.sweep(30_000, 30_000)
        assert root_id == 1 and swept is entry
        assert entry == [1, 30_000, False, 0, 0]
        table.anchor(1, 0x10)  # by id: lands in the handle held since register
        assert entry[0] == 1 ^ 0x10

    def test_discarded_roots_disappear(self):
        table = AckerTable()
        table.register(1, 0)
        table.discard(1)
        assert not table.contains(1)
        assert table.sweep(100_000, 30_000) == []
        assert table.pending_count() == 0
