import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowmigrate._kernels import AckerTable, EventCalendar

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
        table.register(1, 0)
        table.register(2, 5_000)
        table.anchor(1, 77)
        assert table.sweep(29_999, 30_000) == []
        assert table.sweep(30_000, 30_000) == [1]
        # Re-armed: hash back to the root id, fresh timestamp.
        assert table.hash_of(1) == 1
        assert table.sweep(35_000, 30_000) == [2]
        assert table.sweep(59_999, 30_000) == []
        # Root 1 re-armed at 30s is due again; root 2 (re-armed 35s) is not.
        assert table.sweep(60_000, 30_000) == [1]
        assert table.sweep(65_000, 30_000) == [2]

    def test_completed_roots_not_swept(self):
        table = AckerTable()
        table.register(1, 0)
        table.ack(1, 1)
        assert table.sweep(100_000, 30_000) == []

    def test_discarded_roots_disappear(self):
        table = AckerTable()
        table.register(1, 0)
        table.discard(1)
        assert not table.contains(1)
        assert table.sweep(100_000, 30_000) == []
        assert table.pending_count() == 0
