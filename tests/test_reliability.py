import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmigrate.errors import InvariantViolation
from flowmigrate.reliability import (
    COMMITTED,
    PREPARED,
    AckerService,
    CheckpointRecord,
    StateStore,
)
from flowmigrate.runtime import EventEnvelope, serialize_pending, deserialize_pending


def make_acker(timeout_ms=30_000):
    return AckerService(timeout_ms)


class TestAckerBasics:
    def test_register_sets_hash_to_root(self):
        acker = make_acker()
        acker.register_root(0x5, 0)
        assert acker.hash_of(0x5) == 0x5

    def test_register_returns_the_tables_entry(self):
        acker = make_acker()
        entry = acker.register_root(0x5, 7)
        assert entry == [0x5, 7, False]
        acker.anchor_emit(0x5, 0x3)
        assert entry[0] == acker.hash_of(0x5) == 0x6
        assert acker.sweep_timeouts(30_007) == [0x5]
        assert entry == [0x5, 30_007, False]  # re-armed in place

    def test_discard_leaves_a_held_entry_inert(self):
        acker = make_acker()
        entry = acker.register_root(0x5, 0)
        acker.anchor_emit(0x5, 0x3)
        acker.discard(0x5)
        assert entry[2] and not acker.is_tracked(0x5)
        assert not acker.ack_if_tracked(0x5, 0x6)
        assert entry[0] == 0x6

    def test_duplicate_register_raises(self):
        acker = make_acker()
        acker.register_root(0x5, 0)
        with pytest.raises(InvariantViolation, match="root 0x5 already registered"):
            acker.register_root(0x5, 1)

    def test_register_then_ack_completes(self):
        acker = make_acker()
        acker.register_root(0x5, 0)
        assert acker.ack_event(0x5, 0x5)
        assert acker.is_completed(0x5)
        assert acker.hash_of(0x5) == 0

    def test_xor_algebra_example(self):
        acker = make_acker()
        acker.register_root(0x5, 0)
        acker.anchor_emit(0x5, 0x3)
        assert acker.hash_of(0x5) == 0x6
        assert not acker.ack_event(0x5, 0x5)
        assert acker.hash_of(0x5) == 0x3
        assert acker.ack_event(0x5, 0x3)

    def test_unknown_root_raises(self):
        acker = make_acker()
        with pytest.raises(InvariantViolation, match="ack on unknown root 0x9"):
            acker.ack_event(0x9, 0x9)
        with pytest.raises(InvariantViolation, match="anchor on unknown root 0x9"):
            acker.anchor_emit(0x9, 0x1)


class TestSweeps:
    def test_incomplete_root_swept_at_timeout(self):
        acker = make_acker()
        acker.register_root(1, 0)
        assert acker.sweep_timeouts(30_000) == [1]

    def test_completed_root_never_returned(self):
        acker = make_acker()
        acker.register_root(1, 0)
        acker.ack_event(1, 1)
        assert acker.sweep_timeouts(90_000) == []

    def test_replayed_root_times_out_again(self):
        acker = make_acker()
        acker.register_root(1, 0)
        assert acker.sweep_timeouts(30_000) == [1]
        assert acker.sweep_timeouts(59_000) == []
        assert acker.sweep_timeouts(60_000) == [1]


@st.composite
def tree_script(draw):
    """A feasible anchor/ack interleave over one causal tree."""
    n = draw(st.integers(min_value=0, max_value=64))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    ids = []
    while len(ids) < n + 1:
        candidate = rng.getrandbits(64) or 1
        if candidate not in ids:
            ids.append(candidate)
    return ids, rng.random()


@given(tree_script())
@settings(max_examples=200, deadline=None)
def test_xor_matches_set_oracle(script):
    ids, _ = script
    root, children = ids[0], ids[1:]
    rng = random.Random(root)
    acker = make_acker()
    acker.register_root(root, 0)
    outstanding = {root}  # independent bookkeeping: exact un-acked set
    to_anchor = list(children)
    live = [root]
    while to_anchor or live:
        if to_anchor and (len(live) <= 1 or rng.random() < 0.5):
            event = to_anchor.pop()
            acker.anchor_emit(root, event)
            outstanding.add(event)
            live.append(event)
        else:
            event = live.pop(rng.randrange(len(live)))
            acker.ack_event(root, event)
            outstanding.discard(event)
        hash_zero = acker.is_completed(root) or acker.hash_of(root) == 0
        assert hash_zero == (not outstanding)
    assert acker.is_completed(root)


@given(tree_script())
@settings(max_examples=200, deadline=None)
def test_handle_folds_match_the_service(script):
    """The engine's inline folds into the entry register_root returned,
    with no done test and a discard at completion (as the engine's
    _on_root_completed does), complete the tree exactly when the service's
    acks by id would; a late fold into the dropped entry is inert."""
    ids, _ = script
    root, children = ids[0], ids[1:]
    rng = random.Random(root)
    acker, twin = make_acker(), make_acker()
    tree = acker.register_root(root, 0)
    twin.register_root(root, 0)
    to_anchor = list(children)
    live = [root]
    while to_anchor or live:
        if to_anchor and (len(live) <= 1 or rng.random() < 0.5):
            event = to_anchor.pop()
            tree[0] ^= event
            twin.anchor_emit(root, event)
            live.append(event)
        else:
            event = live.pop(rng.randrange(len(live)))
            tree[0] ^= event
            completed = not tree[0]
            assert completed == twin.ack_event(root, event)
            if completed:
                acker.discard(root)
        assert tree[0] == twin.hash_of(root)
        assert acker.is_tracked(root) == (not twin.is_completed(root))
    assert tree[2] and not acker.is_tracked(root) and twin.is_completed(root)
    # The dropped entry is never swept, so no replay re-arms it.
    assert acker.sweep_timeouts(10 ** 9) == []


class TestStateStore:
    def test_prepare_commit_get_latest(self):
        store = StateStore()
        store.prepare(CheckpointRecord("T1#0", 1, b"state-1"))
        store.commit("T1#0", 1)
        record = store.get_latest_committed("T1#0")
        assert record is not None
        assert record.phase == COMMITTED
        assert record.userStateBlob == b"state-1"

    def test_latest_committed_picks_highest_id(self):
        store = StateStore()
        for ckpt in (3, 7):
            store.prepare(CheckpointRecord("T1#0", ckpt, b"x%d" % ckpt))
            store.commit("T1#0", ckpt)
        assert store.get_latest_committed("T1#0").checkpointId == 7

    def test_commit_without_prepare(self):
        with pytest.raises(InvariantViolation, match=r"no prepared record for \(T1#0, 1\)"):
            StateStore().commit("T1#0", 1)

    def test_prepared_not_visible_as_committed(self):
        store = StateStore()
        store.prepare(CheckpointRecord("T1#0", 1, b""))
        assert store.get_latest_committed("T1#0") is None
        assert store.get("T1#0", 1).phase == PREPARED
        store.discard_prepared("T1#0", 1)
        assert store.get("T1#0", 1) is None

    def test_a_record_takes_no_unknown_attribute(self):
        # A mistyped field name raises instead of adding an attribute.
        record = CheckpointRecord("T1#0", 1, b"")
        with pytest.raises(AttributeError):
            record.pendingEventBlob = b"x"
        record.pendingEventsBlob = b"x"
        assert record.phase == PREPARED and record.payload_size() == 1

    def test_blob_round_trip_bytes_identical(self):
        store = StateStore()
        user = bytes(range(256))
        pending = b"\x00\xffpayload" * 11
        store.prepare(CheckpointRecord("T2#1", 4, user, pendingEventsBlob=pending))
        store.commit("T2#1", 4)
        record = store.get("T2#1", 4)
        assert record.userStateBlob == user
        assert record.pendingEventsBlob == pending


class TestLatencyModel:
    def test_two_thousand_events_within_budget(self):
        # Calibration: a captured list of 2000 events persists in <= 100 ms.
        events = [
            EventEnvelope(i + 1, 77, i, "DATA", 0, False, i * 125)
            for i in range(2000)
        ]
        record = CheckpointRecord("T1#0", 1, b"\x00" * 16,
                                  pendingEventsBlob=serialize_pending(events))
        latency = StateStore().write_latency_ms(record)
        assert 0 < latency <= 100

    def test_latency_grows_with_payload(self):
        model = StateStore()
        small = CheckpointRecord("a", 1, b"x")
        large = CheckpointRecord("a", 1, b"x" * 100_000)
        assert model.write_latency_ms(large) > model.write_latency_ms(small)


class TestPendingSerialization:
    def test_round_trip_preserves_everything(self):
        events = [
            EventEnvelope(11, 22, 5, "DATA", 1, True, 1234),
            EventEnvelope(2 ** 64 - 1, 2 ** 63, -1, "DATA", 0, False, 0),
        ]
        back = deserialize_pending(serialize_pending(events))
        for original, copy in zip(events, back):
            assert copy.eventId == original.eventId
            assert copy.rootId == original.rootId
            assert copy.rootSeqNo == original.rootSeqNo
            assert copy.epoch == original.epoch
            assert copy.replayed == original.replayed
            assert copy.emitTs == original.emitTs
            assert copy.kind == "DATA"
