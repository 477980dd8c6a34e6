import hashlib

import pytest

from conftest import make_chain_dag, make_scenario, phase_times, work_of
from flowmigrate import _kernels
from flowmigrate.errors import InvariantViolation
from flowmigrate.metrics import PHASE, SINK_EXIT, exactly_once_audit, sink_multiset
from flowmigrate.model import load_bundled_scenario, with_overrides
from flowmigrate.protocol import (
    ALL_INIT_ACKED,
    BROADCAST,
    CAPTURE_DONE,
    CHECKPOINT_INTERVAL_MS,
    DRAIN_DONE,
    FIRST_INIT_ACKED,
    MARKER_ORDER,
    REBALANCE_DONE,
    REBALANCE_START,
    REQUEST,
    SEQUENTIAL,
    SOURCE_UNPAUSED,
)
from flowmigrate.reliability import COMMITTED
from flowmigrate.runtime import (
    COMMIT,
    INIT,
    PREPARE,
    ROLLBACK,
    DemoUserTask,
    SimulationEngine,
    deserialize_pending,
    run_scenario,
)


def run_quick(dag, strategy, **overrides):
    config = make_scenario(dag, strategy, **overrides)
    engine = SimulationEngine(config)
    timeline = engine.run()
    return timeline, engine


class _CappedCalendar(_kernels.EventCalendar):
    """An event calendar that fails the test after ``cap`` pops, so a
    runaway schedule fails fast instead of hanging."""

    __slots__ = ("left",)

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.left = cap

    def pop(self):
        self.left -= 1
        assert self.left >= 0, "pop cap reached: runaway schedule"
        return super().pop()


class TestWaveMechanics:
    def test_broadcast_reaches_every_instance_directly(self):
        config = make_scenario(make_chain_dag(3), "CCR", run_s=60, trigger_s=20)
        engine = SimulationEngine(config)
        captured = []
        original = engine.coordinator._slot_released

        def spy(inst, env, wave, gen):
            if env.kind == PREPARE:
                captured.append((engine.now, inst.instanceId))
            original(inst, env, wave, gen)

        engine.coordinator._slot_released = spy
        engine.run()
        names = {inst for _, inst in captured}
        assert names == {"T1#0", "T2#0", "T3#0", "sink#0"}
        # Broadcast copies land at the queue tails at once, not hop by hop.
        times = [t for t, _ in captured]
        assert max(times) - min(times) <= 500

    def test_sequential_prepare_acks_in_topological_order(self):
        config = make_scenario(make_chain_dag(5), "DCR", run_s=90, trigger_s=20)
        engine = SimulationEngine(config)
        order = []
        original = engine.coordinator._slot_released

        def spy(inst, env, wave, gen):
            original(inst, env, wave, gen)
            if env.kind == PREPARE:
                order.append(inst.instanceId)

        engine.coordinator._slot_released = spy
        engine.run()
        assert order == [f"T{i}#0" for i in range(1, 6)] + ["sink#0"]

    def test_a_wave_takes_no_unknown_attribute(self):
        # A mistyped field name raises instead of adding an attribute.
        config = make_scenario(make_chain_dag(2), "DCR", run_s=60, trigger_s=50)
        wave = SimulationEngine(config, migrate=False).coordinator.start_wave(
            PREPARE, SEQUENTIAL, 1)
        with pytest.raises(AttributeError):
            wave.supersede = True
        wave.superseded = True
        assert wave.superseded and not wave.complete and wave.ackedBy == set()

    def test_conflicting_wave_of_same_kind_rejected(self):
        config = make_scenario(make_chain_dag(2), "DCR", run_s=60, trigger_s=50)
        engine = SimulationEngine(config, migrate=False)
        coordinator = engine.coordinator
        coordinator.start_wave(PREPARE, SEQUENTIAL, 1)
        with pytest.raises(InvariantViolation, match="a PREPARE wave is already in flight"):
            coordinator.start_wave(PREPARE, SEQUENTIAL, 2)

    def test_broadcast_init_resend_reaches_only_unacked_instances(self):
        # The respawning T1..T3 drop the first INIT copies while the sink,
        # which stayed put, acks at once: each resend goes to the rest.
        config = make_scenario(make_chain_dag(3), "CCR", run_s=60, trigger_s=20)
        engine = SimulationEngine(config)
        sends = {}
        original = engine.coordinator._send_copy

        def spy(wave, inst):
            if wave.kind == INIT:
                assert inst.instanceId not in wave.ackedBy
                sends.setdefault(engine.now, set()).add(inst.instanceId)
            original(wave, inst)

        engine.coordinator._send_copy = spy
        engine.run()
        first, *resends = sends.values()
        assert first == {"T1#0", "T2#0", "T3#0", "sink#0"}
        assert resends[0] == {"T1#0", "T2#0", "T3#0"}
        assert all(later <= resends[0] for later in resends)

    def test_commit_without_prepared_record_raises(self):
        engine = SimulationEngine(make_scenario(make_chain_dag(2), "DCR"), migrate=False)
        engine.coordinator.start_wave(COMMIT, SEQUENTIAL, 1)
        with pytest.raises(InvariantViolation, match=r"no prepared record for \(T1#0, 1\)"):
            engine.run()

    def test_a_wave_covering_every_instance_with_a_copy_unacked_raises(self):
        # T2#0 is killed before its PREPARE copy lands and is no longer
        # expected: the others' acks cover the wave, but the lost copy
        # stays folded into the wave's XOR tree.
        engine = SimulationEngine(make_scenario(make_chain_dag(3), "CCR"), migrate=False)
        wave = engine.coordinator.start_wave(PREPARE, BROADCAST, 1)
        engine.kill_instance("T2#0")
        wave.expected -= {"T2#0"}
        with pytest.raises(InvariantViolation, match="tree hash is nonzero"):
            engine._fire()
        assert wave.complete and wave.ackedBy == wave.expected

    def test_duplicate_init_skipped_but_acked(self):
        timeline, engine = run_quick(make_chain_dag(3), "DCR",
                                     run_s=90, trigger_s=20)
        # The 1s resend loop causes duplicate INITs; each instance must have
        # restored exactly once per checkpoint.
        ckpt = engine.coordinator.migration_ckpt
        for inst in engine.instances.values():
            assert engine.coordinator.restored_ckpt[inst.instanceId] == ckpt
        counts = sink_multiset(timeline)
        assert all(v == 1 for v in counts.values())


class TestDcr:
    def test_markers_in_order(self):
        timeline, engine = run_quick(make_chain_dag(3), "DCR", run_s=90, trigger_s=20)
        markers = phase_times(engine)
        expected = [REQUEST, DRAIN_DONE, REBALANCE_START, REBALANCE_DONE,
                    "FIRST_INIT_ACKED", ALL_INIT_ACKED, SOURCE_UNPAUSED]
        assert [m for m in MARKER_ORDER if m in markers] == expected
        times = [markers[m] for m in expected]
        assert times == sorted(times)

    def test_drain_lower_bound_with_no_inflight(self):
        # Source paused long before the migration: the barrier still costs
        # one service time per hop (3 tasks + sink here).
        config = make_scenario(make_chain_dag(3), "DCR", run_s=90, trigger_s=30)
        engine = SimulationEngine(config)
        engine.clock.schedule_at(25_000, engine.pause_source)
        engine.run()
        markers = phase_times(engine)
        drain = markers[DRAIN_DONE] - markers[REQUEST]
        assert drain >= 400
        assert drain < 1500

    def test_completed_prepare_is_not_rolled_back(self):
        # The PREPARE check fires ackTimeout after the trigger (50 s here),
        # long after the wave completed: it must leave the migration alone.
        _, engine = run_quick(make_chain_dag(3), "DCR", run_s=90, trigger_s=20)
        assert ROLLBACK not in {wave.kind for wave in engine.coordinator.waves.values()}

    def test_no_data_loss_each_root_reaches_sink_once(self):
        timeline, engine = run_quick(make_chain_dag(4), "DCR", run_s=120, trigger_s=30)
        counts = sink_multiset(timeline)
        emitted = engine.source.next_seq
        assert len(counts) == emitted
        assert all(v == 1 for v in counts.values())

    def test_epoch_boundary_strict(self):
        timeline, _ = run_quick(make_chain_dag(3), "DCR", run_s=120, trigger_s=30)
        exits = [r for r in timeline.records if r.site == SINK_EXIT]
        last_old = max(r.ts for r in exits if r.epoch == 0)
        first_new = min(r.ts for r in exits if r.epoch == 1)
        assert last_old < first_new


class TestCcr:
    def test_captured_events_not_serviced_before_rebalance(self):
        config = make_scenario(make_chain_dag(3), "CCR", run_s=90, trigger_s=20)
        engine = SimulationEngine(config)
        pending_totals = {}
        original = engine.coordinator._handle_commit

        def spy(inst, env, wave):
            pending_totals[inst.instanceId] = len(inst.pendingList)
            return original(inst, env, wave)

        engine.coordinator._handle_commit = spy
        engine.run()
        assert sum(pending_totals.values()) > 0

    def test_capture_faster_than_drain(self):
        dag = make_chain_dag(4)
        _, dcr = run_quick(dag, "DCR", run_s=120, trigger_s=30)
        _, ccr = run_quick(dag, "CCR", run_s=120, trigger_s=30)
        drain = phase_times(dcr)[REBALANCE_START] - phase_times(dcr)[REQUEST]
        capture = phase_times(ccr)[REBALANCE_START] - phase_times(ccr)[REQUEST]
        assert capture < drain

    def test_capture_commits_snapshot_with_pending_events(self):
        # The broadcast PREPARE stores the snapshot; COMMIT adds the
        # captured events and persists both in one record per instance.
        _, engine = run_quick(make_chain_dag(3), "CCR", run_s=90, trigger_s=20)
        ckpt = engine.coordinator.migration_ckpt
        for inst_id in engine.instances:
            record = engine.store.get(inst_id, ckpt)
            assert record.phase == COMMITTED, inst_id
            assert record.pendingEventsBlob is not None, inst_id
            deserialize_pending(record.pendingEventsBlob)
        snapshot = engine.store.get("T2#0", ckpt).userStateBlob
        restored = engine.restore_snapshots["T2#0"]
        assert DemoUserTask.restore(snapshot).processedCount == restored > 0
        # DCR drains instead: its records carry no pending events.
        _, dcr = run_quick(make_chain_dag(3), "DCR", run_s=90, trigger_s=20)
        records = [dcr.store.get(i, dcr.coordinator.migration_ckpt) for i in dcr.instances]
        assert all(r.phase == COMMITTED and r.pendingEventsBlob is None for r in records)

    def test_markers_use_capture_done(self):
        _, engine = run_quick(make_chain_dag(3), "CCR", run_s=90, trigger_s=20)
        markers = phase_times(engine)
        assert CAPTURE_DONE in markers and DRAIN_DONE not in markers

    def test_resumed_events_reach_sink_exactly_once(self):
        config = make_scenario(make_chain_dag(4), "CCR", run_s=150, trigger_s=30)
        migrated, _ = run_scenario(config)
        baseline, _ = run_scenario(config, migrate=False)
        assert sink_multiset(migrated) == sink_multiset(baseline)

    def test_a_respawn_at_the_horizon_is_still_initialized(self):
        # A trigger at 20 s of a 30 s run: T1#0 and T3#0 respawn at 29.9 s,
        # after the INIT copies sent to them were dropped, and the next
        # resend tick falls past the horizon.
        dag = make_chain_dag(3, sink_instances=2)
        timeline, engine = run_quick(dag, "CCR", run_s=30, trigger_s=20, seed=3)
        assert ALL_INIT_ACKED in phase_times(engine)
        assert all(inst.initialized for inst in engine.instances.values())
        assert not exactly_once_audit(timeline, dag)


# Bundled scenarios with a DCR/CCR migration started 1 s and 0.1 s before
# the horizon, and one whose 2 s hops put the whole migration past it.
LATE_TRIGGERS = [
    (name, strategy, {"runDuration": 200, "migrationTriggerAt": at})
    for name in ("linear_scalein", "diamond_scalein", "grid_scalein")
    for strategy in ("DCR", "CCR")
    for at in (199.0, 199.9)
] + [("linear50_stress", "CCR", {"networkDelayMs": 2000, "migrationTriggerAt": 299})]


class TestLateTrigger:
    """INIT resends go on past the horizon: a started DCR/CCR migration
    restores every respawned instance, unpauses the source and loses no
    root."""

    @pytest.mark.parametrize(
        "name,strategy,overrides", LATE_TRIGGERS,
        ids=[f"{n}-{s}-{o['migrationTriggerAt']}" for n, s, o in LATE_TRIGGERS])
    def test_a_started_migration_finishes(self, name, strategy, overrides):
        config = with_overrides(load_bundled_scenario(name), strategy=strategy, **overrides)
        engine = SimulationEngine(config)
        timeline = engine.run()
        assert ALL_INIT_ACKED in phase_times(engine)
        assert all(inst.initialized for inst in engine.instances.values())
        assert not engine.source.paused
        assert not exactly_once_audit(timeline, config.dag)
        assert not any(timeline.replays())


class TestDsm:
    def test_source_never_pauses(self):
        _, engine = run_quick(make_chain_dag(3), "DSM", run_s=150, trigger_s=30)
        markers = phase_times(engine)
        assert SOURCE_UNPAUSED not in markers
        assert markers[REBALANCE_START] == markers[REQUEST]

    def test_killed_events_replayed_after_timeout(self):
        timeline, engine = run_quick(make_chain_dag(3), "DSM", run_s=150, trigger_s=30)
        replays = list(timeline.replays())
        assert replays
        request = timeline.request_ts()
        assert all(r.ts >= request for r in replays)

    def test_stateful_count_rolls_back_then_recovers(self):
        config = make_scenario(make_chain_dag(3, stateful=(2,)), "DSM",
                               run_s=150, trigger_s=60)
        engine = SimulationEngine(config)
        engine.run()
        killed = engine.kill_snapshots["T2#0"]
        restored = engine.restore_snapshots["T2#0"]
        assert restored <= killed
        rollback = killed - restored
        assert rollback <= CHECKPOINT_INTERVAL_MS / 1000 * config.sourceRate
        # Replays re-cover the rolled-back window.
        assert engine.instances["T2#0"].state.processedCount >= killed

    def test_init_rewave_after_timeout(self):
        # Startup delays beyond the ack timeout force a full second wave.
        config = make_scenario(make_chain_dag(2), "DSM", run_s=200, trigger_s=30,
                               startup_ms=(31_000, 33_000))
        engine = SimulationEngine(config)
        init_waves = []
        original = engine.coordinator.start_wave

        def spy(kind, routing, ckpt, **kw):
            wave = original(kind, routing, ckpt, **kw)
            if kind == INIT:
                init_waves.append(engine.now)
            return wave

        engine.coordinator.start_wave = spy
        timeline = engine.run()
        assert len(init_waves) >= 2
        assert init_waves[1] - init_waves[0] == engine.ack_timeout_ms
        # The re-issued wave does not mark the first INIT ack again.
        marked = [r.ts for r in timeline.records
                  if r.site == PHASE and r.phaseName == FIRST_INIT_ACKED]
        assert len(marked) == 1 and marked[0] >= init_waves[0]

    def test_init_reissue_stops_at_the_horizon(self):
        # At 1 s per hop an INIT wave over 50 tasks outlives ackTimeout, and
        # each re-issue supersedes the last: past the horizon _check_init
        # must stop re-issuing, or the run never ends.
        config = with_overrides(load_bundled_scenario("linear50_stress"), strategy="DSM",
                                networkDelayMs=1000, migrationTriggerAt=250)
        engine = SimulationEngine(config)
        engine.clock._calendar = _CappedCalendar(200_000)  # the run pops 85,058
        engine.run()
        assert [w.kind for w in engine.coordinator.waves.values()].count(INIT) == 2
        assert engine.now == 317_260


# Timeline SHA-256, actions fired and calendar pushes of the two rolled-back
# runs below: the one path where a PREPARE wave is abandoned.
ROLLBACK_PINS = {
    "DCR": ("6e298734726ef9a03ac76c7707d63c639dd8399832356c71bbc168a0ed82f3cd", 4645, 3248),
    "CCR": ("38a05365474b844d4b4f89d3c784fe7064c4ef2648531b2efe647bbe9c5f8535", 5049, 3412),
}


def assert_rolled_back(engine, timeline, pins):
    assert ROLLBACK in {wave.kind for wave in engine.coordinator.waves.values()}
    observed = (hashlib.sha256(timeline.to_csv().encode()).hexdigest(), *work_of(engine))
    assert observed == pins
    # ROLLBACK discarded every record prepared for the abandoned checkpoint.
    ckpt = engine.coordinator.migration_ckpt
    assert all(engine.store.get(i, ckpt) is None for i in engine.instances)


class TestRollback:
    def test_prepare_failure_aborts_and_unpauses(self):
        # A task killed outside any migration never acks the barrier; the
        # coordinator must roll back, unpause and leave placements alone.
        config = make_scenario(make_chain_dag(3), "DCR", run_s=120, trigger_s=30,
                               ackTimeout=5.0)
        engine = SimulationEngine(config)
        engine.clock.schedule_at(20_000, lambda: engine.kill_instance("T2#0"))
        timeline = engine.run()
        assert REBALANCE_START not in phase_times(engine)
        assert not engine.source.paused
        # The survivors resumed processing after the rollback.
        post_abort = [r for r in timeline.records
                      if r.site == SINK_EXIT and r.ts > 35_000]
        assert not post_abort or all(r.epoch == 1 for r in post_abort)
        assert_rolled_back(engine, timeline, ROLLBACK_PINS["DCR"])

    def test_rollback_restores_captured_events(self):
        config = make_scenario(make_chain_dag(3), "CCR", run_s=120, trigger_s=30,
                               ackTimeout=5.0)
        engine = SimulationEngine(config)
        # Kill mid-capture: the broadcast barrier was already delivered, so
        # the wave waits on an ack that can never come.
        engine.clock.schedule_at(30_050, lambda: engine.kill_instance("T2#0"))
        timeline = engine.run()
        # Captured pending lists were re-queued, not lost.
        for inst in engine.instances.values():
            assert not inst.captureFlag
            assert not inst.pendingList
        assert_rolled_back(engine, timeline, ROLLBACK_PINS["CCR"])


class TestRebalance:
    def test_identity_schedule_zero_kills_duration_elapses(self):
        config = make_scenario(make_chain_dag(3), "DCR", run_s=90, trigger_s=20,
                               identity=True)
        engine = SimulationEngine(config)
        timeline = engine.run()
        markers = phase_times(engine)
        assert markers[REBALANCE_DONE] - markers[REBALANCE_START] == 7260
        assert not engine.kill_snapshots
        assert not list(timeline.replays())

    def test_grid_scalein_rewires_21_instances(self, suite_cache):
        run = suite_cache.get("grid_scalein", "DCR")
        assert len(run.config.scheduleAfter.placements) == 21
        assert sum(vm.slotCount for vm in run.config.vmsAfter) == 24
        assert len(run.kill_snapshots) == 21

    def test_respawn_happens_after_startup_delay(self):
        config = make_scenario(make_chain_dag(2), "DCR", run_s=90, trigger_s=20,
                               startup_ms=(3000, 3000))
        engine = SimulationEngine(config)
        ready_at = {}
        original = engine.respawn_instance

        def spy(inst_id):
            ready_at[inst_id] = engine.now
            original(inst_id)

        engine.respawn_instance = spy
        engine.run()
        done = phase_times(engine)[REBALANCE_DONE]
        assert all(t == done + 3000 for t in ready_at.values())
