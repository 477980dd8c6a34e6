import hashlib

import pytest

from conftest import make_chain_dag, make_scenario
from flowmigrate.errors import FlowMigrateError, InvariantViolation
from flowmigrate.metrics import REPLAY, SINK_EXIT, SOURCE_EMIT, exactly_once_audit
from flowmigrate.model import DagDef, Edge, TaskDef, load_bundled_dag
from flowmigrate.runtime import (
    DATA,
    KILLED,
    READY,
    RUNNING,
    EventEnvelope,
    SimulationEngine,
    run_scenario,
)


def quick_engine(dag=None, strategy="DCR", **overrides):
    config = make_scenario(dag or make_chain_dag(3), strategy, **overrides)
    return SimulationEngine(config)


class TestSourcePacing:
    def test_eight_emissions_per_second(self):
        config = make_scenario(make_chain_dag(2), run_s=10, trigger_s=5, strategy="DCR")
        timeline, _ = run_scenario(config, migrate=False)
        first_second = [r for r in timeline.records
                        if r.site == SOURCE_EMIT and r.ts < 1000]
        assert len(first_second) == 8
        assert [r.rootSeqNo for r in first_second] == list(range(8))

    def test_pause_grows_backlog_at_rate(self):
        engine = quick_engine(run_s=30, trigger_s=25)
        engine.clock.schedule_at(1000, engine.pause_source)
        # Run manually through the window [0s, 11s).
        engine._schedule_emission(0)
        cal = engine.clock._calendar
        while len(cal) and cal.peek_time() < 11_000:
            t, _, action = cal.pop()
            engine.clock.now = t
            action()
        assert engine.source.backlog == 80  # 10s paused at 8/s

    def test_unpause_bursts_whole_backlog(self):
        config = make_scenario(make_chain_dag(2), run_s=40, trigger_s=35, strategy="DCR")
        engine = SimulationEngine(config, migrate=False)
        engine.clock.schedule_at(1000, engine.pause_source)
        engine.clock.schedule_at(16_000, engine.unpause_source)
        timeline = engine.run()
        burst = [r for r in timeline.records
                 if r.site == SOURCE_EMIT and r.ts == 16_000]
        # 15 s of deferred emissions at 8/s, plus the paced tick that also
        # lands exactly at the unpause instant.
        assert len(burst) == 121
        # Root sequence numbers stay monotone through the burst.
        seqs = [r.rootSeqNo for r in timeline.records if r.site == SOURCE_EMIT]
        assert seqs == sorted(seqs)

    def test_pause_unpause_with_empty_backlog_no_burst(self):
        engine = quick_engine()
        engine.pause_source()
        engine.unpause_source()
        assert engine.source.backlog == 0
        assert engine.source.next_seq == 0

    def test_roots_cached_until_acked(self):
        # With acking on, every unacked root stays in the source cache and
        # completed roots are discarded from it.  Stateless chain: acks are
        # immediate, so only genuinely in-flight roots remain cached.
        config = make_scenario(make_chain_dag(2, stateful=()), "DSM",
                               run_s=6, trigger_s=5)
        engine = SimulationEngine(config, migrate=False)
        cache_sizes = []
        original = engine._complete_service

        def spy(inst, env, gen):
            original(inst, env, gen)
            cache_sizes.append(len(engine.source.root_cache))

        engine._complete_service = spy
        engine.run()
        assert max(cache_sizes) > 0
        # Chain latency is ~300ms, so at most a handful of roots in flight.
        assert max(cache_sizes) <= 8
        assert engine.source.root_cache == {} or len(engine.source.root_cache) <= 3


class TestClock:
    def test_scheduling_into_the_past_raises(self):
        engine = quick_engine()
        engine.clock.now = 1_000
        with pytest.raises(InvariantViolation):
            engine.clock.schedule_in(-1, engine.pause_source)
        with pytest.raises(InvariantViolation):
            engine.clock.schedule_at(engine.now - 1, engine.pause_source)
        assert len(engine.clock._calendar) == 0


class TestDelivery:
    def test_zero_delay_keeps_send_order(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        events = [EventEnvelope(i, i, i, DATA, 0, False, 0) for i in (1, 2, 3)]
        for env in events:
            engine.deliver(env, inst)
        cal = engine.clock._calendar
        seen = []
        original_pump = engine._pump
        engine._pump = lambda i: None  # inspect queue order without servicing
        while len(cal):
            t, _, action = cal.pop()
            engine.clock.now = t
            action()
        assert [e.eventId for e in inst.queue] == [1, 2, 3]
        engine._pump = original_pump

    def test_delivery_to_killed_instance_dropped(self):
        config = make_scenario(make_chain_dag(3), "DSM", run_s=120, trigger_s=110)
        engine = SimulationEngine(config, migrate=False)
        engine.clock.schedule_at(5_000, lambda: engine.kill_instance("T2#0"))
        timeline = engine.run()
        # Everything T1 forwarded after the kill was dropped, then replayed
        # by timeout sweeps; the acker keeps those roots incomplete.
        replays = [r for r in timeline.records if r.site == REPLAY]
        assert replays, "lost events were never replayed"
        assert min(r.ts for r in replays) >= 5_000 + engine.ack_timeout_ms

    def test_network_delay_applied(self):
        config = make_scenario(make_chain_dag(2), run_s=5, trigger_s=2,
                               networkDelayMs=40)
        timeline, _ = run_scenario(config, migrate=False)
        exits = [r for r in timeline.records if r.site == SINK_EXIT]
        # src -> T1 -> T2 -> sink: three hops of delay plus three services.
        assert exits[0].ts == 3 * 40 + 2 * 100 + 100


class TestProcessing:
    def test_linear_task_forwards_after_service_time(self):
        config = make_scenario(make_chain_dag(1), run_s=3, trigger_s=1)
        timeline, _ = run_scenario(config, migrate=False)
        first_exit = next(r for r in timeline.records if r.site == SINK_EXIT)
        # 100 ms at T1 plus 100 ms at the sink instance.
        assert first_exit.ts == 200

    def test_selectivity_two_doubles_output(self):
        tasks = (TaskDef("src", serviceTimeMs=1),
                 TaskDef("T1", selectivity=2.0, instanceCount=2),
                 TaskDef("sink", instanceCount=2))
        dag = DagDef("sel", tasks, (Edge("src", "T1"), Edge("T1", "sink")),
                     ("src",), ("sink",))
        config = make_scenario(dag, run_s=10, trigger_s=9)
        timeline, _ = run_scenario(config, migrate=False)
        emits = sum(1 for r in timeline.records if r.site == SOURCE_EMIT)
        exits = sum(1 for r in timeline.records if r.site == SINK_EXIT)
        assert exits == 2 * emits

    def test_fractional_selectivity_is_seeded_and_plausible(self):
        tasks = (TaskDef("src", serviceTimeMs=1),
                 TaskDef("T1", selectivity=0.5, instanceCount=1),
                 TaskDef("sink"))
        dag = DagDef("frac", tasks, (Edge("src", "T1"), Edge("T1", "sink")),
                     ("src",), ("sink",))
        config = make_scenario(dag, run_s=60, trigger_s=59)
        t1, _ = run_scenario(config, migrate=False)
        t2, _ = run_scenario(config, migrate=False)
        assert t1.to_csv() == t2.to_csv()
        exits = sum(1 for r in t1.records if r.site == SINK_EXIT)
        emits = sum(1 for r in t1.records if r.site == SOURCE_EMIT)
        assert 0.3 * emits < exits < 0.7 * emits

    def test_single_event_in_service(self):
        config = make_scenario(make_chain_dag(2), run_s=20, trigger_s=19)
        engine = SimulationEngine(config, migrate=False)
        busy_seen = []
        original = engine._complete_service

        def spy(inst, env, gen):
            busy_seen.append(inst.in_service is env)
            original(inst, env, gen)

        engine._complete_service = spy
        engine.run()
        assert busy_seen and all(busy_seen)


class TestKillRespawn:
    def test_kill_drops_queue_and_in_service(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        inst.queue.extend(
            EventEnvelope(i, i, i, DATA, 0, False, 0) for i in range(5)
        )
        engine.kill_instance("T1#0")
        assert inst.status == KILLED
        assert not inst.queue
        assert inst.in_service is None

    def test_kill_twice_rejected(self):
        engine = quick_engine()
        engine.kill_instance("T1#0")
        with pytest.raises(FlowMigrateError):
            engine.kill_instance("T1#0")

    def test_respawn_gives_fresh_uninitialized_runtime(self):
        engine = quick_engine()
        inst = engine.instances["T2#0"]
        inst.state.processedCount = 42
        inst.captureFlag = True
        engine.kill_instance("T2#0")
        engine.respawn_instance("T2#0")
        assert inst.status == READY
        assert not inst.initialized
        assert not inst.captureFlag
        assert inst.state.processedCount == 0

    def test_respawned_instance_buffers_data_until_initialized(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine.respawn_instance("T1#0")
        inst.queue.append(EventEnvelope(1, 1, 0, DATA, 0, False, 0))
        engine._pump(inst)
        assert inst.preInit and inst.in_service is None
        engine.initialize_instance(inst, 1, None, None)
        assert inst.initialized and inst.status == RUNNING
        assert inst.in_service is not None  # buffered event went into service


class TestConservation:
    @pytest.mark.parametrize("dag_name,multiplicity", [
        ("linear", 1), ("diamond", 3), ("star", 4), ("grid", 4), ("traffic", 2),
    ])
    def test_no_migration_run_conserves_roots(self, dag_name, multiplicity):
        config = make_scenario(load_bundled_dag(dag_name), "DCR",
                               run_s=60, trigger_s=50)
        timeline, _ = run_scenario(config, migrate=False)
        failures = exactly_once_audit(timeline, config.dag)
        assert not failures
        emits = sum(1 for r in timeline.records if r.site == SOURCE_EMIT)
        exits = sum(1 for r in timeline.records if r.site == SINK_EXIT)
        assert exits == multiplicity * emits

    def test_instance_round_robin_balances_load(self):
        dag = make_chain_dag(1)
        tasks = tuple(
            TaskDef("T1", instanceCount=4) if t.taskId == "T1" else t
            for t in dag.tasks
        )
        config = make_scenario(DagDef("rr", tasks, dag.edges, dag.sourceTasks,
                                      dag.sinkTasks), run_s=20, trigger_s=19)
        engine = SimulationEngine(config, migrate=False)
        engine.run()
        counts = [engine.instances[f"T1#{k}"].state.processedCount for k in range(4)]
        assert max(counts) - min(counts) <= 1


class TestEpochs:
    def test_burst_after_migration_carries_epoch_one(self, suite_cache):
        run = suite_cache.get("linear_scalein", "DCR")
        unpaused = run.timeline.phase_ts("SOURCE_UNPAUSED")
        for rec in run.timeline.records:
            if rec.site == SOURCE_EMIT and rec.ts >= unpaused:
                assert rec.epoch == 1
            if rec.site == SOURCE_EMIT and rec.ts < run.timeline.request_ts():
                assert rec.epoch == 0


class TestDeterminism:
    def test_identical_timelines_for_same_seed(self):
        config = make_scenario(make_chain_dag(3), "DSM", run_s=90, trigger_s=30)
        a, _ = run_scenario(config)
        b, _ = run_scenario(config)
        assert a.to_csv() == b.to_csv()

    def test_different_seed_differs(self):
        c1 = make_scenario(make_chain_dag(3), "DSM", run_s=90, trigger_s=30, seed=1)
        c2 = make_scenario(make_chain_dag(3), "DSM", run_s=90, trigger_s=30, seed=2)
        a, _ = run_scenario(c1)
        b, _ = run_scenario(c2)
        assert a.to_csv() != b.to_csv()


# Full SHA-256 of timeline.csv and report.json (to_csv()/to_json()) of
# bundled runs that cover DUPLICATE and SHUFFLE routing, data acking,
# checkpoint waves, kill and respawn.  Engine changes must leave them
# byte-identical; a model change that alters them must say why.
PINNED_RUNS = {
    ("diamond_scalein", "DSM"): (
        "3f37b780ed3a2022b3e21f95249125126c2acbda47ce6ab27a476769b5a67b13",
        "cea67cb89d041139967b3f6cfa47f226580d9715b8fd490af8d579da71c437d1"),
    ("diamond_scalein", "DCR"): (
        "bf9d4d436a1f98b905aebdc63db425b8615af9f96d0516f5098bcb543a103317",
        "8feccb6c590d41e99fb85b93feef20dc6e552987a6a0dce99338efe30aa1a9a4"),
    ("diamond_scalein", "CCR"): (
        "7d7bfc640356f58a4bce7baa8148ff37b9a7d974d0b0cb09062ade739c7822b4",
        "5b6e7cd69a74e211fb90e2a419af54dcecee93b5423a9d8ccbe4a3c4dcf9989f"),
    ("linear_scalein", "DSM"): (
        "d6388d2fd5a420ac577f4e429dfd94afb8ec4e2d1c5d4cc913876d26b30128f3",
        "2f856b13dc31fefb9d28459556a2afec2c0f3bb61c60dff7bab3bf126a7c738b"),
}


class TestPinnedTimelines:
    @pytest.mark.parametrize("scenario,strategy", sorted(PINNED_RUNS))
    def test_bundled_run_bytes_unchanged(self, suite_cache, scenario, strategy):
        run = suite_cache.get(scenario, strategy)
        digests = (hashlib.sha256(run.timeline.to_csv().encode()).hexdigest(),
                   hashlib.sha256(run.report.to_json().encode()).hexdigest())
        assert digests == PINNED_RUNS[scenario, strategy]
