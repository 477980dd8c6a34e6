import contextlib
import functools
import hashlib
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    behaviour_digest,
    fan_out_join_dag,
    make_chain_dag,
    make_scenario,
    phase_times,
    selective_chain_dag,
    shuffle_split_dag,
    work_of,
)
from flowmigrate import _kernels, runtime
from flowmigrate.errors import ConfigError, InvariantViolation
from flowmigrate.metrics import (
    REPLAY,
    SINK_EXIT,
    SOURCE_EMIT,
    compute_report,
    exactly_once_audit,
)
from flowmigrate.model import (
    DUPLICATE,
    SHUFFLE,
    DagDef,
    Edge,
    TaskDef,
    load_bundled_dag,
    load_bundled_scenario,
    to_ms,
    with_overrides,
)
from flowmigrate.protocol import SEQUENTIAL
from flowmigrate.reliability import PREPARED
from flowmigrate.runtime import (
    COMMIT,
    DATA,
    INIT,
    KILLED,
    PREPARE,
    RESPAWNING,
    RUNNING,
    EventEnvelope,
    SimulationEngine,
    run_scenario,
)


def quick_engine(dag=None, strategy="DCR", **overrides):
    config = make_scenario(dag or make_chain_dag(3), strategy, **overrides)
    return SimulationEngine(config)


def drain(engine):
    """Pop every pending calendar entry, unfired, in firing order."""
    cal = engine.clock._calendar
    return [cal.pop() for _ in range(len(cal))]


def spy_sends(engine):
    """Record each ``(env, target)`` that ``engine.deliver`` is given from
    now on, in send order, and deliver it; returns the record."""
    sent = []
    deliver = engine.deliver

    def spy(env, target):
        sent.append((env, target))
        deliver(env, target)

    engine.deliver = spy
    return sent


@contextlib.contextmanager
def watch_inputs(engine, on_entry):
    """Call ``on_entry(env, instance)`` for each envelope that enters an
    instance's input inside the block, in entry order: appended at its
    queue tail, or put in its service slot other than off its own queue.

    Every hop that reaches a RUNNING instance enters this way, whichever of
    ``deliver``, ``_arrive`` and ``_complete_service`` places it, so this
    sees the sole-edge children that ``_complete_service`` sends without
    ``deliver``.  The instances are watched in place: each takes a subclass
    with the same slots, whose ``in_service`` and ``queue`` report entries.
    """
    base = runtime.TaskInstanceRuntime
    slot, queue = base.in_service, base.queue

    class Input(deque):
        def __init__(self, events, inst):
            super().__init__(events)
            self.inst, self.head = inst, None

        def append(self, env):
            on_entry(env, self.inst)
            super().append(env)

        def popleft(self):
            self.head = super().popleft()
            return self.head

    def set_slot(inst, env):
        if env is not None and env is not queue.__get__(inst).head:
            on_entry(env, inst)
        slot.__set__(inst, env)

    def set_queue(inst, events):
        queue.__set__(inst, Input(events, inst))

    watched = type("WatchedInstance", (base,), {
        "__slots__": (),
        "in_service": property(slot.__get__, set_slot),
        "queue": property(queue.__get__, set_queue),
    })
    instances = list(engine.instances.values())
    for inst in instances:
        inst.__class__ = watched
        inst.queue = inst.queue
    try:
        yield
    finally:
        for inst in instances:
            inst.__class__ = base
            inst.queue = deque(inst.queue)


def serve(engine, inst, env):
    """Complete ``env``'s service at ``inst`` by hand; the ``(child,
    target)`` pairs whose child entered the target's input, in send order.
    What the service scheduled (completions only: every child here enters
    at once) is dropped unfired."""
    inst.in_service = env
    entered = []
    with watch_inputs(engine, lambda child, target: entered.append((child, target))):
        engine._complete_service(inst, env, inst.generation)
    assert not any(fn == engine._arrive_fn for _t, _seq, (fn, _args) in drain(engine))
    return entered


def check_no_live_checkpoint_wave(engine):
    """Assert at each kill and respawn that no PREPARE or COMMIT wave is
    live, neither complete nor superseded: barrier counts live on the wave
    because a kill or respawn can then cut none short.  Returns the ids
    killed or respawned, in order."""
    waves, checked = engine.coordinator.waves, []

    def guard(fn):
        def guarded(inst_id):
            live = [w.kind for w in waves.values() if w.kind in (PREPARE, COMMIT)
                    and not w.complete and not w.superseded]
            assert not live, (inst_id, live)
            checked.append(inst_id)
            fn(inst_id)
        return guarded

    engine.kill_instance = guard(engine.kill_instance)
    engine.respawn_instance = guard(engine.respawn_instance)
    return checked


def fire_next(engine):
    """Pop and fire the next calendar action ``(fn, args)``; returns its fire time."""
    t, _, (fn, args) = engine.clock._calendar.pop()
    engine.clock.now = t
    fn(*args)
    return t


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
        # Scheduled before the 11 s tick, so it fires before that tick.
        backlog = []
        engine.clock.schedule_at(11_000, lambda: backlog.append(engine.source.backlog))
        while not backlog:
            fire_next(engine)
        assert backlog == [80]  # 10s paused at 8/s

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

    def test_pending_cap_defers_emissions_until_a_root_completes(self):
        # DSM caps the roots awaiting their acks at 240.  With the sink
        # killed no root completes: the source cache stops at the cap and
        # every later tick joins the backlog, one per 125 ms tick at 8/s.
        engine = quick_engine(strategy="DSM")
        engine.kill_instance("sink#0")
        engine._schedule_emission(0)
        src = engine.source
        samples = []
        for at in (40_000, 40_125, 40_250):  # each probe fires before that tick
            engine.clock.schedule_at(
                at, lambda: samples.append((len(src.root_cache), src.backlog)))
        while len(samples) < 3:
            fire_next(engine)
        assert samples == [(240, 80), (240, 81), (240, 82)]
        # One completion frees one slot: exactly one deferred root goes out.
        root_id = next(iter(src.root_cache))
        emitted = src.next_seq
        engine._on_root_completed(root_id)
        assert root_id not in src.root_cache
        assert (len(src.root_cache), src.backlog, src.next_seq) == (240, 81, emitted + 1)

    def test_a_late_copy_folded_into_a_completed_root_changes_nothing(self):
        # The folds test no done flag: a late copy's anchor and acks reach
        # the entry of a root already completed and discarded, and the hash
        # returning to zero reaches _on_root_completed, which finds no root.
        engine = quick_engine(make_chain_dag(2, stateful=()), strategy="DSM")
        src = engine.source
        engine._emit_root()
        (root_id, root), = src.root_cache.items()
        tree = root.tree
        while src.root_cache:
            fire_next(engine)
        assert tree[2] and not engine.acker.table.contains(root_id)
        src.backlog = 1  # a cap-deferred emission a completion would release
        completions = []
        on_completed = engine._on_root_completed

        def spy(rid):
            completions.append(rid)
            on_completed(rid)

        engine._on_root_completed = spy

        late = EventEnvelope(7, root_id, 0, DATA, 0, True, engine.now, tree)
        tree[0] ^= late.eventId  # anchored, as the router anchors a copy
        engine.deliver(late, engine.instances["T1#0"])
        while len(engine.clock._calendar):
            fire_next(engine)
        assert completions == [root_id]  # the hash did return to zero
        assert (src.root_cache, src.backlog, src.next_seq) == ({}, 1, 1)
        emits = [r.rootSeqNo for r in engine.timeline.records if r.site == SOURCE_EMIT]
        assert emits == [0] and len(engine.acker.table) == 0


class TestClock:
    def test_scheduling_into_the_past_raises(self):
        engine = quick_engine()
        engine.clock.now = 1_000
        past = "scheduling into the past: 999 < 1000"
        with pytest.raises(InvariantViolation, match=past):
            engine.clock.schedule_in(-1, engine.pause_source)
        with pytest.raises(InvariantViolation, match=past):
            engine.clock.schedule_at(engine.now - 1, engine.pause_source)
        with pytest.raises(InvariantViolation, match=past):
            engine.clock.schedule_in(-1, engine.kill_instance, "T1#0")
        with pytest.raises(InvariantViolation, match=past):
            engine.clock.schedule_at(engine.now - 1, engine.kill_instance, "T1#0")
        assert len(engine.clock._calendar) == 0

    def test_an_action_is_a_function_and_a_tuple_of_args(self):
        engine = quick_engine()

        def fn(*args):
            pass

        engine.clock.schedule_at(5, fn)
        engine.clock.schedule_in(5, fn, 1, "two")
        cal = engine.clock._calendar
        assert cal.pop() == (5, 0, (fn, ()))
        assert cal.pop() == (5, 1, (fn, (1, "two")))

    def test_actions_fire_fn_of_args_in_time_seq_order(self):
        engine = quick_engine()
        clock = engine.clock
        fired = []
        clock.now = 100
        clock.schedule_in(50, fired.append, "late")
        clock.schedule_at(100, lambda: fired.append("no args"))
        clock.schedule_at(150, lambda *args: fired.append(args), 1, 2, 3)
        clock.schedule_in(0, fired.extend, ("x", "y"))
        times = [fire_next(engine) for _ in range(4)]
        assert times == [100, 100, 150, 150]
        assert fired == ["no args", "x", "y", "late", (1, 2, 3)]
        assert len(clock._calendar) == 0

    def test_negative_network_delay_rejected_at_construction(self):
        # Deliveries push now + networkDelayMs unchecked; a hand-built config
        # skips the loader, so the engine validates the scenario itself.
        config = make_scenario(make_chain_dag(3), "DCR")
        with pytest.raises(ConfigError, match="non-negative"):
            SimulationEngine(config._replace(networkDelayMs=-5))

    def test_zero_service_time_rejected_at_construction(self):
        config = make_scenario(make_chain_dag(3), "DCR")
        dag = config.dag
        tasks = tuple(t._replace(serviceTimeMs=0) if t.taskId == "T2" else t
                      for t in dag.tasks)
        with pytest.raises(ConfigError, match="task T2: serviceTimeMs"):
            SimulationEngine(config._replace(dag=dag._replace(tasks=tasks)))

    def test_dead_end_rejected_at_construction(self):
        # Every task but a sink has an out-edge, so the router always sends.
        config = make_scenario(make_chain_dag(3), "DCR")
        dag = config.dag
        dead = dag._replace(tasks=dag.tasks + (TaskDef("dead"),),
                            edges=dag.edges + (Edge("T1", "dead"),))
        with pytest.raises(ConfigError, match="reaches no sink: dead"):
            SimulationEngine(config._replace(dag=dead))


class TestRunLoop:
    def test_index_error_inside_an_action_propagates(self):
        # The loop ends on the empty calendar's IndexError; one raised by
        # an action is a fault and must not end the run quietly.
        engine = quick_engine()

        def faulty():
            raise IndexError("from an action")

        engine.clock.schedule_at(1_000, faulty)
        with pytest.raises(IndexError, match="from an action"):
            engine.run()

    def test_every_payload_is_a_function_and_its_args(self, monkeypatch):
        # One action shape on the whole engine path, the protocol's
        # checkpoint, rebalance and timeout actions included.
        push = _kernels.EventCalendar.push
        misshapen, fired_by = [], set()

        def checked(calendar, fire_ms, payload):
            if (type(payload) is tuple and len(payload) == 2 and callable(payload[0])
                    and type(payload[1]) is tuple):
                fired_by.add(payload[0].__name__)
            else:
                misshapen.append(payload)
            return push(calendar, fire_ms, payload)

        monkeypatch.setattr(_kernels.EventCalendar, "push", checked)
        config = with_overrides(load_bundled_scenario("grid_scalein"), strategy="DSM")
        engine = SimulationEngine(config)
        engine.run()
        assert work_of(engine) == (341_213, 178_106)
        assert misshapen == []
        assert fired_by >= {"_source_tick", "_arrive", "_complete_service", "_sweep_tick",
                            "_trigger_migration", "_periodic_tick", "_slot_released",
                            "_rebalance_done", "respawn_instance",
                            "_check_init"}

    def test_overrides_set_before_run_see_every_event(self):
        # run() binds the two hot actions after any override is installed.
        # A fan-out into a join without migration fires only source ticks,
        # arrivals and completions, and every completion passes the
        # override.  A DATA hop to a ready instance with nothing in flight
        # is placed in its sender's action and counts as one action: it
        # pushes no arrival and never reaches _arrive, so a completion
        # whose event id no arrival carried is such a hop.  With nothing
        # but data in flight, every hop is placed, at 5 ms as at zero
        # delay.  A rebalance shorter than the delay turns placement off
        # at 5 ms (a respawn could beat the hop), so every hop is then a
        # scheduled arrival.
        def spied_run(delay_ms, **overrides):
            config = make_scenario(fan_out_join_dag(), "DCR", run_s=10, trigger_s=5,
                                   networkDelayMs=delay_ms, **overrides)
            engine = SimulationEngine(config, migrate=False)
            arrived, completed = [], []
            arrive, complete = engine._arrive, engine._complete_service

            def spy_arrive(env, target):
                arrived.append(env.eventId)
                arrive(env, target)

            def spy_complete(inst, env, gen):
                completed.append(env.eventId)
                complete(inst, env, gen)

            engine._arrive = spy_arrive
            engine._complete_service = spy_complete
            engine.run()
            placed = len(set(completed) - set(arrived))
            return engine, arrived, completed, placed

        engine, arrived, completed, placed = spied_run(5, rebalanceDuration=0.001)
        roots = engine.source.next_seq
        hops = 7 * roots  # A, B, C, two at the join and two at the sink
        assert roots == 80 and len(completed) == len(arrived) == hops and placed == 0
        assert engine._actions == work_of(engine)[1] == roots + 2 * hops

        for delay_ms in (5, 0):
            engine, arrived, completed, placed = spied_run(delay_ms)
            assert engine.source.next_seq == roots
            assert arrived == [] and len(completed) == placed == hops
            assert engine._actions == roots + len(completed) + placed
            assert work_of(engine)[1] == roots + len(completed)  # pushes

    def test_action_budget_stops_a_run(self, monkeypatch):
        monkeypatch.setattr(runtime, "_MAX_ACTIONS", 1000)
        engine = quick_engine()
        with pytest.raises(InvariantViolation, match="action budget"):
            engine.run()
        assert engine._actions == 1001

    def test_a_hop_that_arrives_at_once_counts_against_the_budget(self, monkeypatch):
        # The excess action may be a zero-delay hop arriving inside its
        # sender's action: the guard stops it there, unserved.
        monkeypatch.setattr(runtime, "_MAX_ACTIONS", 0)
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        with pytest.raises(InvariantViolation, match="action budget"):
            engine.deliver(make_event(), inst)
        assert engine._actions == 1 and inst.in_service is None


class TestDelivery:
    def test_zero_delay_keeps_send_order(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        events = [EventEnvelope(i, i, i, DATA, 0, False, 0) for i in (1, 2, 3)]
        for env in events:
            engine.deliver(env, inst)
        # Each zero-delay hop was placed inside deliver, one action each:
        # the first event found T1 idle and went into service; the others
        # joined the queue tail in send order.
        assert [inst.in_service.eventId] + [e.eventId for e in inst.queue] == [1, 2, 3]
        assert engine._actions == 3 and inst.in_flight == 0
        assert len(engine.clock._calendar) == 1  # the first completion

    def test_data_sent_after_a_barrier_arrives_after_it(self, monkeypatch):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        seen = []
        monkeypatch.setattr(engine.coordinator, "on_control_event",
                            lambda i, e: seen.append(e))
        barrier, data = make_event(1, kind=PREPARE), make_event(2)
        engine.deliver(barrier, inst)
        engine.deliver(data, inst)  # the barrier's arrival is in flight
        assert inst.in_service is None and inst.in_flight == 2
        fire_next(engine)
        assert seen == [barrier] and inst.in_service is None
        fire_next(engine)
        assert inst.in_service is data and inst.in_flight == 0
        later = make_event(3)
        engine.deliver(later, inst)  # nothing in flight: it arrives at once
        assert list(inst.queue) == [later]
        assert len(engine.clock._calendar) == 1  # the data's completion

    def test_a_transport_retry_stays_in_flight(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine.mark_respawning("T1#0")
        engine.deliver(make_event(1), inst)
        fire_next(engine)  # T1 is starting: the transport retries
        assert inst.in_flight == 1
        engine.respawn_instance("T1#0")
        engine.initialize_instance(inst, None)
        engine.deliver(make_event(2), inst)  # a retry is in flight: pushed
        assert inst.in_service is None and inst.in_flight == 2

    @pytest.mark.parametrize("scenario,strategy", [
        ("linear_scalein", "CCR"), ("star_scalein", "DSM")])
    def test_data_lands_at_its_send_plus_the_delay(self, scenario, strategy):
        # A hop placed at its send starts no earlier than emitTs + delay, so
        # every DATA send must stamp emitTs with the send time: roots,
        # replays, router copies (star fans out by DUPLICATE) and forwarded
        # children.  With one arrival that never lands counted in flight at
        # every instance, every hop is a scheduled arrival, and each DATA
        # arrival shows the rule, but for a transport retry, which lands
        # _TRANSPORT_RETRY_MS after the arrival that found its target
        # starting.
        config = with_overrides(load_bundled_scenario(scenario), strategy=strategy,
                                networkDelayMs=5, runDuration=300)
        engine = SimulationEngine(config)
        for inst in engine.instances.values():
            inst.in_flight = 1
        arrive = engine._arrive
        retrying, landed, late = set(), [], []

        def spy_arrive(env, target):
            if env.kind == DATA:
                sent = (env.eventId, env.emitTs)
                if sent not in retrying:
                    landed.append(env)
                    if engine.now != env.emitTs + 5:
                        late.append((engine.now, env))
                if target.status == RESPAWNING:
                    retrying.add(sent)
            arrive(env, target)

        engine._arrive = spy_arrive
        engine.run()
        assert late == [] and landed and retrying
        if strategy == "DSM":
            assert any(env.replayed for env in landed)

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


def make_event(event_id: int = 1, kind: str = DATA, emit_ts: int = 0) -> EventEnvelope:
    """An event sent at ``emit_ts``: every send stamps ``emitTs`` so."""
    return EventEnvelope(event_id, event_id, 0, kind, 0, False, emit_ts)


# The generator's DAGs: chains of up to 4 tasks (any of them stateful, one
# or two sinks) and the DUPLICATE fan-out into a join.
_SMALL_DAGS = st.one_of(
    st.builds(make_chain_dag, st.integers(1, 4),
              st.sets(st.integers(1, 4)).map(tuple), st.integers(1, 2)),
    st.builds(fan_out_join_dag))


class TestSendOrder:
    """Hops placed in their sender's action keep every instance's input in
    send order."""

    @pytest.mark.parametrize("scenario,strategy", [
        ("linear_scalein", "DCR"), ("linear_scalein", "CCR"), ("diamond_scalein", "DSM")])
    def test_each_instance_receives_in_send_order(self, scenario, strategy, monkeypatch):
        # Through a whole migration: checkpoint waves, kills, respawns and
        # INIT.  A hop is sent when its arrival is pushed, or when it enters
        # its target's input at once (placed by deliver or by
        # _complete_service); it is received when its arrival fires, or when
        # it enters at once.  A transport retry re-sends an event by design,
        # so the events retried are left out of both sequences.
        engine = SimulationEngine(with_overrides(load_bundled_scenario(scenario),
                                                 strategy=strategy))
        sent, received, retried = {}, {}, set()
        arrive, push = engine._arrive, _kernels.EventCalendar.push
        arriving = None  # the envelope whose arrival is firing

        def spy_push(calendar, fire_ms, action):
            fn, args = action
            if fn is spy_arrive:
                env, target = args
                sent.setdefault(target.instanceId, []).append(env)
            return push(calendar, fire_ms, action)

        def spy_arrive(env, target):
            nonlocal arriving
            if target.status == RESPAWNING and env.kind == DATA:
                retried.add(env)
            received.setdefault(target.instanceId, []).append(env)
            arriving = env
            arrive(env, target)
            arriving = None

        def on_entry(env, target):
            if env is not arriving:  # entered at once: sent and received now
                sent.setdefault(target.instanceId, []).append(env)
                received.setdefault(target.instanceId, []).append(env)

        monkeypatch.setattr(_kernels.EventCalendar, "push", spy_push)
        engine._arrive = spy_arrive
        with watch_inputs(engine, on_entry):
            engine.run()
        assert "ALL_INIT_ACKED" in phase_times(engine) and engine.kill_snapshots
        assert {env.kind for events in sent.values() for env in events} == {
            DATA, PREPARE, COMMIT, INIT}
        assert work_of(engine)[1] < engine._actions  # some hops arrived at once
        for inst_id, events in sent.items():
            assert ([env for env in received[inst_id] if env not in retried]
                    == [env for env in events if env not in retried]), inst_id

    @settings(max_examples=20, deadline=None)
    @given(dag=_SMALL_DAGS,
           strategy=st.sampled_from(["DCR", "CCR"]),
           delay_ms=st.integers(0, 50),
           trigger_ms=st.integers(1, 30_000),
           seed=st.integers(0, 2**32 - 1))
    def test_migration_delivers_exactly_once(self, dag, strategy, delay_ms, trigger_ms, seed):
        # At any delay a hop may be placed at its send, into a busy
        # target's queue as into an idle one's slot.
        config = make_scenario(dag, strategy, run_s=60, trigger_s=trigger_ms / 1000,
                               seed=seed, networkDelayMs=delay_ms)
        engine = SimulationEngine(config)
        check_no_live_checkpoint_wave(engine)
        timeline = engine.run()
        assert "ALL_INIT_ACKED" in phase_times(engine)
        assert not exactly_once_audit(timeline, dag)
        assert not any(True for _ in timeline.replays())
        assert run_scenario(config)[0].to_csv() == timeline.to_csv()

    @settings(max_examples=20, deadline=None)
    @given(dag=_SMALL_DAGS,
           delay_ms=st.integers(0, 20),
           ack_timeout_s=st.integers(2, 10),
           trigger_ms=st.integers(1, 30_000),
           seed=st.integers(0, 2**32 - 1))
    def test_dsm_migration_delivers_at_least_once(self, dag, delay_ms, ack_timeout_s,
                                                  trigger_ms, seed):
        # An ack timeout of 10 s or less sweeps and replays several times in
        # a 60 s run.  The engine acks through each envelope's handle on its
        # root's entry: every root still pending must hold the very entry
        # the acker tracks, and the two must track the same roots.
        config = make_scenario(dag, "DSM", run_s=60, trigger_s=trigger_ms / 1000,
                               seed=seed, networkDelayMs=delay_ms,
                               ackTimeout=float(ack_timeout_s))
        engine = SimulationEngine(config)
        checked = check_no_live_checkpoint_wave(engine)
        timeline = engine.run()
        assert engine.kill_snapshots and checked
        assert not exactly_once_audit(timeline, dag, at_least=True)
        pending, entries = engine.source.root_cache, engine.acker.table._entries
        assert pending.keys() == entries.keys()
        assert all(env.tree is entries[root_id] for root_id, env in pending.items())
        assert run_scenario(config)[0].to_csv() == timeline.to_csv()


class TestArrive:
    """Every branch of ``_arrive``: a RUNNING instance queues the event and,
    when idle, pumps it; a KILLED one drops it; a RESPAWNING one retries
    data."""

    def test_idle_instance_starts_service_in_the_arrival_action(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.clock.now = 1_000
        env = make_event()
        engine.deliver(env, inst)  # a zero-delay hop is placed inside deliver
        assert inst.in_service is env and not inst.queue
        assert engine._actions == 1 and inst.in_flight == 0
        assert len(engine.clock._calendar) == 1
        t, _seq, (fn, args) = engine.clock._calendar.pop()  # the service completion
        assert (t, fn, args) == (1_100, engine._complete_service, (inst, env, inst.generation))
        engine.clock.now = t
        fn(*args)
        assert inst.in_service is None
        assert inst.state.processedCount == 1

    def test_a_scheduled_arrival_at_an_idle_instance_starts_in_its_own_action(self):
        # A rebalance shorter than the delay turns placement off, so the hop
        # sent at 1000 is an arrival at 1005: it takes the idle slot there,
        # due at its landing plus the service time.
        engine = quick_engine(networkDelayMs=5, rebalanceDuration=0.001)
        inst = engine.instances["T1#0"]
        engine.clock.now = 1_000
        env = make_event(emit_ts=1_000)
        engine.deliver(env, inst)
        assert inst.in_service is None and inst.in_flight == 1
        assert fire_next(engine) == 1_005
        assert inst.in_service is env and not inst.queue and inst.in_flight == 0
        (t, _seq, (fn, args)), = drain(engine)
        assert (t, fn, args) == (1_105, engine._complete_service, (inst, env, inst.generation))

    def test_a_transport_retry_at_an_idle_instance_starts_when_it_fires(self):
        # Sent at 1000 to a starting worker, the hop is retried at 1505 and
        # finds T1 RUNNING and idle: it starts then, not at its landing 1005.
        engine = quick_engine(networkDelayMs=5)
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine.mark_respawning("T1#0")
        engine.clock.now = 1_000
        env = make_event(emit_ts=1_000)
        engine.deliver(env, inst)
        assert fire_next(engine) == 1_005  # T1 is starting: the transport retries
        engine.respawn_instance("T1#0")
        engine.initialize_instance(inst, None)
        assert fire_next(engine) == 1_000 + 5 + runtime._TRANSPORT_RETRY_MS
        assert inst.in_service is env and inst.in_flight == 0
        (t, _seq, (_fn, args)), = drain(engine)
        assert (t, args) == (1_605, (inst, env, inst.generation))

    def test_busy_instance_queues_the_event(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        first, second = make_event(1), make_event(2)
        engine._arrive(first, inst)
        engine._arrive(second, inst)
        assert inst.in_service is first
        assert list(inst.queue) == [second]
        assert len(engine.clock._calendar) == 1  # only the first completion
        fire_next(engine)
        assert inst.in_service is second and not inst.queue

    def test_ready_instance_buffers_data_before_init(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine.respawn_instance("T1#0")
        assert inst.status == RUNNING and not inst.initialized
        env = make_event()
        engine._arrive(env, inst)
        assert inst.preInit == [env]
        assert inst.in_service is None and not inst.queue
        assert len(engine.clock._calendar) == 0

    def test_uninitialized_running_instance_buffers_data(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        inst.initialized = False
        env = make_event()
        engine._arrive(env, inst)
        assert inst.preInit == [env] and inst.in_service is None

    def test_capturing_instance_captures_data(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        inst.captureFlag = True
        env = make_event()
        engine._arrive(env, inst)
        assert inst.pendingList == [env]
        assert inst.in_service is None and not inst.queue
        assert len(engine.clock._calendar) == 0

    def test_control_event_at_idle_instance_goes_to_the_coordinator(self, monkeypatch):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        seen = []
        monkeypatch.setattr(engine.coordinator, "on_control_event",
                            lambda i, e: seen.append((i, e)))
        env = make_event(kind=PREPARE)
        engine._arrive(env, inst)
        assert seen == [(inst, env)]
        assert inst.in_service is None and not inst.queue

    def test_killed_instance_drops_the_event(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine._arrive(make_event(), inst)
        assert inst.in_service is None and not inst.queue and not inst.preInit
        assert len(engine.clock._calendar) == 0

    def test_respawning_instance_retries_data_and_drops_control(self):
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.kill_instance("T1#0")
        engine.mark_respawning("T1#0")
        engine.clock.now = 2_000
        engine._arrive(make_event(kind=PREPARE), inst)
        assert len(engine.clock._calendar) == 0
        env = make_event()
        engine._arrive(env, inst)
        assert inst.in_service is None and not inst.queue
        t, _, (_fn, args) = engine.clock._calendar.pop()
        assert t == 2_000 + runtime._TRANSPORT_RETRY_MS
        assert args == (env, inst)


class TestPlacement:
    """The two sites that start a ready event without an arrival action of
    its own: ``deliver`` for a ready hop, and the end of
    ``_complete_service`` for a DATA event at the queue head.  At a delay
    above zero a hop placed at its send starts no earlier than it lands,
    ``emitTs + networkDelayMs``.  A hop placed at an idle instance is
    checked in TestArrive's first case and in TestDelivery; a scheduled
    arrival, which ``_arrive`` queues and pumps, in the rest of TestArrive."""

    def test_a_ready_hop_behind_a_queued_barrier_pumps_it(self, monkeypatch):
        # Idle with a barrier still queued: the hop queues behind it, and
        # _pump hands the barrier on before the hop takes the slot.
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        seen = []
        monkeypatch.setattr(engine.coordinator, "on_control_event",
                            lambda i, e: seen.append(e))
        barrier, data = make_event(1, kind=PREPARE), make_event(2)
        inst.queue.append(barrier)
        engine.deliver(data, inst)
        assert seen == [barrier] and inst.in_service is data and not inst.queue
        assert engine._actions == 1 and inst.in_flight == 0

    def test_a_finished_service_starts_a_data_head_in_the_same_action(self):
        engine = quick_engine()
        inst = engine.instances["sink#0"]  # a sink sends no children
        first, second = make_event(1), make_event(2)
        engine.deliver(first, inst)
        engine.deliver(second, inst)
        pumped = []
        engine._pump = pumped.append
        assert fire_next(engine) == 100  # the first completion
        assert inst.in_service is second and not inst.queue and pumped == []
        (t, _seq, (fn, args)), = drain(engine)
        assert (t, fn, args) == (200, engine._complete_service, (inst, second, inst.generation))

    def test_a_slot_refilled_during_the_service_is_left_alone(self):
        # Under DSM an entry instance's own ack can complete a root and
        # release a deferred root to it, whose hop pumps its queue head
        # into the slot before the service finishes: the finished service
        # must then start nothing.
        engine = quick_engine(strategy="DSM")
        inst = engine.instances["T1#0"]
        inst.sel_count = 0  # T1 sends no child, as a selectivity below 1 may draw
        engine._emit_root()  # root 0 takes T1's slot
        queued = make_event(7)
        inst.queue.append(queued)
        engine.source.backlog = 1
        fire_next(engine)  # T1 acks root 0; root 1 queues behind `queued`, which takes the slot
        assert inst.in_service is queued
        assert [env.rootSeqNo for env in inst.queue] == [1]
        (_t, _seq, (_fn, args)), = drain(engine)  # queued's completion only
        assert args == (inst, queued, inst.generation)

    def test_a_delayed_hop_to_an_idle_instance_takes_its_slot_at_send(self):
        # Nothing is in flight to T1, so nothing reaches it before the hop
        # would land: the service starts at the send, due after the delay
        # plus the service time, and a kill meanwhile cancels it.
        engine = quick_engine(networkDelayMs=5)
        inst = engine.instances["T1#0"]
        env = make_event(1)
        engine.deliver(env, inst)
        assert inst.in_service is env and inst.in_flight == 0 and engine._actions == 1
        (t, _seq, (fn, args)), = drain(engine)
        assert (t, fn, args) == (105, engine._complete_service, (inst, env, 0))
        engine.kill_instance("T1#0")
        fn(*args)
        assert inst.state.processedCount == 0 and inst.in_service is None

    def test_a_delayed_hop_to_an_idle_instance_with_a_queue_joins_it(self):
        # As above, at 5 ms: root 1's hop finds T1 idle with `queued` still
        # in its queue, so it joins the queue behind it, and `queued` takes
        # the slot at once.  Root 1 lands at 110, before `queued` ends.
        engine = quick_engine(strategy="DSM", networkDelayMs=5)
        inst = engine.instances["T1#0"]
        inst.sel_count = 0
        engine._emit_root()  # root 0 takes T1's slot at its send
        queued = make_event(7)
        inst.queue.append(queued)
        engine.source.backlog = 1
        assert fire_next(engine) == 105  # T1 acks root 0 and root 1 is sent
        assert inst.in_service is queued and inst.in_flight == 0
        assert [env.rootSeqNo for env in inst.queue] == [1]
        assert [(t, fn) for t, _seq, (fn, _args) in drain(engine)] == [
            (205, engine._complete_service)]

    @pytest.mark.parametrize("sent_ms,due_ms", [(102, 207), (50, 205)])
    def test_a_delayed_hop_to_a_busy_instance_queues_at_send(self, sent_ms, due_ms):
        # At 5 ms the first hop takes T1's slot, due at 105.  The second,
        # sent while T1 is busy with nothing in flight to it, joins the
        # queue at its send.  Its service starts when it lands (107, if sent
        # at 102) or when the first service ends (105, if sent at 50),
        # whichever is later.
        engine = quick_engine(networkDelayMs=5)
        inst = engine.instances["T1#0"]
        first = make_event(1)
        engine.deliver(first, inst)
        engine.clock.now = sent_ms
        hop = make_event(2, emit_ts=sent_ms)
        engine.deliver(hop, inst)
        assert inst.in_service is first and list(inst.queue) == [hop]
        assert inst.in_flight == 0 and engine._actions == 2
        assert len(engine.clock._calendar) == 1  # the first completion only
        assert fire_next(engine) == 105
        assert inst.in_service is hop and not inst.queue
        assert [(t, args) for t, _seq, (_fn, args) in drain(engine) if args[0] is inst] == [
            (due_ms, (inst, hop, inst.generation))]

    def test_a_released_slot_starts_a_queued_hop_when_it_lands(self):
        # A checkpoint step holds T1's slot; a hop sent at 102 queues behind
        # it.  The step ends at 103 and pumps the queue: the hop starts when
        # it lands, at 107.
        engine = quick_engine(networkDelayMs=5)
        inst = engine.instances["T1#0"]
        inst.in_service = make_event(1, kind=PREPARE)
        engine.clock.now = 102
        hop = make_event(2, emit_ts=102)
        engine.deliver(hop, inst)
        assert list(inst.queue) == [hop] and inst.in_flight == 0
        engine.clock.now = 103
        inst.in_service = None
        engine._pump(inst)
        assert inst.in_service is hop and not inst.queue
        (t, _seq, (_fn, args)), = drain(engine)
        assert (t, args) == (207, (inst, hop, inst.generation))

    @pytest.mark.parametrize("kill_ms", [103, 106])
    def test_a_kill_before_a_queued_hop_lands_drops_it(self, kill_ms):
        # The hop sent at 102 would land at 107 and find T1 KILLED.  The kill
        # drops it from the queue (at 103), or cancels the service the end
        # of the first one gave it at 105 (at 106).
        engine = quick_engine(networkDelayMs=5)
        inst = engine.instances["T1#0"]
        engine.deliver(make_event(1), inst)
        engine.clock.now = 102
        engine.deliver(make_event(2, emit_ts=102), inst)
        engine.clock.schedule_at(kill_ms, engine.kill_instance, "T1#0")
        while len(engine.clock._calendar):
            fire_next(engine)
        # Only the first service, if any, completed before the kill.
        assert inst.state.processedCount == engine.kill_snapshots["T1#0"] == (kill_ms > 105)
        assert inst.in_service is None and not inst.queue

    def test_hops_from_two_senders_are_served_in_send_order(self):
        # The sink is busy until 15.  B1 sends at 4 (landing at 9) and B0
        # at 22 (landing at 27): B1's hop starts when the sink frees, B0's
        # when it lands, after B1's service ended at 25.
        engine = SimulationEngine(make_scenario(fan_out_dag(DUPLICATE, DUPLICATE), "DCR",
                                                networkDelayMs=5))
        sink = engine.instances["sink#0"]
        served = []
        complete = engine._complete_service

        def spy_complete(inst, env, gen):
            if inst is sink:
                served.append((engine.now, env))
            complete(inst, env, gen)

        engine._complete_fn = spy_complete
        busy = make_event(1)
        engine.deliver(busy, sink)  # due at 0 + 5 + 10
        hops = {}
        for sender, sent_ms in (("B1#0", 4), ("B0#0", 22)):
            inst = engine.instances[sender]
            inst.in_service = hops[sender] = make_event(len(hops) + 2)
            engine.clock.schedule_at(sent_ms, spy_complete, inst, hops[sender], inst.generation)
        while len(engine.clock._calendar):
            fire_next(engine)
        assert served == [(15, busy), (25, hops["B1#0"]), (37, hops["B0#0"])]
        assert sink.in_flight == 0

    @pytest.mark.parametrize("case", ["barrier", "capturing", "uninitialized"])
    def test_any_other_head_goes_through_pump(self, case, monkeypatch):
        engine = quick_engine()
        inst = engine.instances["sink#0"]
        seen, pumped = [], []
        monkeypatch.setattr(engine.coordinator, "on_control_event",
                            lambda i, e: seen.append(e))
        pump = engine._pump

        def spy_pump(i):
            pumped.append(i)
            pump(i)

        engine._pump = spy_pump
        engine.deliver(make_event(1), inst)
        head = make_event(2, kind=PREPARE if case == "barrier" else DATA)
        inst.queue.append(head)
        if case == "capturing":
            inst.captureFlag = True
        elif case == "uninitialized":
            inst.initialized = False
        fire_next(engine)  # the first completion
        assert pumped == [inst] and not inst.queue and inst.in_service is None
        assert (seen, inst.pendingList, inst.preInit) == {
            "barrier": ([head], [], []),
            "capturing": ([], [head], []),
            "uninitialized": ([], [], [head]),
        }[case]
        assert len(engine.clock._calendar) == 0


def fan_out_dag(*groupings: str) -> DagDef:
    """src -> T1 -> one task per grouping -> sink."""
    branches = [f"B{i}" for i in range(len(groupings))]
    tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("T1"),
             *(TaskDef(b) for b in branches), TaskDef("sink", serviceTimeMs=10))
    edges = (Edge("src", "T1"),
             *(Edge("T1", b, g) for b, g in zip(branches, groupings)),
             *(Edge(b, "sink") for b in branches))
    return DagDef("fan", tasks, edges, ("src",), ("sink",))


class TestSoleTarget:
    def test_set_for_one_shuffle_edge_to_one_instance(self):
        engine = quick_engine()
        assert engine.instances["T1#0"].sole_edge == (engine.instances["T2#0"],)
        assert engine.instances["T3#0"].sole_edge == (engine.instances["sink#0"],)

    @pytest.mark.parametrize("groupings", [(DUPLICATE, DUPLICATE), (DUPLICATE, SHUFFLE)])
    def test_none_for_duplicate_fan_out(self, groupings):
        # A DUPLICATE edge beside one single-instance SHUFFLE edge still
        # sends each event to both branches.
        engine = quick_engine(fan_out_dag(*groupings))
        assert engine.instances["T1#0"].sole_edge is None

    def test_none_for_several_shuffle_edges(self):
        engine = quick_engine(fan_out_dag(SHUFFLE, SHUFFLE))
        assert engine.instances["T1#0"].sole_edge is None
        assert engine.instances["B0#0"].sole_edge == (engine.instances["sink#0"],)

    def test_set_for_a_multi_instance_target(self):
        engine = quick_engine(make_chain_dag(3, sink_instances=2))
        sinks = (engine.instances["sink#0"], engine.instances["sink#1"])
        assert engine.instances["T3#0"].sole_edge == sinks
        assert engine.instances["T2#0"].sole_edge == (engine.instances["T3#0"],)

    def test_none_for_sinks(self):
        engine = quick_engine()
        assert engine.instances["sink#0"].sole_edge is None

    def test_source_round_robin_matches_the_router_across_rewire(self):
        tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("T1", instanceCount=2),
                 TaskDef("sink"))
        dag = DagDef("wide_head", tasks, (Edge("src", "T1"), Edge("T1", "sink")),
                     ("src",), ("sink",))

        engine = quick_engine(dag)
        sent = spy_sends(engine)
        for _ in range(3):
            engine._emit_root()
        engine.rewire_channels()
        for _ in range(2):
            engine._emit_root()
        assert [to.instanceId for _env, to in sent] == [
            "T1#0", "T1#1", "T1#0",  # rewired
            "T1#0", "T1#1"]

    def test_children_are_delivered_to_the_sole_target(self):
        engine = quick_engine()
        sender, target = engine.instances["T1#0"], engine.instances["T2#0"]
        env = make_event()
        engine._arrive(env, sender)
        entered = []
        with watch_inputs(engine, lambda child, to: entered.append((child, to))):
            done = fire_next(engine)  # T1 completes service and emits one child
        (child, to), = entered
        assert target.in_service is child  # the idle target serves it at once
        # The one child is the serviced envelope itself, forwarded anew.
        assert to is target and child is env
        assert child.eventId != 1 and child.emitTs == done
        assert sender.rr_edges == 0 and not sender.rr_targets

    def test_still_live_after_respawn_and_rewire(self):
        engine = quick_engine()
        target = engine.instances["T2#0"]
        engine.kill_instance("T2#0")
        engine.respawn_instance("T2#0")
        engine.rewire_channels()
        assert engine.instances["T2#0"] is target
        assert engine.instances["T1#0"].sole_edge == (target,)
        engine.initialize_instance(target, None)
        env = make_event()
        engine._arrive(env, engine.instances["T1#0"])
        fire_next(engine)  # the child arrives at the sole target at once
        assert target.in_service is not None
        assert target.in_service.rootId == env.rootId

    def test_round_robin_matches_the_router_across_respawn_and_rewire(self):
        def sequence(use_router):
            engine = quick_engine(make_chain_dag(3, sink_instances=2))
            inst = engine.instances["T3#0"]
            if use_router:
                inst.sole_edge = None

            def targets(events):
                return [to.instanceId for _ in range(events)
                        for _child, to in serve(engine, inst, make_event())]

            sent = targets(3)
            engine.rewire_channels()
            sent += targets(2)
            assert inst.sole_sent == (0 if use_router else 2)
            engine.kill_instance("T3#0")
            engine.respawn_instance("T3#0")  # reset_routing restarts the turns
            assert inst.sole_sent == 0
            engine.initialize_instance(inst, None)
            return sent + targets(3)

        assert sequence(use_router=False) == sequence(use_router=True) == [
            "sink#0", "sink#1", "sink#0",  # rewired
            "sink#0", "sink#1",  # respawned
            "sink#0", "sink#1", "sink#0"]

    def test_one_target_takes_every_child_uncounted(self):
        engine = quick_engine()
        inst, target = engine.instances["T1#0"], engine.instances["T2#0"]
        for _ in range(3):
            (_child, to), = serve(engine, inst, make_event())
            assert to is target
        assert inst.sole_sent == 0 and inst.sole_edge == (target,)


class TestEnvelopeOwnership:
    def test_selectivity_two_sends_a_fresh_envelope_then_the_parent(self):
        engine = quick_engine(selective_chain_dag(2.0))
        inst = engine.instances["T1#0"]
        draws = random.Random()
        draws.setstate(engine.rng.getstate())
        expected_ids = [draws.getrandbits(64) or 1 for _ in range(2)]
        engine.clock.now = 500
        env = make_event()
        (first, first_to), (second, second_to) = serve(engine, inst, env)
        assert first is not env and second is env
        assert [first.eventId, second.eventId] == expected_ids
        assert (first_to.instanceId, second_to.instanceId) == ("T2#0", "T2#1")
        assert first.emitTs == second.emitTs == 500
        assert first.rootId == second.rootId == env.rootId == 1

    def test_a_forwarded_root_still_replays_with_its_own_identity(self):
        engine = quick_engine(strategy="DSM")
        engine._emit_root()
        (root_id, root), = engine.source.root_cache.items()
        fire_next(engine)  # T1 forwards the root envelope itself to T2
        assert engine.source.root_cache[root_id] is root and root.eventId != root_id
        engine.clock.now = engine.ack_timeout_ms + 1
        sent = spy_sends(engine)
        engine._sweep_tick()  # the root is overdue: it replays
        replay, = (env for env, _target in sent if env.replayed)
        assert replay is not root
        assert (replay.eventId, replay.rootId, replay.rootSeqNo, replay.epoch) == (
            root_id, root_id, 0, 0)
        assert list(engine.timeline.select(REPLAY, engine.timeline.event_ids)) == [root_id]


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
        with pytest.raises(InvariantViolation, match="T1#0 is already killed"):
            engine.kill_instance("T1#0")

    def test_respawn_gives_fresh_uninitialized_runtime(self):
        engine = quick_engine()
        inst = engine.instances["T2#0"]
        inst.state.processedCount = 42
        inst.captureFlag = True
        engine.kill_instance("T2#0")
        engine.respawn_instance("T2#0")
        assert inst.status == RUNNING
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
        engine.initialize_instance(inst, None)
        assert inst.initialized and inst.status == RUNNING
        assert inst.in_service is not None  # buffered event went into service

    @pytest.mark.parametrize("respawn", [False, True])
    def test_kill_cancels_a_scheduled_service_completion(self, respawn):
        # After a respawn the instance is RUNNING again: only its
        # generation tells the stale completion apart.
        engine = quick_engine()
        inst = engine.instances["T1#0"]
        engine.deliver(make_event(), inst)  # arrives at once, into service
        assert inst.in_service is not None
        engine.kill_instance("T1#0")
        if respawn:
            engine.respawn_instance("T1#0")
        assert fire_next(engine) == inst.service_ms  # the stale completion
        assert inst.in_service is None and inst.state.processedCount == 0
        assert len(engine.clock._calendar) == 0  # no child was sent

    @pytest.mark.parametrize("respawn", [False, True])
    @pytest.mark.parametrize("kind", [PREPARE, COMMIT])
    def test_kill_cancels_a_scheduled_checkpoint_step(self, kind, respawn):
        # A DSM checkpoint: a sequential PREPARE wave, then its COMMIT
        # wave.  T1#0 is killed while it prepares or persists, so its
        # scheduled _slot_released must do nothing.
        engine = quick_engine(strategy="DSM")
        inst = engine.instances["T1#0"]
        engine.coordinator.start_wave(PREPARE, SEQUENTIAL, 1)
        while inst.in_service is None or inst.in_service.kind != kind:
            fire_next(engine)
        engine.kill_instance("T1#0")
        if respawn:
            engine.respawn_instance("T1#0")
        cal = engine.clock._calendar
        while len(cal):
            fire_next(engine)
        assert inst.in_service is None
        phase = None if kind == PREPARE else PREPARED
        for inst_id in ("T1#0", "T2#0"):  # nothing done, nothing forwarded
            record = engine.store.get(inst_id, 1)
            assert (record and record.phase) == phase, inst_id


def fork_case(name: str):
    """Parent config of a fork test: a bundled scenario under DCR, at zero
    delay or at 20 ms, or a fan-out to two DUPLICATE branches joined at the
    sink under CCR, at zero delay or at 5 ms.  At a delay the fork copies
    hops placed at their send, in a slot or in a queue."""
    if name.startswith("linear_scalein"):
        return with_overrides(load_bundled_scenario("linear_scalein"), strategy="DCR",
                              networkDelayMs=20 if name.endswith("_20ms") else 0)
    return make_scenario(fan_out_dag(DUPLICATE, DUPLICATE), "CCR",
                         networkDelayMs=5 if name == "fan_join_5ms" else 0)


def outcome(engine):
    """What a finished run must reproduce: timeline and report bytes,
    actions fired and calendar pushes."""
    return (engine.timeline.to_csv(), compute_report(engine.timeline, engine.config).to_json(),
            *work_of(engine))


@functools.cache
def outcome_from_scratch(name: str, strategy: str):
    engine = SimulationEngine(with_overrides(fork_case(name), strategy=strategy))
    engine.run()
    return outcome(engine)


class TestForkAtTrigger:
    @pytest.mark.parametrize("name", [
        "linear_scalein", "linear_scalein_20ms", "fan_join", "fan_join_5ms"])
    @pytest.mark.parametrize("twin_first", [True, False])
    def test_parent_and_twin_equal_runs_from_scratch(self, name, twin_first):
        # The twin draws from its own generator: with a copy of the
        # parent's bound getrandbits, the engine run second would draw
        # different event ids and worker start-ups.
        parent = SimulationEngine(fork_case(name))
        other = "CCR" if parent.config.strategy == "DCR" else "DCR"
        twin = parent.fork_at_trigger(other)
        trigger_ms = to_ms(parent.config.migrationTriggerAt)
        assert parent.now == twin.now == trigger_ms
        assert parent.timeline.phase_ts("REQUEST") is None
        assert twin.config.strategy == other and twin.config.dag is parent.config.dag
        assert type(twin.coordinator) is type(SimulationEngine(twin.config).coordinator)
        for engine in ([twin, parent] if twin_first else [parent, twin]):
            engine.run()
        assert outcome(parent) == outcome_from_scratch(name, parent.config.strategy)
        assert outcome(twin) == outcome_from_scratch(name, other)

    def test_a_held_engine_forks_again(self):
        parent = quick_engine(strategy="DCR")
        twins = [parent.fork_at_trigger("CCR") for _ in range(2)]
        for engine in (*twins, parent):
            engine.run()
        scratch = SimulationEngine(parent.config)
        scratch.run()
        assert outcome(twins[0]) == outcome(twins[1])
        assert outcome(parent) == outcome(scratch)

    @pytest.mark.parametrize("parent,twin", [("DSM", "CCR"), ("DCR", "DSM"), ("CCR", "DSM")])
    def test_dsm_never_forks(self, parent, twin):
        engine = quick_engine(strategy=parent)
        with pytest.raises(InvariantViolation, match="cannot fork a DSM run"):
            engine.fork_at_trigger(twin)
        assert engine._actions == 0

    def test_a_run_without_migration_never_forks(self):
        engine = SimulationEngine(make_scenario(make_chain_dag(3), "DCR"), migrate=False)
        with pytest.raises(InvariantViolation, match="without a migration trigger"):
            engine.fork_at_trigger("CCR")
        assert engine._actions == 0

    def test_a_run_past_its_trigger_never_forks(self):
        finished = quick_engine(strategy="DCR")
        finished.run()
        resumed = quick_engine(strategy="CCR")
        resumed.fork_at_trigger("DCR")
        resumed.run()
        for engine in (finished, resumed):
            with pytest.raises(InvariantViolation, match="already past its migration trigger"):
                engine.fork_at_trigger("CCR")


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

    @pytest.mark.parametrize("strategy", ["DSM", "DCR", "CCR"])
    def test_renaming_every_vm_changes_nothing(self, strategy):
        # A metamorphic oracle: a VM id is only a name.  The new names sort
        # in the reverse order of the old ones; declaration order is kept,
        # since round-robin placement follows it.
        config = with_overrides(load_bundled_scenario("linear_scalein"), strategy=strategy)
        old = [vm.vmId for vm in config.vmsBefore + config.vmsAfter]
        new = {vm_id: f"renamed-{len(old) - i:02d}" for i, vm_id in enumerate(old)}

        def renamed(schedule):
            return schedule._replace(placements={
                inst: (new[vm_id], slot)
                for inst, (vm_id, slot) in schedule.placements.items()})

        twin = with_overrides(
            config,
            vmsBefore=[vm._replace(vmId=new[vm.vmId]) for vm in config.vmsBefore],
            vmsAfter=[vm._replace(vmId=new[vm.vmId]) for vm in config.vmsAfter],
            scheduleBefore=renamed(config.scheduleBefore),
            scheduleAfter=renamed(config.scheduleAfter))
        assert observed_work(twin) == observed_work(config)


# Full SHA-256 of timeline.csv and report.json (to_csv()/to_json()) of
# every bundled run the suite cache makes: the ten paper scenarios under
# DSM, DCR and CCR, plus the 50-task stress scenario under DCR and CCR.
# They cover DUPLICATE and SHUFFLE routing, data acking, checkpoint waves,
# kill and respawn.  A change that alters them must say why; where only
# same-millisecond tie order or event ids moved, every report pin and
# PINNED_BEHAVIOUR digest holds.
PINNED_RUNS = {
    ("linear_scalein", "DSM"): (
        "b0b9f084232f7d06b3e6d5fde59f151341af81ec425720e18e5d18835c9a6784",
        "2f856b13dc31fefb9d28459556a2afec2c0f3bb61c60dff7bab3bf126a7c738b"),
    ("linear_scalein", "DCR"): (
        "f0c00864d34bd7a50c805f50255a62742d23ae37a421db860623a7ecbad4a92b",
        "a529d7e6f31b31fac34a0b8f9e19125b64e8e51f2db59151161b9fed16f6effa"),
    ("linear_scalein", "CCR"): (
        "c5ac32c1413d03c4d151031305416d0d8fe77e0e3adbddfe4a843bfa54dd27e2",
        "1c7d4cb2b59545c87bb1a6555df445ff9cb9dff5f0cd9ac993ab39770c70cceb"),
    ("linear_scaleout", "DSM"): (
        "63793e855f2263aef522b267540fab959020aaf8788831a732edf0de553381f4",
        "ac604bf8f9bc539e4166ac4021a21a7371427fe74747e32479eb8cb79d708961"),
    ("linear_scaleout", "DCR"): (
        "4f41dfb39a4b8633382fde603e352d4ab125e7f32ba0d6b544f2af053d114725",
        "dbcbf80acc732515d2d9e4d7254cc446981d6d3f669d9b4f781ba1b4f4c2fd49"),
    ("linear_scaleout", "CCR"): (
        "1108510e8919a386521efd92e7657597da244bf9de03e6b62c1e5f8e6fab0a5c",
        "a6dd01815e800d860ce74487924f1310f695a72f28837ad688a62c37f4a1bb6d"),
    ("diamond_scalein", "DSM"): (
        "18a640e04286cee9180ad2675209c955e859f9be0f9549214ada2f16b1fa8741",
        "cea67cb89d041139967b3f6cfa47f226580d9715b8fd490af8d579da71c437d1"),
    ("diamond_scalein", "DCR"): (
        "64301ec3ce860e2fe8641cd0ea2d850e9d06b71cf8b67d4742ee0771eb80be8b",
        "8feccb6c590d41e99fb85b93feef20dc6e552987a6a0dce99338efe30aa1a9a4"),
    ("diamond_scalein", "CCR"): (
        "82603c86ab94c3c1e96fef2d5ba911970966921f8936d6a60b256e05e6670df8",
        "5b6e7cd69a74e211fb90e2a419af54dcecee93b5423a9d8ccbe4a3c4dcf9989f"),
    ("diamond_scaleout", "DSM"): (
        "46b742dbfd0333ae411d530b1b44fe395770e5cb34a56fbb3439fec3ff8efda8",
        "9ffff5f3df8079393000274510cab1102deec2c756cab5a27854577fdd04e8aa"),
    ("diamond_scaleout", "DCR"): (
        "dd6e25e62f979e4180ea02f5569f3ca8cf9565e75ec1f459da35b1a950dc8d0a",
        "bc6cc9bca62c6a98d0e8d7650809f5749531b477ef1f6a69b75f412cc01ded24"),
    ("diamond_scaleout", "CCR"): (
        "856e9e8ead4a5170e3c66d23367f2d14aebab383076cb4aa734b3ff16c9849e2",
        "4300647463ec186d8bc7636e20cd704e064e383be6871768501031b4f3ad319a"),
    ("star_scalein", "DSM"): (
        "d898483a351193662382bf956acc6e2031a2984883f6e0dfc552e79fd8ed8678",
        "3609f43089fc9a5d5c89f107e44cf5582954ce41e204a32249edcaf8a596bff0"),
    ("star_scalein", "DCR"): (
        "5a9ea504720e6f84b40d3c24fa821541c0fbff9977b18f8ded139ab32d1aebe1",
        "8382f2b7e6c934ec7e75768ff736befbfb8cecbc30c4e6d8caae7bc0a328446c"),
    ("star_scalein", "CCR"): (
        "9b4ce8308b3df62253b32f9a25a9727fc015a0e8aec2533021b7b43dcfbf3744",
        "18fbcd0d6b78a5f36b5ff5f5f0e01af4924f2acc810f9e95262d53609c777de4"),
    ("star_scaleout", "DSM"): (
        "375da3bf7589211c213cb2df46ac9ab29fa4f9c1e5cc5353cb726a7263b92f2e",
        "e22a5a2f8c1b0dc5a04021871ad4aee7f5c85b8f60a680e91af0319bbe363554"),
    ("star_scaleout", "DCR"): (
        "6f76d5a0823aca0e679096cee421eac87968c52d5af7f38f08c81d12647300d5",
        "4182d276e22d4b43131f8f0f641ca3fd3839cd94959ba4b3354b52417a4b1d35"),
    ("star_scaleout", "CCR"): (
        "9d8368958b0392b1aedc289767333e994caebee7b25b910622a1293bfed5d439",
        "e1c503f48d0b8e51933cb6705c6e7cd9ad586434cc8701e02a0ce08ea91b3004"),
    ("grid_scalein", "DSM"): (
        "6e42294b69e5eb52ce2f95e745f5ce3d63d8e046c4f61a07c0f6a11389f08c27",
        "9a69c3ebee423fe79b303250d1cceb762c967e5ddb4815353df365dc5cc2b9d3"),
    ("grid_scalein", "DCR"): (
        "ab2ac925545f8ddbf92dbbe6461885aeace9fc3f632ceb46b3b8514a1c2db333",
        "c8e814f60ae59eb2a630fc9366e226274391e5457ccd2eb8c1aec512fb6205ae"),
    ("grid_scalein", "CCR"): (
        "23b6762c2122d5288d3dd6c6c11dd99662a19bec5c4d8e68b5811faaccce6edd",
        "96ae7249ee8401e4afc52df93df21f0aa0db90124297daed5507a193f98f0d98"),
    ("grid_scaleout", "DSM"): (
        "dbde38d30cb62c0dd0fd786c50d5f70e3fa677aa7940b16b102b43d3c4d3467f",
        "55db9a1ac7e94ee9687c80063a312f9555fc0d5764e36f09068c00487ead99a1"),
    ("grid_scaleout", "DCR"): (
        "5f2555bd824dc9503d39c172938bb1435949ca1a51c8752186e30e946d1dede1",
        "e12b5b9b048e3590edcc5a3e04dfbe38b92be6dc17b319dc57fdd7973f8ff1e7"),
    ("grid_scaleout", "CCR"): (
        "526fbe0f159a515a3fd5e4f3494c74163ab4e86e1b3fb82b311f8db99f0715eb",
        "d4e4494ebf9ce011bc860bcc0bc92bb6e9b63d7401efbd9c715839654169758a"),
    ("traffic_scalein", "DSM"): (
        "228d1a6a34d935d7307077ceba9d8e501ffc6f404121bbe82ddefb50af6ba443",
        "1a9ea7c2b02fdbea5a3751f76432e857fb4638e5569ef78ff82d42dc9926e424"),
    ("traffic_scalein", "DCR"): (
        "d832383a2b9b4d66663004fbbaf189d5ef4b376275c384e8c961049b249df61f",
        "75fab4e546762c973976ad7a469b3266774077259e2e741d2fad9da63bb2b26e"),
    ("traffic_scalein", "CCR"): (
        "740d73aa068aab6c15663bb630b9ea504e5a4118a92d1377d2e4110d2edf52fe",
        "f78e20b9ba05cc5179eb8d1137775aad8a816c7adf40d4c2414e35fe7a9f1eb1"),
    ("traffic_scaleout", "DSM"): (
        "611c407dfb382cd7461fee92ab58450aa6a69eeb92722019e746c015e26f6be5",
        "7a78e756000167a64cb9b573e44d23d85a530328f55cb7dbef6fa3539c06214a"),
    ("traffic_scaleout", "DCR"): (
        "e341497a3fe41978c3750b30bf620a760da09f5c2f5bf3802c29c43652813ed7",
        "7d2c50019fe3813b969d76132830d2d3f4220bc96bf15ba470d24d3648be9de9"),
    ("traffic_scaleout", "CCR"): (
        "15711dc8876f26c9d99ef3ff502b3c10c75d7db9a57fdad5713b91148b123351",
        "d0d026b22b94cdb3975aefcd8cf893ccb04b952c44d153c9ea86078047d98688"),
    ("linear50_stress", "DCR"): (
        "4ce778a3d870f0ac43624db1cd08f5a9133468c8888e07c5918c3d31bd8b9d5a",
        "2017b762fec34b4d9fd33ee7c6cd727d86146244fc6cdd46dc7fc6438443987e"),
    ("linear50_stress", "CCR"): (
        "f1c49242d613fda46183819a414e12eb4660ae572364fd5eaa5967c0a7038e2e",
        "f6aefb0465aae1deee232e55384e07cf2088997cb848ad7e49b66b85db61e805"),
}

# Timeline and report SHA-256, engine actions and calendar pushes of the
# runs the benchmark times: linear50_stress under DCR and CCR at 5 ms
# network delay (its chain50_delay configs, the only runs with a nonzero
# delay) and grid_scalein under DSM.  An engine change that saves work
# must not change what a run does: the actions and pushes pin that.
PINNED_WORK = {
    ("linear50_stress", "DCR", 5): (
        "b1a0b708c306c8cd04dbe7b3808ad0db987f58a7680366f94eca541bcc84c056",
        "f6b9202d562c4325fc63c85e34bd530c63a2551f844c7bdfc217e1ca6691b5b9",
        247_585, 125_185),
    ("linear50_stress", "CCR", 5): (
        "27da24761a624777d0ae1fd8cdaab35b307e686859d003a1314d5b7dd7401f4e",
        "5800a1a5071e9af8e2f0512f09acdbcdef9bdbafc5dca27dceef023c8dab75b7",
        249_340, 126_982),
    ("grid_scalein", "DSM", 0): (
        "6e42294b69e5eb52ce2f95e745f5ce3d63d8e046c4f61a07c0f6a11389f08c27",
        "9a69c3ebee423fe79b303250d1cceb762c967e5ddb4815353df365dc5cc2b9d3",
        341_213, 178_106),
}

# The same four pins for short runs of shapes the bundled runs lack:
# DUPLICATE fan-out into a join under each strategy (DSM replays there
# without a failure), a SHUFFLE split at 7 ms network delay, more than one
# child per event (selectivity 2.0, and 1.5 with its seeded coin flips),
# and DSM on linear_scalein at a 10 s ack timeout, whose replays re-send
# roots that the first hop forwarded.  A None report digest pins no
# report: fractional selectivity made none when these were pinned.
SHAPES = {
    "fan_out_join": lambda strategy: make_scenario(fan_out_join_dag(), strategy),
    "shuffle_split_7ms": lambda strategy: make_scenario(shuffle_split_dag(), strategy,
                                                        networkDelayMs=7),
    "selectivity_2": lambda strategy: make_scenario(selective_chain_dag(2.0), strategy),
    "selectivity_1.5": lambda strategy: make_scenario(selective_chain_dag(1.5), strategy),
    "linear_scalein_ack10": lambda strategy: with_overrides(
        load_bundled_scenario("linear_scalein"), strategy=strategy, ackTimeout=10.0),
}

PINNED_SHAPES = {
    ("fan_out_join", "DSM"): (
        "2cee0c5ca371e31943d5024c75206c32c399c00f5654163c91aa86b153f6206c",
        "656506fa9edc0eb6668854f134d4beb70d257d254556e48794bfa9ff9b4701e1",
        15_348, 8_168),
    ("fan_out_join", "DCR"): (
        "bc1acae4476b91537c51a2531d35599b69e539c6fa153d8eefdd21c23e821d97",
        "60ff07fd13f3b5e7b1cc296381ac6c71b710e2b99002a4fa93b6ceed67f66701",
        10_856, 5_816),
    ("fan_out_join", "CCR"): (
        "47f234b0f947b6349e5e6d62f33800268a6ab31cbce9e8cb0a4a66bd54f08a4b",
        "b4043d25aed3b6afd27ec501c65dd49192584cac08513d974b59bda4d842b114",
        10_858, 5_818),
    ("shuffle_split_7ms", "DSM"): (
        "d87a4acc87769f12fbfc40cd7e45f71bea003f438930f7951246ef7c49f9e746",
        "c05955ba7cf3310c81859f023206a62c5aaf991417528dba83f91341942050f8",
        6_150, 3_611),
    ("shuffle_split_7ms", "DCR"): (
        "880e57fd1e50028f3fb4e5fa3d983722e26cc3e89a3c37f7aad9f5b1e07352cf",
        "af19df45c82e73cae73b8f998ee8d7e4b4bfb8086e97ed1e195d52d420bdb546",
        5_076, 2_916),
    ("shuffle_split_7ms", "CCR"): (
        "e226d9263519d6a194e35044e43cdf288fdfec412613024b2045ad7df4f38341",
        "8eb28883ad56d3f1249329bb066321a3a965c27a110610bbced1a53dfafaeb02",
        5_079, 2_919),
    ("selectivity_2", "DSM"): (
        "e7b677db05d3e709f18ae6742c69f4204886b6eeb1472bf9189ec813a4fcd25a",
        "6910192d35c9ec05380ecc12658e753e44fe12760baf2b671a46647b2741ff88",
        10_807, 5_895),
    ("selectivity_2", "DCR"): (
        "e2998b49c05dc6645667e508ad2929f17cfdfd33a75c15700bcf6831e6b460e5",
        "7ac5d33b78a6ccb99dc9604daf62f2413a57b59c3b9ae8d731d14e06212d39f3",
        7_962, 4_362),
    ("selectivity_2", "CCR"): (
        "8bdf266b6f4a6d235ef92054a4e6d40b166718e04f241b441c0017b9320e1747",
        "ac93aa8c689db296f0232cccce3b77ce88b6be22c95a4ff2c1787a3de6760e54",
        7_965, 4_365),
    ("selectivity_1.5", "DSM"): (
        "e88c1431ac5b52f27b6c75229fdc0ff26e2af3f5214671853bf41e1e7afc1e84", None,
        8_769, 4_876),
    ("selectivity_1.5", "DCR"): (
        "4d6a22d3b5aa0036a0843f562cfc85cff59437f4d9ae809882cc1a638bdd994f", None,
        6_596, 3_682),
    ("selectivity_1.5", "CCR"): (
        "d1a4293b3bf7c0264dce0e7bb851f9ce5320c4589f50bd4ec3da98f6b65b379a", None,
        6_609, 3_687),
    ("linear_scalein_ack10", "DSM"): (
        "8ef1aa15f413be19ccc06eea447d57688c459751c070e939250caba6c6aa95fd",
        "30d0fda6dfb4ca96aa769b96508125195bc87335a2b031f3c4b81d6af1eb2e40",
        265_263, 148_190),
}


# conftest.behaviour_digest of each pinned run and shape: what the run did
# (its sorted (site, rootSeqNo, epoch, replayed) rows and its timed phases),
# apart from event ids and tie order: a change that only reorders
# same-millisecond ties, or draws ids in another order, keeps it.
PINNED_BEHAVIOUR = {
    ("diamond_scalein", "CCR"):
        "1adc7fbeea88df23f151f53a356c5c4b74f375d772f1fc38f1d5af0339b898f9",
    ("diamond_scalein", "DCR"):
        "9d0437516ab9767f5fd027bab0f95506bb02bd0bbb752dac0944c57e049950a8",
    ("diamond_scalein", "DSM"):
        "8acd4bdcd80b6b88bad034b36f49dd6340a837c783f2828f998d660f3c7e6a2b",
    ("diamond_scaleout", "CCR"):
        "1bfde8e0157ff923f701bcf825254f779057bd4ba74abd7778c8ae9db35db861",
    ("diamond_scaleout", "DCR"):
        "668d6e5c5c02168acd7d392a24a5517202ea7b16e55366a233f852b1a1c82946",
    ("diamond_scaleout", "DSM"):
        "8acd4bdcd80b6b88bad034b36f49dd6340a837c783f2828f998d660f3c7e6a2b",
    ("grid_scalein", "CCR"):
        "7948719d2413a909f60eb65cba58fe9117a279a3d142859e0376dce8787c8bcc",
    ("grid_scalein", "DCR"):
        "6be363d3e6a06a7f6d9e2d1296c3454d57b5d6d0d0bf0eca2c112554a58eeb82",
    ("grid_scalein", "DSM"):
        "9d3cec7f5b1ff919f0c2f647388537226a31651af571d8825fc76e6a62a4837b",
    ("grid_scaleout", "CCR"):
        "7948719d2413a909f60eb65cba58fe9117a279a3d142859e0376dce8787c8bcc",
    ("grid_scaleout", "DCR"):
        "59bbfc4ae62e57d28154e4573ec4e41cec3f48523115500d352e89d4142d9d9d",
    ("grid_scaleout", "DSM"):
        "9d3cec7f5b1ff919f0c2f647388537226a31651af571d8825fc76e6a62a4837b",
    ("linear50_stress", "CCR"):
        "0612e7493579dd9e8944e1936ee44aea2dfc2d59076ac6e74ec73a6978c21cc7",
    ("linear50_stress", "DCR"):
        "4e69903237bec418fc5a221489658f6fa7dc423aacef7f546dcbb1f9503067cd",
    ("linear_scalein", "CCR"):
        "382599cc3f0a886f4045658af502f419f7627416bbd740b450108dd8588a309b",
    ("linear_scalein", "DCR"):
        "ac90f536ab9545c2a1a7acde17b5e58495f50e9c9b06a6316c05a368ebf88cd9",
    ("linear_scalein", "DSM"):
        "f5bf2b8cc9d23536a53fcc2e2b3eaba916e6c28a378539f73fc84266d90026ee",
    ("linear_scaleout", "CCR"):
        "7287cadfe5813af0e66d957eafcb6b8aa5614c3f2289f8499f1e99a14373e247",
    ("linear_scaleout", "DCR"):
        "b0bbe62f23d43931136909463ec11f2ab99f449b723297cf2b7cd241a29cd043",
    ("linear_scaleout", "DSM"):
        "f5bf2b8cc9d23536a53fcc2e2b3eaba916e6c28a378539f73fc84266d90026ee",
    ("star_scalein", "CCR"):
        "871401e93a5d48066a390e6f96da0d7cbdaaf43aabbf6abcc4fc72f6ac4c31ed",
    ("star_scalein", "DCR"):
        "3f5f410cf44a2ee535c4cae688cff3d2c0222ebda85e15b4a05323fbf2f385b9",
    ("star_scalein", "DSM"):
        "06e191a7038a123c0218c72e6f6eabb32c2a2e0df782da3b675954edf10cc70f",
    ("star_scaleout", "CCR"):
        "871401e93a5d48066a390e6f96da0d7cbdaaf43aabbf6abcc4fc72f6ac4c31ed",
    ("star_scaleout", "DCR"):
        "c6e330209b7f508c2438591fe9eab30a6ce16b8df4e7adf064228722e1b9f25c",
    ("star_scaleout", "DSM"):
        "06e191a7038a123c0218c72e6f6eabb32c2a2e0df782da3b675954edf10cc70f",
    ("traffic_scalein", "CCR"):
        "bd46a4f03f00a9eddbec4591b805b80b59a20fca3fe1b1b63e0730d60c601779",
    ("traffic_scalein", "DCR"):
        "744d058c1d1203f9c794411e0627171a1076698e28fc41b59d20e9adc2b90d49",
    ("traffic_scalein", "DSM"):
        "f365ec0a173a8adc746703f5a8a196451ce8b371168ffb99dc5bcece549b6485",
    ("traffic_scaleout", "CCR"):
        "bd46a4f03f00a9eddbec4591b805b80b59a20fca3fe1b1b63e0730d60c601779",
    ("traffic_scaleout", "DCR"):
        "e4b63d017c69c03a871c84972af190098eeaef5571e277ca506afc812a71db27",
    ("traffic_scaleout", "DSM"):
        "f365ec0a173a8adc746703f5a8a196451ce8b371168ffb99dc5bcece549b6485",
}

# The selectivity_1.5 shapes are the exception: each completion there
# draws a coin flip from the run's generator, so serving events in another
# order flips other coins, and a tie-order change moves their digests too.
SHAPE_BEHAVIOUR = {
    ("fan_out_join", "CCR"):
        "2477fb0daf4eb08497761bdc236f665eaab73cafd8f37ad26704cfa84c89f070",
    ("fan_out_join", "DCR"):
        "c79d58064f527064a120a5156dfcf41f91daf2273fb1e97cbee89cfe21be8605",
    ("fan_out_join", "DSM"):
        "1c47a58e3f684f76357e66b0f798f8774db43fa7ba3218eb4af540bc89dddfb1",
    ("linear_scalein_ack10", "DSM"):
        "f58cf6c634b5b7502f2cad5c9f1d470b9d79da67a9ac20873342b41c171e4e66",
    ("selectivity_1.5", "CCR"):
        "3963a1b146a282e251c22922e0172d111b228d157fa3c2968747eadba3a3fa88",
    ("selectivity_1.5", "DCR"):
        "be2af186c9b6ea9e19c36ff77e4f15767929266591ab2cbc2b5320781a82697d",
    ("selectivity_1.5", "DSM"):
        "506a09965ddee958d71ccbd45b6011339cada169a2734feb00f25d5d2d92ec02",
    ("selectivity_2", "CCR"):
        "5dab0fbcd11c0ab06b47b1b6f1b89bd877f4eeaa52f91a5484008171944dc498",
    ("selectivity_2", "DCR"):
        "d65c61ffcc02ac3510a797d5e88f73dbf41b25cdbfb72e53ab3e460b3c56a44f",
    ("selectivity_2", "DSM"):
        "b08cec43b22a18feaef5f3b061c3a39b11654516643806855ff493e9b0afadf0",
    ("shuffle_split_7ms", "CCR"):
        "c35a2173c2f5200d010d569b53971140017828bca5102de372ad9d713fedd8e1",
    ("shuffle_split_7ms", "DCR"):
        "59af6fc855e8033da33257ebd402fe3e71ee914e55b82378240b9c23163020a7",
    ("shuffle_split_7ms", "DSM"):
        "ab6e038fb4c282fcc05952c2f2a6c0f665d5ccf65adb205cd310d2d4aa7bbc6b",
}


# Timeline SHA-256, actions and calendar pushes of two DSM runs through the
# acker paths, keyed by scenario and the one field overridden:
# diamond_scalein at a 10 s ack timeout (6,363 replays, so sweeps re-arm
# entries that envelopes in flight hold) and star_scalein at 5 ms network
# delay (deferred acks flushed at each commit and at the end of the
# migration).  Both restore instances from a checkpoint.  Each is cut to
# the first 300 s of its 720 s run; the migration at 180 s has restored
# every instance by 250 s.
PINNED_DSM_PATHS = {
    ("diamond_scalein", "ackTimeout", 10.0): (
        "488adb42d953475c3403f7b24ee0a954f283455d647ace0238bcb3c4be125f90",
        156_117, 91_622),
    ("star_scalein", "networkDelayMs", 5): (
        "681e8dfdb64dfce8337c0c98bb881fb46996afd4513d0889cb35a3e7ffe9d95b",
        81_601, 46_047),
}


# conftest.behaviour_digest of each PINNED_WORK and PINNED_DSM_PATHS run: a
# change that moves their bytes by tie order only keeps it.
WORK_BEHAVIOUR = {
    ("grid_scalein", "DSM", 0):
        "9d3cec7f5b1ff919f0c2f647388537226a31651af571d8825fc76e6a62a4837b",
    ("linear50_stress", "CCR", 5):
        "af7a0ebdea4ff5032b9f4e196a762d8af0220cd193100f02aed0d72342fee920",
    ("linear50_stress", "DCR", 5):
        "210fa9fe1a38ed5562a1e25f257ed3f55d2b658c6699110d48b207e7cdfac831",
    ("diamond_scalein", "ackTimeout", 10.0):
        "80eddd9522e295eb27989428b2d5bbe79a21ceb3b8f33a1c0385112e1b33be8a",
    ("star_scalein", "networkDelayMs", 5):
        "4df684989fed3bf68640868d9530f6aeb9b764bd013841a90724d9f9d528e7e0",
}

# Actions and calendar pushes of three small bundled runs, one per
# strategy, beside their PINNED_RUNS bytes: the general-path oracle below
# holds its runs of them to all three.
PINNED_RUN_WORK = {
    ("linear_scalein", "DSM"): (90_384, 51_635),
    ("linear_scalein", "DCR"): (74_991, 40_431),
    ("diamond_scalein", "CCR"): (121_360, 63_764),
}


def observed_work(config, report_pinned=True, sole_edges=True, scheduled=False):
    """Timeline and report SHA-256 (None unless ``report_pinned``), actions
    and calendar pushes of one run of ``config``, and its behaviour digest.
    Without ``sole_edges`` every instance's ``sole_edge`` is cleared after
    construction, so each send takes the general path: ``_route_emission``,
    then ``deliver``, as the source's roots always do.  With ``scheduled``
    every instance starts with one arrival counted in flight that never
    lands, so every hop to it schedules its ``_arrive``: no hop is placed
    in its sender's action."""
    engine = SimulationEngine(config)
    if not sole_edges:
        for inst in engine.instances.values():
            inst.sole_edge = None
    if scheduled:
        for inst in engine.instances.values():
            inst.in_flight = 1
    timeline = engine.run()
    report = None
    if report_pinned:
        report = hashlib.sha256(compute_report(timeline, config).to_json().encode()).hexdigest()
    return ((hashlib.sha256(timeline.to_csv().encode()).hexdigest(), report, *work_of(engine)),
            behaviour_digest(timeline))


class TestPinnedTimelines:
    @pytest.mark.parametrize("scenario,strategy", sorted(PINNED_RUNS))
    def test_bundled_run_bytes_unchanged(self, suite_cache, scenario, strategy):
        run = suite_cache.get(scenario, strategy)
        assert behaviour_digest(run.timeline) == PINNED_BEHAVIOUR[scenario, strategy]
        digests = (hashlib.sha256(run.timeline.to_csv().encode()).hexdigest(),
                   hashlib.sha256(run.report.to_json().encode()).hexdigest())
        assert digests == PINNED_RUNS[scenario, strategy]

    @pytest.mark.parametrize("scenario,strategy,delay_ms", sorted(PINNED_WORK))
    def test_run_bytes_and_work_unchanged(self, scenario, strategy, delay_ms):
        config = with_overrides(load_bundled_scenario(scenario), strategy=strategy,
                                networkDelayMs=delay_ms)
        work, behaviour = observed_work(config)
        assert behaviour == WORK_BEHAVIOUR[scenario, strategy, delay_ms]
        assert work == PINNED_WORK[scenario, strategy, delay_ms]

    @pytest.mark.parametrize("scenario,field,value", sorted(PINNED_DSM_PATHS))
    def test_dsm_acker_path_bytes_and_work_unchanged(self, scenario, field, value):
        config = with_overrides(load_bundled_scenario(scenario), strategy="DSM",
                                runDuration=300, **{field: value})
        (csv, _report, actions, pushes), behaviour = observed_work(config, report_pinned=False)
        assert behaviour == WORK_BEHAVIOUR[scenario, field, value]
        assert (csv, actions, pushes) == PINNED_DSM_PATHS[scenario, field, value]

    @pytest.mark.parametrize("shape,strategy", sorted(PINNED_SHAPES))
    def test_shape_bytes_and_work_unchanged(self, shape, strategy):
        pinned = PINNED_SHAPES[shape, strategy]
        config = SHAPES[shape](strategy)
        work, behaviour = observed_work(config, report_pinned=pinned[1] is not None)
        assert behaviour == SHAPE_BEHAVIOUR[shape, strategy]
        assert work == pinned


class TestGeneralPathOracle:
    """The sole-edge send in ``_complete_service`` is a shortcut for the
    general path: with every ``sole_edge`` cleared, runs must still give the
    pinned bytes, actions and pushes."""

    @pytest.mark.parametrize("shape,strategy", sorted(PINNED_SHAPES))
    def test_shape_pins_hold(self, shape, strategy):
        pinned = PINNED_SHAPES[shape, strategy]
        work, behaviour = observed_work(SHAPES[shape](strategy),
                                        report_pinned=pinned[1] is not None, sole_edges=False)
        assert behaviour == SHAPE_BEHAVIOUR[shape, strategy]
        assert work == pinned

    @pytest.mark.parametrize("scenario,strategy", sorted(PINNED_RUN_WORK))
    def test_bundled_run_pins_hold(self, scenario, strategy):
        config = with_overrides(load_bundled_scenario(scenario), strategy=strategy)
        work, behaviour = observed_work(config, sole_edges=False)
        assert behaviour == PINNED_BEHAVIOUR[scenario, strategy]
        assert work == (*PINNED_RUNS[scenario, strategy], *PINNED_RUN_WORK[scenario, strategy])


class _CheckedCalendar(_kernels.EventCalendar):
    """An event calendar that calls ``check()`` before each pop: after every
    fired action, and once more when the calendar is empty.  ``arrivals``
    counts the ``_arrive`` actions it holds per target instance, kept on
    push and pop rather than by a scan per action."""

    __slots__ = ("check", "arrivals")

    def push(self, fire_ms, payload):
        fn, args = payload
        if fn.__name__ == "_arrive":
            self.arrivals[args[1]] += 1
        return super().push(fire_ms, payload)

    def pop(self):
        self.check()
        entry = super().pop()
        fn, args = entry[2]
        if fn.__name__ == "_arrive":
            self.arrivals[args[1]] -= 1
        return entry


class TestStateBetweenActions:
    """Four conditions the engine relies on without testing them: ``_pump``
    serves any queue, since only a RUNNING instance holds one;
    ``_sweep_tick`` replays every swept root from ``root_cache``, since the
    acker tracks exactly the cached roots; each instance's ``in_flight``
    equals the arrivals to it in the calendar, since ``deliver`` places a
    hop only when none is, which keeps each input FIFO; and no PREPARE or
    COMMIT wave is live at a kill or respawn, so ``drop_work`` leaves the
    waves' barrier counts alone."""

    @pytest.mark.parametrize("shape,strategy", sorted(PINNED_SHAPES))
    def test_hold_after_every_action(self, shape, strategy):
        engine = SimulationEngine(SHAPES[shape](strategy))
        instances = tuple(engine.instances.values())
        root_cache, entries = engine.source.root_cache, engine.acker.table._entries
        calendar = engine.clock._calendar = _CheckedCalendar()
        arrivals = calendar.arrivals = dict.fromkeys(instances, 0)
        killed_or_respawned = check_no_live_checkpoint_wave(engine)
        checks = 0

        def check():
            nonlocal checks
            checks += 1
            assert all(inst.status == RUNNING for inst in instances if inst.queue)
            assert root_cache.keys() == entries.keys()
            assert all(inst.in_flight == arrivals[inst] for inst in instances)

        calendar.check = check
        engine.run()
        actions, pushes = work_of(engine)
        assert (actions, pushes) == PINNED_SHAPES[shape, strategy][2:]
        assert checks == pushes + 1
        assert engine.kill_snapshots and killed_or_respawned


class TestAllScheduledOracle:
    """Placing a hop in its sender's action (into a ready instance's queue
    at zero delay, into an idle one's slot at any delay) is a shortcut for
    scheduling its arrival.  With every hop scheduled instead, only the
    order of same-millisecond ties may move: each run must keep its
    behaviour digest and its report.  The selectivity_1.5 shapes are left
    out: their coin flips follow the service order (see SHAPE_BEHAVIOUR)."""

    @pytest.mark.parametrize("shape,strategy", sorted(
        key for key in PINNED_SHAPES if key[0] != "selectivity_1.5"))
    def test_shape_behaviour_holds(self, shape, strategy):
        work, behaviour = observed_work(SHAPES[shape](strategy), scheduled=True)
        assert behaviour == SHAPE_BEHAVIOUR[shape, strategy]
        assert work[1] == PINNED_SHAPES[shape, strategy][1]

    @pytest.mark.parametrize("scenario,strategy", sorted(PINNED_RUN_WORK))
    def test_bundled_run_behaviour_holds(self, scenario, strategy):
        config = with_overrides(load_bundled_scenario(scenario), strategy=strategy)
        work, behaviour = observed_work(config, scheduled=True)
        assert behaviour == PINNED_BEHAVIOUR[scenario, strategy]
        assert work[1] == PINNED_RUNS[scenario, strategy][1]

    @pytest.mark.parametrize("scenario,strategy,delay_ms", [
        *((scenario, strategy, 5) for scenario in ("linear_scalein", "diamond_scalein")
          for strategy in ("DSM", "DCR", "CCR")),
        ("linear_scalein", "DSM", 20)])
    def test_delayed_run_matches_its_scheduled_twin(self, scenario, strategy, delay_ms):
        # 300 s of the 720 s run: the migration at 180 s has restored
        # every instance by 250 s under each strategy.
        config = with_overrides(load_bundled_scenario(scenario), strategy=strategy,
                                networkDelayMs=delay_ms, runDuration=300)
        (_csv, report, actions, pushes), behaviour = observed_work(config)
        (_, twin_report, twin_actions, twin_pushes), twin_behaviour = observed_work(
            config, scheduled=True)
        assert (behaviour, report) == (twin_behaviour, twin_report)
        assert pushes < twin_pushes
        if delay_ms == 20:
            # The kill at the trigger meets hops that took their target's
            # slot when sent: each fires one more action, the completion
            # the kill cancels, where its arrival would have been dropped.
            assert actions == twin_actions + 4
        else:
            assert actions == twin_actions

    def test_no_lookahead_when_a_respawn_can_beat_the_delay(self):
        # A rebalance of 10 ms under a 20 ms delay could respawn a killed
        # target before a hop lands: no hop is placed early.
        config = with_overrides(load_bundled_scenario("linear_scalein"), strategy="DSM",
                                networkDelayMs=20, rebalanceDuration=0.01)
        assert observed_work(config) == observed_work(config, scheduled=True)
