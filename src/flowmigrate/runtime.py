"""Deterministic discrete-event engine for a miniature streaming dataflow.

One virtual clock owns every runtime object; actions fire in (time, seq)
order, so two runs with the same scenario and seed produce bit-identical
timelines.  Task instances consume single-threaded FIFO input queues with
at most one event in service; the paced source supports pause/buffer/burst
and pending-cap throttling; kill and respawn model the rebalance.
"""

from __future__ import annotations

import copy
import math
import random
import struct
from collections import deque

from . import _kernels
from .errors import InvariantViolation
from .metrics import Timeline
from .model import (
    DUPLICATE,
    MAX_ACTIONS as _MAX_ACTIONS,
    ScenarioConfig,
    migrating_instances,
    to_ms,
    validate_scenario,
    with_overrides,
)
from .reliability import AckerService, CheckpointRecord, StateStore

DATA = "DATA"
PREPARE = "PREPARE"
COMMIT = "COMMIT"
ROLLBACK = "ROLLBACK"
INIT = "INIT"

RUNNING = "RUNNING"
KILLED = "KILLED"
RESPAWNING = "RESPAWNING"

_RUNAWAY = "action budget exceeded; runaway schedule"
_TRANSPORT_RETRY_MS = 500  # reconnect cadence toward a starting worker
# Cap on unacked roots when data acking is on: the source defers paced
# emissions beyond it, as a real spout's pending limit would.
_MAX_PENDING_ROOTS = 240

_PENDING_STRUCT = struct.Struct("<QQqqBBB")

# Strategies whose coordinators do nothing before the migration trigger and
# whose engines ack no data: their runs of one scenario fire the same
# actions up to the trigger, so one prefix serves them all (see
# SimulationEngine.fork_at_trigger).
IDLE_BEFORE_TRIGGER = frozenset({"DCR", "CCR"})

# Engine stages: built, firing its prefix, held at the trigger, running.
_NEW, _PREFIX, _HELD, _RUN = range(4)


class _TriggerHeld(Exception):
    """Ends a prefix run: the migration trigger was popped, not fired."""


class EventEnvelope:
    """A data or control event; a control event carries its wave's
    checkpoint id in ``rootSeqNo`` and its wave's root in ``rootId``.

    A DATA envelope has one holder at a time, so the engine forwards it
    rather than copying it: a serviced event becomes its own last child,
    with a fresh ``eventId`` and ``emitTs`` (see
    SimulationEngine._complete_service), and a routed event that fans out
    becomes its own last copy, with a fresh ``eventId``.  ``emitTs`` is the
    send time of the current hop: every DATA send stamps it (roots,
    replays, router copies and forwarded children; an event reaches the
    router stamped already), so a DATA event lands at ``emitTs +
    networkDelayMs`` and starts service no earlier (see
    SimulationEngine._pump); a transport retry keeps it.

    ``tree`` is the root's acker entry (see ``_kernels.AckerTable``) when
    the engine acks data (DSM), else None.  ``_emit_root`` sets it from
    ``AckerService.register_root``; every copy and child, and a replay of
    the root, carries the same list, so the engine anchors and acks by
    folding into it, with no lookup by ``rootId``.  The acker is DSM's one
    store of pending roots, and a replay is built from the entry, so no
    envelope outlives its last holder.  ``tree`` is not serialized: no DSM
    checkpoint holds envelopes, and a control event's is None.
    """

    __slots__ = ("eventId", "rootId", "rootSeqNo", "kind", "epoch", "replayed", "emitTs",
                 "tree")

    def __init__(self, eventId: int, rootId: int, rootSeqNo: int, kind: str,
                 epoch: int, replayed: bool, emitTs: int, tree: list | None = None) -> None:
        self.eventId = eventId
        self.rootId = rootId
        self.rootSeqNo = rootSeqNo
        self.kind = kind
        self.epoch = epoch
        self.replayed = replayed
        self.emitTs = emitTs
        self.tree = tree

    def __repr__(self) -> str:  # debugging aid only
        return (f"<{self.kind} id={self.eventId:#x} root={self.rootId:#x} "
                f"seq={self.rootSeqNo} e{self.epoch}{' R' if self.replayed else ''}>")


def serialize_pending(events: list[EventEnvelope]) -> bytes:
    parts = [struct.pack("<I", len(events))]
    for e in events:
        parts.append(_PENDING_STRUCT.pack(
            e.eventId, e.rootId, e.rootSeqNo, e.emitTs,
            1 if e.replayed else 0, e.epoch, 0,
        ))
    return b"".join(parts)


def deserialize_pending(blob: bytes) -> list[EventEnvelope]:
    (count,) = struct.unpack_from("<I", blob, 0)
    events = []
    offset = 4
    for _ in range(count):
        eid, root, seq, emit_ts, replayed, epoch, _pad = _PENDING_STRUCT.unpack_from(blob, offset)
        offset += _PENDING_STRUCT.size
        events.append(EventEnvelope(eid, root, seq, DATA, epoch, bool(replayed), emit_ts))
    return events


class DemoUserTask:
    """Reference stateful task: an event count and last root seq, kept by
    SimulationEngine._complete_service."""

    __slots__ = ("processedCount", "lastSeqNo")

    def __init__(self, processed: int = 0, last_seq: int = -1) -> None:
        self.processedCount = processed
        self.lastSeqNo = last_seq

    def snapshot(self) -> bytes:
        return struct.pack("<qq", self.processedCount, self.lastSeqNo)

    @classmethod
    def restore(cls, blob: bytes) -> "DemoUserTask":
        processed, last_seq = struct.unpack("<qq", blob)
        return cls(processed, last_seq)


class TaskInstanceRuntime:
    """One parallel executor of a task: FIFO queue, single service slot; a
    sole edge to one target takes every child, with no count.  ``plan`` and
    ``downstream`` are its task's routing plan and wave path (see
    SimulationEngine._compile_routes)."""

    __slots__ = (
        "instanceId", "task", "is_sink", "stateful", "service_ms", "sel_count",
        "sel_frac", "plan", "downstream", "sole_edge", "sole_sent", "status",
        "initialized", "captureFlag", "queue", "pendingList", "preInit", "in_service",
        "generation", "state", "rr_edges", "rr_targets", "deferred_acks", "in_flight",
    )

    def __init__(self, inst_id: str, task, is_sink: bool) -> None:
        self.instanceId = inst_id
        self.task = task
        self.is_sink = is_sink
        self.stateful = task.stateful
        self.service_ms = task.serviceTimeMs
        # Selectivity split once: whole children per event, and the
        # probability of one more.
        self.sel_count = int(task.selectivity)
        self.sel_frac = task.selectivity - self.sel_count
        # The target instances of the one edge every child takes, when
        # routing has no edge to choose (set by
        # SimulationEngine._compile_routes), and the sends to several.
        self.sole_edge: tuple[TaskInstanceRuntime, ...] | None = None
        self.sole_sent = 0
        self.status = RUNNING
        self.initialized = True
        self.captureFlag = False
        self.queue: deque[EventEnvelope] = deque()
        self.pendingList: list[EventEnvelope] = []
        self.preInit: list[EventEnvelope] = []
        self.in_service: EventEnvelope | None = None
        self.generation = 0
        self.state = DemoUserTask()
        self.rr_edges = 0
        self.rr_targets: dict[int, int] = {}
        self.deferred_acks: list[tuple[list, int, int]] = []  # (tree, root, event)
        # Arrivals to this instance in the calendar (see
        # SimulationEngine.deliver); a kill or respawn keeps the count,
        # because those arrivals still fire.
        self.in_flight = 0

    def reset_routing(self) -> None:
        self.rr_edges = 0
        self.rr_targets.clear()
        self.sole_sent = 0

    def drop_work(self) -> None:
        """Drop every event held, on kill and on respawn.  The new
        generation cancels each completion already scheduled here; no
        PREPARE or COMMIT wave, whose barriers align, is live at either."""
        self.generation += 1
        self.queue.clear()
        self.preInit.clear()
        self.pendingList.clear()
        self.deferred_acks.clear()
        self.in_service = None


def emission_time(tick: int, rate: float) -> int:
    """Virtual ms of the source's ``tick``-th pacing tick at ``rate`` events/s."""
    return int(math.floor(tick * 1000.0 / rate + 1e-9))


class SourceRuntime:
    """Paced root-event emitter with pause/backlog/burst semantics;
    ``plan``, ``downstream``, ``rr_edges`` and ``rr_targets`` are its
    routing plan, wave path and router counters (see
    SimulationEngine._route_emission)."""

    __slots__ = ("paused", "backlog", "next_seq", "next_tick",
                 "plan", "downstream", "rr_edges", "rr_targets")

    def __init__(self) -> None:
        self.paused = False
        self.backlog = 0
        self.next_seq = 0   # root sequence numbers, advanced per emission
        self.next_tick = 0  # pacing ticks, advanced per period
        self.rr_edges = 0
        self.rr_targets: dict[int, int] = {}

    def reset_routing(self) -> None:
        self.rr_edges = 0
        self.rr_targets.clear()


class SimClock:
    """Virtual clock over the kernel calendar; ms resolution.

    Every calendar payload is an action ``(fn, args)``, ``args`` a tuple;
    firing it calls ``fn(*args)``.
    """

    __slots__ = ("now", "_calendar")

    def __init__(self, calendar) -> None:
        self.now = 0
        self._calendar = calendar

    def schedule_at(self, fire_ms: int, fn, *args) -> None:
        if fire_ms < self.now:
            raise InvariantViolation(f"scheduling into the past: {fire_ms} < {self.now}")
        self._calendar.push(fire_ms, (fn, args))

    def schedule_in(self, delay_ms: int, fn, *args) -> None:
        self.schedule_at(self.now + delay_ms, fn, *args)


class SimulationEngine:
    """Owns all runtime state for one scenario run."""

    def __init__(self, config: ScenarioConfig, migrate: bool = True) -> None:
        # A hand-built config skips the loader.  The hot paths push
        # ``now + delay`` without the clock's check, so every delay they
        # use is checked here, once, by the loader's own rules.
        validate_scenario(config)
        self.migrate = migrate
        self.config = config
        self.dag = config.dag
        self.clock = SimClock(_kernels.EventCalendar())
        self.rng = random.Random(config.randomSeed)
        self._bind()
        self.timeline = Timeline()
        self.run_end_ms = to_ms(config.runDuration)
        self.ack_timeout_ms = to_ms(config.ackTimeout)
        self.net_delay_ms = config.networkDelayMs
        # deliver places a delayed hop early only if no respawn can beat it.
        self._lookahead = to_ms(config.rebalanceDuration) >= self.net_delay_ms
        self.acking_data = config.strategy == "DSM"  # only DSM acks DATA events
        self.acker = AckerService()
        self.store = StateStore()

        self.epoch = 0
        self.source = SourceRuntime()
        self.source_task_id = self.dag.sourceTasks[0]
        self.sink_task_ids = set(self.dag.sinkTasks)

        self.instances: dict[str, TaskInstanceRuntime] = {}
        self.instances_of: dict[str, list[str]] = {}
        for tid in self.dag.topological_order():
            if tid == self.source_task_id:
                continue
            task = self.dag.task(tid)
            self.instances_of[tid] = ids = task.instance_ids()
            for iid in ids:
                self.instances[iid] = TaskInstanceRuntime(iid, task, tid in self.sink_task_ids)

        self.migrating = sorted(migrating_instances(config.scheduleBefore, config.scheduleAfter))
        self._compile_routes()
        self._actions = 0
        self._stage = _NEW
        self._emit_rate = config.sourceRate
        # Observability for state-correctness checks: processed counts at
        # kill time and the counts instances come back with at restore.
        self.kill_snapshots: dict[str, int] = {}
        self.restore_snapshots: dict[str, int] = {}

        from .protocol import make_coordinator  # deferred: protocol imports runtime

        self.coordinator = make_coordinator(self)

    def _compile_routes(self) -> None:
        """Per-task routing plans, compiled once from the DAG and set on
        the source and on each instance of the task.

        ``plan`` holds the DUPLICATE and the SHUFFLE out-edges, each edge as
        (edge index, target instances), in declaration order;
        ``downstream`` holds every out-edge target instance in edge order
        (the path of a sequential wave).  Holding the instance objects is
        safe: respawn resets them in place.

        A task with no DUPLICATE edge and one SHUFFLE edge has no edge to
        choose: its instances get that edge's targets as ``sole_edge``, and
        ``_complete_service`` hands children to them in turn, in the order
        ``_route_emission`` would; a single target takes every child, with
        no count.  The source has none: its roots and replays, under a tenth
        of the hops, take ``_route_emission``.
        """
        targets_of = {tid: tuple(self.instances[iid] for iid in ids)
                      for tid, ids in self.instances_of.items()}
        dup: dict[str, list] = {}
        shuffle: dict[str, list] = {}
        downstream: dict[str, list] = {}
        upstream: dict[str, int] = {}
        fed_by_source: set[str] = set()
        for idx, e in enumerate(self.dag.edges):
            targets = targets_of[e.toTask]
            lane = dup if e.grouping == DUPLICATE else shuffle
            lane.setdefault(e.fromTask, []).append((idx, targets))
            downstream.setdefault(e.fromTask, []).extend(targets)
            if e.fromTask == self.source_task_id:
                fed_by_source.add(e.toTask)
            else:
                upstream[e.toTask] = upstream.get(e.toTask, 0) + len(targets_of[e.fromTask])
        plans = {tid: ((tuple(dup.get(tid, ())), tuple(shuffle.get(tid, ()))),
                       tuple(downstream.get(tid, ())))
                 for tid in (self.source_task_id, *self.instances_of)}
        self.source.plan, self.source.downstream = plans[self.source_task_id]
        for inst in self.instances.values():
            inst.plan, inst.downstream = plans[inst.task.taskId]
            duplicates, lanes = inst.plan
            if not duplicates and len(lanes) == 1:
                inst.sole_edge = lanes[0][1]
        # Barrier copies a task instance expects per sequential wave: one
        # per upstream task instance, plus one injected by the wave
        # coordinator when the task is fed directly by the source.
        self._upstream_counts = {}
        for tid in self.instances_of:
            count = upstream.get(tid, 0)
            self._upstream_counts[tid] = count + 1 if tid in fed_by_source or count == 0 else count

    # -- time helpers --------------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    def new_id(self) -> int:
        return self._getrandbits(64) or 1

    def record_phase(self, name: str) -> None:
        self.timeline.record_phase(self.now, name)

    # -- main loop -----------------------------------------------------------

    def _bind(self) -> None:
        """Cache the hot paths' bound methods.

        Bound again by run(), after any wrapper of EventCalendar.push or
        override of the two hot actions is installed; bound at construction
        for callers that drive the calendar by hand.  An ``_arrive``
        override sees scheduled arrivals only (``deliver`` places a hop to a
        ready instance, idle or busy, at send time); a ``_complete_service``
        override sees every completion.  A deep copy keeps a builtin bound
        method as it is, so a twin's ``_getrandbits`` would still draw from
        the original's generator: fork_at_trigger binds the twin's own.
        """
        self._getrandbits = self.rng.getrandbits
        self._push = self.clock._calendar.push
        self._arrive_fn = self._arrive
        self._complete_fn = self._complete_service

    def run(self) -> Timeline:
        """Run to the end of the calendar; an engine held at its migration
        trigger (see fork_at_trigger) fires the trigger first."""
        self._bind()
        if self._stage == _HELD:
            self._stage = _RUN
            self._trigger_migration()
            self._actions += 1
        else:
            self._stage = _RUN
            self._start()
        self._fire()
        return self.timeline

    def fork_at_trigger(self, strategy: str) -> "SimulationEngine":
        """Run to the migration trigger, hold it there, and return a twin
        that continues the same run under ``strategy``.

        Both engines then finish with run(): each fires the held trigger
        and its own suffix, giving the bytes, action count and calendar
        pushes of a run from scratch.  Only strategies in
        IDLE_BEFORE_TRIGGER fork, and only a migrated run that has not
        passed its trigger; an engine already held forks again.
        """
        for side in (self.config.strategy, strategy):
            if side not in IDLE_BEFORE_TRIGGER:
                raise InvariantViolation(
                    f"cannot fork a {side} run: its coordinator acts before the trigger")
        if not self.migrate:
            raise InvariantViolation("cannot fork a run without a migration trigger")
        if self._stage == _NEW:
            self._stage = _PREFIX
            self._bind()
            self._start()
            try:
                self._fire()
            except _TriggerHeld:
                self._stage = _HELD
        if self._stage != _HELD:
            raise InvariantViolation("cannot fork a run already past its migration trigger")
        # The twin shares the immutable scenario; the idle coordinator is
        # not copied but made anew for the twin's strategy.
        config = with_overrides(self.config, strategy=strategy)
        memo = {id(self.config): config, id(self.dag): self.dag, id(self.coordinator): None}
        memo.update((id(task), task) for task in self.dag.tasks)
        twin = copy.deepcopy(self, memo)
        twin._bind()
        from .protocol import make_coordinator  # deferred: protocol imports runtime

        twin.coordinator = make_coordinator(twin)
        return twin

    def _start(self) -> None:
        self._schedule_emission(self.source.next_tick)
        if self.acking_data:
            self._schedule_sweep(self.ack_timeout_ms // 2)
        if self.migrate:
            self.clock.schedule_at(to_ms(self.config.migrationTriggerAt),
                                   self._trigger_migration)
        self.coordinator.on_run_start()

    def _fire(self) -> None:
        """Fire actions in (time, seq) order until the calendar is empty.

        ``_actions`` counts each fired action, and each hop that
        ``deliver`` places inside one, against the budget.
        """
        clock = self.clock
        pop = clock._calendar.pop
        max_actions = _MAX_ACTIONS
        while True:
            try:
                fire_ms, _seq, (fn, args) = pop()
            except IndexError:
                break  # the calendar is empty
            clock.now = fire_ms
            fn(*args)
            self._actions += 1
            if self._actions > max_actions:
                raise InvariantViolation(_RUNAWAY)

    def _trigger_migration(self) -> None:
        if self._stage == _PREFIX:
            raise _TriggerHeld  # popped, not fired: the held trigger
        self.epoch = 1
        self.coordinator.on_migration_trigger()

    # -- source --------------------------------------------------------------

    def _schedule_emission(self, tick: int) -> None:
        t = emission_time(tick, self._emit_rate)
        if t < self.run_end_ms:
            self.clock.schedule_at(t, self._source_tick)

    def _source_tick(self) -> None:
        src = self.source
        if src.paused or (self.acking_data and len(self.acker) >= _MAX_PENDING_ROOTS):
            # Paused, or the pending cap is reached: defer this emission.
            src.backlog += 1
        else:
            self._emit_root()
        src.next_tick += 1
        self._schedule_emission(src.next_tick)

    def _emit_root(self) -> None:
        src = self.source
        now = self.clock.now
        root_id = self.new_id()
        env = EventEnvelope(root_id, root_id, src.next_seq, DATA, self.epoch, False, now)
        src.next_seq += 1
        if self.acking_data:
            env.tree = self.acker.register_root(root_id, now, env.rootSeqNo, env.epoch)
        self.timeline.record_emit(now, root_id, env.rootSeqNo, env.epoch)
        self._route_emission(self.source, env)

    def pause_source(self) -> None:
        self.source.paused = True

    def unpause_source(self) -> None:
        """Resume emission, draining the whole backlog as an immediate burst."""
        src = self.source
        src.paused = False
        burst = src.backlog
        src.backlog = 0
        for _ in range(burst):
            self._emit_root()

    def _on_root_completed(self, root_id: int) -> None:
        if self.acker.discard(root_id):
            src = self.source
            # A pending slot freed: release one cap-deferred emission.
            if src.backlog and not src.paused:
                src.backlog -= 1
                self._emit_root()

    # -- ack sweeps ----------------------------------------------------------

    def _schedule_sweep(self, at_ms: int) -> None:
        if at_ms < self.run_end_ms:
            self.clock.schedule_at(at_ms, self._sweep_tick)

    def _sweep_tick(self) -> None:
        for root_id, tree in self.acker.sweep_timeouts(self.now, self.ack_timeout_ms):
            self._replay_root(root_id, tree)
        self._schedule_sweep(self.now + self.ack_timeout_ms)

    def _replay_root(self, root_id: int, tree: list) -> None:
        # The sweep re-armed the entry in place; it keeps the root's seq and epoch.
        env = EventEnvelope(root_id, root_id, tree[3], DATA, tree[4], True, self.now, tree)
        self.timeline.record_replay(self.now, env.rootId, env.rootSeqNo, env.epoch)
        self._route_emission(self.source, env)

    # -- routing and delivery -------------------------------------------------

    def _route_emission(self, sender, env: EventEnvelope) -> None:
        """Send one produced event along the sender's ``plan``.

        DUPLICATE edges each carry a copy; SHUFFLE edges share the stream
        round-robin.  Each chosen edge picks its target instances in turn.
        A single target receives the event itself.  With several targets
        each copy gets a fresh anchored id and the never-delivered original
        is retired, keeping the XOR tree balanced; the retired envelope
        itself travels on as the last copy, its own id read first for the
        retiring ack.  That is safe because the caller lets go of ``env``:
        a serviced parent is done with, and DSM keeps no envelope of a
        pending root (a replay is built from its acker entry).  The caller
        has stamped ``env.emitTs`` with now, the send time every copy
        carries.  Anchors and acks fold into ``env.tree`` unguarded: a
        completed root has left the acker, so a late fold (normal under
        at-least-once delivery) at most reaches a no-op
        ``_on_root_completed``.
        """
        chosen, shuffle = sender.plan
        if shuffle:
            idx = sender.rr_edges % len(shuffle)
            sender.rr_edges += 1
            chosen += (shuffle[idx],)
        counters = sender.rr_targets
        last = len(chosen) - 1
        retired_id = env.eventId
        acking, tree = self.acking_data, env.tree
        for i, (edge_idx, targets) in enumerate(chosen):
            counter = counters.get(edge_idx, 0)
            counters[edge_idx] = counter + 1
            target = targets[counter % len(targets)]
            if last == 0:
                self.deliver(env, target)
                return
            if i < last:
                copy = EventEnvelope(self._getrandbits(64) or 1, env.rootId, env.rootSeqNo,
                                     env.kind, env.epoch, env.replayed, self.clock.now, tree)
            else:
                copy = env
                env.eventId = self._getrandbits(64) or 1
            if acking:
                tree[0] ^= copy.eventId
            self.deliver(copy, target)
        if acking:  # retire the original
            tree[0] ^= retired_id
            if not tree[0]:
                self._on_root_completed(env.rootId)

    def deliver(self, env: EventEnvelope, target: TaskInstanceRuntime) -> None:
        """Send ``env`` to ``target``: it lands ``net_delay_ms`` later.

        A DATA hop to a target that takes data now (RUNNING, initialized,
        not capturing) with no arrival in flight to it is placed here, in
        the sender's action, as one action, at any delay.  At an idle
        target with an empty queue it takes the service slot now, pushing
        its completion at the delay plus the service time; at a busy one
        it joins the queue tail, and starts when it lands or when the
        service before it ends, whichever is later (see ``_pump``).  With
        one link delay the target serves its data in send order: anything
        that could reach it first is in its queue or an arrival in flight
        now.  A kill before the hop lands drops it from the queue or
        cancels its completion, as the arrival would have found the target
        KILLED; if ``rebalanceDuration`` is shorter than the delay, no hop
        is placed early.  Every other hop pushes its arrival
        (``_arrive``); the target's ``in_flight`` count of them keeps its
        input FIFO, so data sent after a barrier arrives after it.
        A ``deliver`` override sees every hop but a serviced event's
        sole-edge child, which ``_complete_service`` sends by this rule.
        """
        delay = self.net_delay_ms
        if (target.in_flight or env.kind != DATA or target.status != RUNNING
                or not target.initialized or target.captureFlag
                or delay and not self._lookahead):
            target.in_flight += 1
            self._push(self.clock.now + delay, (self._arrive_fn, (env, target)))
            return
        self._actions += 1
        if self._actions > _MAX_ACTIONS:
            raise InvariantViolation(_RUNAWAY)
        if target.in_service is not None:
            target.queue.append(env)
        elif target.queue:
            target.queue.append(env)
            self._pump(target)
        else:
            target.in_service = env
            self._push(self.clock.now + delay + target.service_ms,
                       (self._complete_fn, (target, env, target.generation)))

    def _arrive(self, env: EventEnvelope, target: TaskInstanceRuntime) -> None:
        """Hand a scheduled arrival to its target instance: a control copy,
        a transport retry, or a DATA hop whose target was not ready or had
        an arrival in flight when ``deliver``'s rule sent it (or any DATA
        hop, when a respawn could beat the delay).  It fires at ``emitTs +
        networkDelayMs`` or later, for a retry.

        A RUNNING instance queues the event; an idle one pumps it at once,
        and ``_pump`` starts a DATA event now, since it has landed.  A busy
        one leaves it to the end of the service.  A KILLED instance drops
        the event (a lost DATA event is recovered via ack timeout), and a
        RESPAWNING one has its DATA retried by the transport, which keeps it
        in flight.  An arrival that finds a ready instance idle is rare
        (tens per benchmark pass), so it has no start of its own.
        """
        target.in_flight -= 1
        if target.status == RUNNING:
            target.queue.append(env)
            if target.in_service is None:
                self._pump(target)
        elif target.status == RESPAWNING and env.kind == DATA:
            # The worker process is starting: the transport holds data and
            # reconnects, while control copies are dropped (wave resends
            # own their recovery).
            target.in_flight += 1
            self._push(self.clock.now + _TRANSPORT_RETRY_MS, (self._arrive_fn, (env, target)))

    # -- instance processing ---------------------------------------------------

    def _pump(self, inst: TaskInstanceRuntime) -> None:
        """Take events off the queue head while ``inst`` is idle.

        A control event goes to the coordinator; DATA goes to
        ``pendingList`` while capturing, to ``preInit`` until initialized,
        and otherwise into service, which starts when the event lands,
        ``emitTs + networkDelayMs``, if that is later than now: ``deliver``
        queues a hop at its send.  An event restored from ``preInit``,
        ``pendingList`` or a checkpoint landed long ago and starts now.
        At zero delay the landing is never later, and is not computed.  A
        finished service starts a DATA head at a ready instance itself
        (see ``_complete_service``) and comes here only for any other
        head.  A queued instance is RUNNING (see ``_complete_service``).
        """
        while inst.queue and inst.in_service is None:
            env = inst.queue.popleft()
            if env.kind != DATA:
                self.coordinator.on_control_event(inst, env)
                continue
            if inst.captureFlag:
                inst.pendingList.append(env)
                continue
            if not inst.initialized:
                inst.preInit.append(env)
                continue
            inst.in_service = env
            start, delay = self.clock.now, self.net_delay_ms
            if delay and env.emitTs + delay > start:
                start = env.emitTs + delay  # it has not landed yet
            self._push(start + inst.service_ms,
                       (self._complete_fn, (inst, env, inst.generation)))

    def _complete_service(self, inst: TaskInstanceRuntime, env: EventEnvelope,
                          gen: int) -> None:
        """Finish the service of DATA event ``env``: emit its children (a
        sole edge's inline, by ``deliver``'s rule at any delay, to
        ``sole[0]`` if it has one target), ack it, and start the next
        queued event.  Under DSM each anchor and the ack fold into the
        root's entry, ``env.tree``, inline.

        A DATA head at an instance still idle, initialized and not
        capturing goes into service here, in the same action, exactly as
        the first pass of ``_pump`` would put it, starting when it lands if
        that is later; any other head goes through ``_pump``.  A queued
        instance is RUNNING: only a RUNNING instance queues, and kill and
        respawn empty the queue.  The inline sole-edge send skips
        ``deliver``'s queue test: a sole-edge target is another instance,
        and when an action starts no ready, idle instance holds a queue.

        The last child is ``env`` itself, forwarded with a fresh id and
        ``emitTs``; the children before it are new envelopes, and the ids
        are drawn in child order either way.  Nothing else reads a serviced
        envelope: the queue, ``pendingList``, ``preInit`` and the service
        slot have let go of it, and the popped calendar entry, which its
        millisecond's list keeps until the next millisecond opens, is never
        read again.  A CCR checkpoint keeps bytes, not envelopes, and DSM's
        pending roots, the acker's entries, hold none.
        Under DSM the parent's ``tree`` and own ``eventId`` are read first.
        """
        if gen != inst.generation:
            return  # instance was killed while this event was in service
        if inst.in_service is not env:
            raise InvariantViolation(f"{inst.instanceId}: service slot corrupted")
        inst.in_service = None
        state = inst.state
        state.processedCount += 1
        state.lastSeqNo = env.rootSeqNo

        acking = self.acking_data
        if acking:  # the parent's entry and own id, read before it is forwarded
            tree = env.tree
            event_id = env.eventId
        now = self.clock.now
        delay = self.net_delay_ms
        push = self._push
        if inst.is_sink:
            self.timeline.record_sink_exit(now, env.eventId, env.rootSeqNo,
                                           env.epoch, env.replayed)
        else:
            # Emit the children: whole ones per event, and one more with
            # the fractional selectivity's probability.
            count = inst.sel_count
            if inst.sel_frac > 0 and self.rng.random() < inst.sel_frac:
                count += 1
            sole = inst.sole_edge
            while count:
                count -= 1
                if count:  # more children follow: a fresh envelope
                    child = EventEnvelope(self._getrandbits(64) or 1, env.rootId, env.rootSeqNo,
                                          DATA, env.epoch, env.replayed, now, env.tree)
                else:  # the last child: env itself, forwarded
                    child = env
                    env.eventId = self._getrandbits(64) or 1
                    env.emitTs = now
                if acking:
                    tree[0] ^= child.eventId
                if sole is None:
                    self._route_emission(inst, child)
                    continue
                # deliver's test and placement, inline for the sole edge.
                target = sole[0]
                if len(sole) > 1:  # several targets take turns
                    sent = inst.sole_sent
                    inst.sole_sent = sent + 1
                    target = sole[sent % len(sole)]
                if (target.in_flight or target.status != RUNNING or not target.initialized
                        or target.captureFlag or delay and not self._lookahead):
                    target.in_flight += 1
                    push(now + delay, (self._arrive_fn, (child, target)))
                    continue
                self._actions += 1
                if self._actions > _MAX_ACTIONS:
                    raise InvariantViolation(_RUNAWAY)
                if target.in_service is not None:
                    target.queue.append(child)
                else:
                    target.in_service = child
                    push(now + delay + target.service_ms,
                         (self._complete_fn, (target, child, target.generation)))

        if acking:
            if inst.stateful and self.coordinator.defers_stateful_acks:
                # Held until this instance's next checkpoint commit, so a
                # post-restore replay re-covers the rolled-back window.
                inst.deferred_acks.append((tree, env.rootId, event_id))
            else:
                tree[0] ^= event_id
                if not tree[0]:
                    self._on_root_completed(env.rootId)
        queue = inst.queue
        if queue:
            if (queue[0].kind == DATA and inst.in_service is None
                    and inst.initialized and not inst.captureFlag):
                env = queue.popleft()
                inst.in_service = env
                start = now
                if delay and env.emitTs + delay > now:
                    start = env.emitTs + delay  # it has not landed yet
                push(start + inst.service_ms, (self._complete_fn, (inst, env, inst.generation)))
            else:
                self._pump(inst)

    def flush_deferred_acks(self, inst: TaskInstanceRuntime) -> None:
        """Fold the acks ``inst`` held into their roots' entries."""
        acks, inst.deferred_acks = inst.deferred_acks, []
        for tree, root_id, event_id in acks:
            tree[0] ^= event_id
            if not tree[0]:
                self._on_root_completed(root_id)

    # -- kill / respawn ---------------------------------------------------------

    def kill_instance(self, inst_id: str) -> None:
        inst = self.instances[inst_id]
        if inst.status == KILLED:
            raise InvariantViolation(f"{inst_id} is already killed")
        self.kill_snapshots[inst_id] = inst.state.processedCount
        inst.status = KILLED
        inst.drop_work()

    def mark_respawning(self, inst_id: str) -> None:
        self.instances[inst_id].status = RESPAWNING

    def respawn_instance(self, inst_id: str) -> None:
        inst = self.instances[inst_id]
        if inst.status not in (KILLED, RESPAWNING):
            raise InvariantViolation(f"{inst_id} is not awaiting respawn")
        # Running but uninitialized: data waits in preInit until INIT restores it.
        inst.status = RUNNING
        inst.initialized = False
        inst.captureFlag = False
        inst.drop_work()
        inst.state = DemoUserTask()
        inst.reset_routing()

    def rewire_channels(self) -> None:
        """Reset routing counters after a rebalance rewires the dataflow."""
        self.source.reset_routing()
        for inst in self.instances.values():
            inst.reset_routing()

    def initialize_instance(self, inst: TaskInstanceRuntime,
                            record: CheckpointRecord | None) -> None:
        """Restore from ``record`` and resume processing (INIT handling).

        The record's user state replaces the task's, and its captured events
        are served first; with no record the task keeps its state.  Which
        checkpoint an instance last restored is the coordinator's to keep.
        """
        if inst.pendingList:
            raise InvariantViolation(
                f"{inst.instanceId}: locally captured events present at restore"
            )
        resumed = []
        if record is not None:
            if record.userStateBlob:
                inst.state = DemoUserTask.restore(record.userStateBlob)
            if record.pendingEventsBlob is not None:
                resumed = deserialize_pending(record.pendingEventsBlob)
        if inst.instanceId not in self.restore_snapshots:
            self.restore_snapshots[inst.instanceId] = inst.state.processedCount
        inst.captureFlag = False
        inst.initialized = True
        if resumed or inst.preInit:
            inst.queue = deque(resumed + inst.preInit + list(inst.queue))
            inst.preInit = []
        self._pump(inst)

    # -- views -------------------------------------------------------------------

    def entry_instances(self) -> tuple[TaskInstanceRuntime, ...]:
        """Instances of the tasks fed directly by the source."""
        return self.source.downstream

    def upstream_instance_count(self, task_id: str) -> int:
        """Barrier copies a task instance expects per sequential wave."""
        return self._upstream_counts[task_id]


def run_scenario(config: ScenarioConfig, migrate: bool = True) -> tuple[Timeline, SimulationEngine]:
    """Run one scenario to completion; returns the timeline and the engine."""
    engine = SimulationEngine(config, migrate=migrate)
    return engine.run(), engine
