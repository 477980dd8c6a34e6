"""Checkpoint-wave coordination and the three migration strategies.

A wave sweeps a control event (PREPARE, COMMIT, ROLLBACK or INIT) over
every live task instance, either hop-by-hop along the dataflow edges
(SEQUENTIAL) or straight from the coordinator to each input queue
(BROADCAST).  Join instances align sequential barriers: they act only on
the last copy, after every upstream channel has delivered its barrier.

Strategies sequence waves differently:

* DSM rebalances immediately, relies on per-event acking plus periodic
  checkpoints to recover, and re-issues timed-out INIT waves whole.
* DCR pauses the source, drains via a sequential PREPARE (the barrier is
  the last event behind all in-flight data), commits, rebalances, then
  restores with an aggressively resent sequential INIT.
* CCR pauses the source, broadcasts PREPARE so each instance freezes its
  queue into a pending list, commits sequentially (persisting user state
  plus the captured events), rebalances, then broadcasts INIT so each
  instance restores and locally resumes its pending events.
"""

from __future__ import annotations

from .errors import InvariantViolation
from .model import to_ms
from .reliability import CheckpointRecord
from .runtime import (
    COMMIT,
    DATA,
    INIT,
    KILLED,
    PREPARE,
    ROLLBACK,
    EventEnvelope,
    SimulationEngine,
    TaskInstanceRuntime,
    deserialize_pending,
    serialize_pending,
)

SEQUENTIAL = "SEQUENTIAL"
BROADCAST = "BROADCAST"

CHECKPOINT_INTERVAL_MS = 30_000  # DSM's periodic checkpoint cadence
INIT_RESEND_MS = 1_000  # DCR/CCR resend cadence of an unacked INIT wave

# Phase markers, in the order they may occur within one migration.
REQUEST = "REQUEST"
DRAIN_DONE = "DRAIN_DONE"
CAPTURE_DONE = "CAPTURE_DONE"
REBALANCE_START = "REBALANCE_START"
REBALANCE_DONE = "REBALANCE_DONE"
FIRST_INIT_ACKED = "FIRST_INIT_ACKED"
ALL_INIT_ACKED = "ALL_INIT_ACKED"
SOURCE_UNPAUSED = "SOURCE_UNPAUSED"

MARKER_ORDER = (
    REQUEST, DRAIN_DONE, CAPTURE_DONE, REBALANCE_START, REBALANCE_DONE,
    FIRST_INIT_ACKED, ALL_INIT_ACKED, SOURCE_UNPAUSED,
)


class WaveState:
    """A wave, keyed by its root in ``CheckpointCoordinator.waves``.  ``tree``
    XORs the ids of its copies not yet acked; ``barriers`` counts, by
    instance id, the sequential copies seen before the last one aligns."""

    __slots__ = ("checkpointId", "kind", "routing", "rootId", "expected", "ackedBy",
                 "complete", "superseded", "drained", "tree", "barriers")

    def __init__(self, checkpointId: int, kind: str, routing: str, rootId: int,
                 expected: frozenset, drained: bool = False) -> None:
        self.checkpointId = checkpointId
        self.kind = kind
        self.routing = routing
        self.rootId = rootId
        self.expected = expected
        self.ackedBy: set[str] = set()
        self.complete = False
        self.superseded = False
        self.drained = drained  # PREPARE must find no data behind it (DCR)
        self.tree = 0
        self.barriers: dict[str, int] = {}


class CheckpointCoordinator:
    """Wave machinery shared by all strategies; subclasses sequence phases."""

    defers_stateful_acks = False

    def __init__(self, engine: SimulationEngine) -> None:
        self.engine = engine
        self.next_checkpoint_id = 1
        self.waves: dict[int, WaveState] = {}
        self.active: dict[str, WaveState] = {}
        self.restored_ckpt: dict[str, int] = {}  # instance id -> checkpoint restored last

    # -- lifecycle hooks ------------------------------------------------------

    def on_run_start(self) -> None:
        pass

    def on_migration_trigger(self) -> None:
        raise NotImplementedError

    def on_rebalance_done(self) -> None:
        raise NotImplementedError

    # -- helpers ----------------------------------------------------------------

    def alive_ids(self) -> frozenset:
        return frozenset(
            inst.instanceId
            for inst in self.engine.instances.values()
            if inst.status != KILLED
        )

    # -- wave lifecycle -----------------------------------------------------------

    def start_wave(self, kind: str, routing: str, checkpoint_id: int,
                   supersede: bool = False, drained: bool = False) -> WaveState:
        active = self.active.get(kind)
        if active is not None and not active.complete and not active.superseded:
            if not supersede:
                raise InvariantViolation(f"a {kind} wave is already in flight")
            active.superseded = True
        wave = WaveState(checkpoint_id, kind, routing, self.engine.new_id(), self.alive_ids(),
                         drained=drained)
        self.waves[wave.rootId] = wave
        self.active[kind] = wave
        self.send_wave_copies(wave)
        return wave

    def send_wave_copies(self, wave: WaveState, only: frozenset | None = None) -> None:
        """Inject the wave: a broadcast copy to each expected instance (or to
        ``only``, a subset of them), or a sequential copy to each entry."""
        eng = self.engine
        if wave.routing == BROADCAST:
            wanted = wave.expected if only is None else only
            targets = [inst for inst in eng.instances.values() if inst.instanceId in wanted]
        else:
            targets = eng.entry_instances()
        for inst in targets:
            self._send_copy(wave, inst)

    def _send_copy(self, wave: WaveState, inst: TaskInstanceRuntime) -> None:
        eng = self.engine
        copy_id = eng.new_id()
        wave.tree ^= copy_id
        env = EventEnvelope(copy_id, wave.rootId, wave.checkpointId, wave.kind,
                            eng.epoch, False, eng.now)
        eng.deliver(env, inst)

    def _forward_wave(self, wave: WaveState, inst: TaskInstanceRuntime) -> None:
        # A broadcast copy already reached every instance; a nested handler
        # may have finished the wave already.
        if wave.routing == BROADCAST or wave.complete or wave.superseded:
            return
        for child in self.engine.downstream[inst.task.taskId]:
            self._send_copy(wave, child)

    def _ack_copy(self, wave: WaveState, inst: TaskInstanceRuntime,
                  env: EventEnvelope, counts: bool) -> None:
        wave.tree ^= env.eventId
        if not counts or wave.complete or wave.superseded:
            return
        wave.ackedBy.add(inst.instanceId)
        # INIT waves start only after the migration trigger.
        if wave.kind == INIT and self.engine.timeline.phase_ts(FIRST_INIT_ACKED) is None:
            self.engine.record_phase(FIRST_INIT_ACKED)
        if wave.expected <= wave.ackedBy:
            wave.complete = True
            if wave.kind in (PREPARE, COMMIT) and wave.tree:
                raise InvariantViolation(
                    f"{wave.kind} wave covered all instances but its causal "
                    f"tree hash is nonzero"
                )
            self.on_wave_complete(wave)

    def on_wave_complete(self, wave: WaveState) -> None:
        raise NotImplementedError

    # -- control-event dispatch ------------------------------------------------------

    def on_control_event(self, inst: TaskInstanceRuntime, env: EventEnvelope) -> None:
        wave = self.waves.get(env.rootId)
        if wave is None or wave.superseded or wave.complete:
            return  # stale or residual copy of a finished/abandoned wave
        if env.kind == PREPARE:
            self._handle_prepare(inst, env, wave)
        elif env.kind == COMMIT:
            self._handle_commit(inst, env, wave)
        elif env.kind == INIT:
            self._handle_init(inst, env, wave)
        elif env.kind == ROLLBACK:
            self._handle_rollback(inst, env, wave)
        else:
            raise InvariantViolation(f"unexpected control kind {env.kind}")

    def _aligned(self, inst: TaskInstanceRuntime, wave: WaveState) -> bool:
        """Count barrier copies; True once every upstream channel delivered."""
        if wave.routing == BROADCAST:
            return True
        seen = wave.barriers.get(inst.instanceId, 0) + 1
        if seen < self.engine.upstream_instance_count(inst.task.taskId):
            wave.barriers[inst.instanceId] = seen
            return False
        wave.barriers.pop(inst.instanceId, None)
        return True

    # -- PREPARE and COMMIT ---------------------------------------------------------

    def _handle_prepare(self, inst, env, wave) -> None:
        if not self._aligned(inst, wave):
            self._ack_copy(wave, inst, env, counts=False)
            return
        if wave.drained and any(e.kind == DATA for e in inst.queue):
            raise InvariantViolation(
                f"{inst.instanceId}: data events behind the final drain barrier"
            )
        # Assembling the snapshot runs through the task like one more
        # event: the barrier costs a service time at every hop.
        self._hold_slot(inst, env, wave, inst.service_ms)

    def _handle_commit(self, inst, env, wave) -> None:
        if not self._aligned(inst, wave):
            self._ack_copy(wave, inst, env, counts=False)
            return
        record = self.engine.store.get(inst.instanceId, wave.checkpointId)
        if record is None:
            raise InvariantViolation(
                f"no prepared record for ({inst.instanceId}, {wave.checkpointId})"
            )
        if inst.captureFlag:
            record.pendingEventsBlob = serialize_pending(inst.pendingList)
        # Persisting occupies the single service slot.
        self._hold_slot(inst, env, wave, self.engine.store.write_latency_ms(record))

    def _hold_slot(self, inst, env, wave, delay_ms: int) -> None:
        inst.in_service = env
        self.engine.clock.schedule_in(delay_ms, self._slot_released,
                                      inst, env, wave, inst.generation)

    def _slot_released(self, inst, env, wave, gen) -> None:
        """End a PREPARE or COMMIT step: snapshot or persist, then pass the
        wave on."""
        eng = self.engine
        if gen != inst.generation:
            return  # killed while holding the slot
        inst.in_service = None
        if env.kind == PREPARE:
            # The snapshot stays PREPARED until commit.  A broadcast PREPARE
            # (CCR) also freezes the queue: from here on, arriving data goes
            # to the pending list, persisted with the snapshot at commit.
            snapshot = inst.state.snapshot() if inst.stateful else b""
            eng.store.prepare(CheckpointRecord(inst.instanceId, wave.checkpointId, snapshot))
            if wave.routing == BROADCAST:
                inst.captureFlag = True
        else:
            self.commit_after_persist(inst, eng.store.commit(inst.instanceId, wave.checkpointId))
        self._forward_wave(wave, inst)
        self._ack_copy(wave, inst, env, counts=True)
        eng._pump(inst)

    def commit_after_persist(self, inst: TaskInstanceRuntime,
                             record: CheckpointRecord) -> None:
        pass

    # -- INIT ------------------------------------------------------------------------------

    def _handle_init(self, inst, env, wave) -> None:
        if self.init_needs_restore(inst, wave):
            # Set first: the restore pumps a queue that may hold this INIT again.
            self.restored_ckpt[inst.instanceId] = wave.checkpointId
            self.engine.initialize_instance(inst, self.restore_record(inst, wave))
        self._forward_wave(wave, inst)
        self._ack_copy(wave, inst, env, counts=True)

    def init_needs_restore(self, inst: TaskInstanceRuntime, wave: WaveState) -> bool:
        # A duplicate INIT at an already-restored task is skipped.
        return self.restored_ckpt.get(inst.instanceId) != wave.checkpointId

    def restore_record(self, inst: TaskInstanceRuntime,
                       wave: WaveState) -> CheckpointRecord | None:
        """The checkpoint an INIT restores ``inst`` from: the wave's own."""
        return self.engine.store.get(inst.instanceId, wave.checkpointId)

    # -- ROLLBACK ----------------------------------------------------------------------------

    def _handle_rollback(self, inst, env, wave) -> None:
        inst.captureFlag = False
        if inst.pendingList:
            captured = inst.pendingList
            inst.pendingList = []
            inst.queue.extendleft(reversed(captured))
        self.engine.store.discard_prepared(inst.instanceId, wave.checkpointId)
        self._ack_copy(wave, inst, env, counts=True)
        self.engine._pump(inst)

    # -- rebalance ------------------------------------------------------------------------------

    def start_rebalance(self) -> None:
        eng = self.engine
        eng.record_phase(REBALANCE_START)
        for inst_id in eng.migrating:
            eng.kill_instance(inst_id)
        eng.clock.schedule_in(to_ms(eng.config.rebalanceDuration), self._rebalance_done)

    def _rebalance_done(self) -> None:
        eng = self.engine
        eng.rewire_channels()
        # Respawned workers come up after a modeled startup delay; until
        # then deliveries to them are dropped.
        for inst_id in eng.migrating:
            eng.mark_respawning(inst_id)
            delay = eng.rng.randint(
                eng.config.workerStartupMinMs, eng.config.workerStartupMaxMs
            )
            eng.clock.schedule_in(delay, eng.respawn_instance, inst_id)
        eng.record_phase(REBALANCE_DONE)
        self.on_rebalance_done()


class DcrCoordinator(CheckpointCoordinator):
    """Drain the dataflow behind a sequential barrier, checkpoint, restore.

    The phase sequence is shared with CCR: pause the source, PREPARE,
    COMMIT (always sequential), rebalance, INIT with resends, unpause.
    The class attributes say how PREPARE and INIT travel and which marker
    ends the PREPARE wave.
    """

    prepare_routing = SEQUENTIAL
    prepared_marker = DRAIN_DONE
    init_routing = SEQUENTIAL

    def __init__(self, engine: SimulationEngine) -> None:
        super().__init__(engine)
        self.migration_ckpt = 0

    def on_migration_trigger(self) -> None:
        eng = self.engine
        eng.record_phase(REQUEST)
        eng.pause_source()
        self.migration_ckpt = self.next_checkpoint_id
        self.next_checkpoint_id += 1
        wave = self.start_wave(PREPARE, self.prepare_routing, self.migration_ckpt,
                               drained=self.prepare_routing == SEQUENTIAL)
        eng.clock.schedule_in(eng.ack_timeout_ms, self._check_prepare, wave)

    def _check_prepare(self, wave: WaveState) -> None:
        # Scheduled once per migration; only this abort supersedes the wave.
        if wave.complete:
            return
        wave.superseded = True
        self.start_wave(ROLLBACK, BROADCAST, wave.checkpointId)
        self.engine.unpause_source()

    def on_wave_complete(self, wave: WaveState) -> None:
        # After an abort only the ROLLBACK wave completes: no branch acts.
        if wave.kind == PREPARE:
            self.engine.record_phase(self.prepared_marker)
            self.start_wave(COMMIT, SEQUENTIAL, self.migration_ckpt)
        elif wave.kind == COMMIT:
            self.start_rebalance()
        elif wave.kind == INIT:
            self._finish_migration()

    def on_rebalance_done(self) -> None:
        self.start_wave(INIT, self.init_routing, self.migration_ckpt)
        self._schedule_resend()

    def _schedule_resend(self) -> None:
        self.engine.clock.schedule_in(INIT_RESEND_MS, self._resend_tick)

    def _resend_tick(self) -> None:
        wave = self.active.get(INIT)
        # No horizon stop: a resend never supersedes its wave, so a started
        # migration finishes one traversal after the last respawn.
        if wave is None or wave.complete or wave.superseded:
            return
        # Duplicate sequential INIT events re-enter at the dataflow head;
        # restored tasks skip and forward, so stragglers are reached.  A
        # broadcast INIT goes again to the instances that have not acked.
        self.send_wave_copies(wave, only=wave.expected - wave.ackedBy)
        self._schedule_resend()

    def _finish_migration(self) -> None:
        self.engine.record_phase(ALL_INIT_ACKED)
        self.engine.record_phase(SOURCE_UNPAUSED)
        self.engine.unpause_source()


class CcrCoordinator(DcrCoordinator):
    """Capture in-flight events per instance, checkpoint them, resume."""

    prepare_routing = BROADCAST
    prepared_marker = CAPTURE_DONE
    init_routing = BROADCAST

    def commit_after_persist(self, inst, record) -> None:
        if len(inst.pendingList) != len(deserialize_pending(record.pendingEventsBlob)):
            raise InvariantViolation(
                f"{inst.instanceId}: events captured during the commit write"
            )
        inst.pendingList = []


class DsmCoordinator(CheckpointCoordinator):
    """Stock behavior: immediate rebalance, acking and periodic checkpoints."""

    def __init__(self, engine: SimulationEngine) -> None:
        super().__init__(engine)
        self.last_committed_ckpt = 0
        # Checkpoint-gated acking ties replay to state rollback.  Once the
        # migration has restored every task there is no rollback point
        # left in the run, so holding acks would only manufacture replay
        # churn; gate them exactly while a rollback is still possible, that
        # is until the migration is done.
        self.defers_stateful_acks = True

    def on_run_start(self) -> None:
        self._schedule_periodic()

    def _schedule_periodic(self) -> None:
        self.engine.clock.schedule_in(CHECKPOINT_INTERVAL_MS, self._periodic_tick)

    def _periodic_tick(self) -> None:
        eng = self.engine
        if eng.now >= eng.run_end_ms:
            return
        migration_active = eng.timeline.phase_ts(REQUEST) is not None and self.defers_stateful_acks
        prepare_busy = any(
            w is not None and not w.complete and not w.superseded
            for w in (self.active.get(PREPARE), self.active.get(COMMIT))
        )
        if not migration_active and not prepare_busy:
            ckpt = self.next_checkpoint_id
            self.next_checkpoint_id += 1
            self.start_wave(PREPARE, SEQUENTIAL, ckpt)
        self._schedule_periodic()

    def on_migration_trigger(self) -> None:
        self.engine.record_phase(REQUEST)
        # Abandon any checkpoint wave caught mid-flight by the kill.
        for kind in (PREPARE, COMMIT):
            wave = self.active.get(kind)
            if wave is not None and not wave.complete:
                wave.superseded = True
        self.start_rebalance()

    def on_rebalance_done(self) -> None:
        self._start_init_wave()

    def _start_init_wave(self) -> None:
        wave = self.start_wave(INIT, SEQUENTIAL, self.last_committed_ckpt, supersede=True)
        eng = self.engine
        eng.clock.schedule_in(eng.ack_timeout_ms, self._check_init, wave)

    def _check_init(self, wave: WaveState) -> None:
        # Un-acked INIT within the ack timeout: re-issue the whole wave.
        if wave.complete or wave.superseded:
            return
        # The horizon stop stays: each re-issue supersedes the last, so an
        # INIT wave slower than ackTimeout would be re-issued forever.
        if self.engine.now >= self.engine.run_end_ms:
            return
        self._start_init_wave()

    def init_needs_restore(self, inst, wave) -> bool:
        # Live tasks kept their state through the rebalance; only respawned
        # (uninitialized) tasks roll back to the last periodic checkpoint.
        return not inst.initialized

    def restore_record(self, inst, wave) -> CheckpointRecord | None:
        return self.engine.store.get_latest_committed(inst.instanceId)

    def commit_after_persist(self, inst, record) -> None:
        # Input events processed since the previous checkpoint are acked
        # only now, so a rollback to this checkpoint replays exactly the
        # uncovered window.
        self.engine.flush_deferred_acks(inst)

    def on_wave_complete(self, wave: WaveState) -> None:
        if wave.kind == PREPARE:
            self.start_wave(COMMIT, SEQUENTIAL, wave.checkpointId)
        elif wave.kind == COMMIT:
            self.last_committed_ckpt = wave.checkpointId
        elif wave.kind == INIT:
            self.engine.record_phase(ALL_INIT_ACKED)
            self.defers_stateful_acks = False
            for inst in self.engine.instances.values():
                if inst.deferred_acks:
                    self.engine.flush_deferred_acks(inst)


_COORDINATORS = {
    "DSM": DsmCoordinator,
    "DCR": DcrCoordinator,
    "CCR": CcrCoordinator,
}


def make_coordinator(engine: SimulationEngine) -> CheckpointCoordinator:
    return _COORDINATORS[engine.config.strategy](engine)
