"""Out-of-tree instrumentation of flowmigrate's layers.

Nothing here edits the program: the benchmark replaces public functions
and methods of ``_kernels``, ``reliability``, ``model``, ``runtime``,
``protocol``, ``metrics`` and ``acceptance`` with timing wrappers for the
duration of a traced pass, and restores them afterwards.

* ``Observer`` wraps only ``SimulationEngine.run`` and ``compute_report``
  (a handful of calls per pass), so untraced passes can fingerprint every
  engine run at no measurable cost.
* ``Tracer`` wraps every layer boundary.  Coarse boundaries (engine runs,
  reports, audits, CSV rendering, acceptance criteria) keep one span each:
  name, start, end and parent.  Hot boundaries (calendar, acker, store,
  DAG lookups, delivery, timeline records, wave handling) aggregate to a
  call count, a total and a self time.  A span's self time is its duration
  minus the time covered by the wrapped calls made inside it.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from dataclasses import dataclass
from functools import cached_property

from flowmigrate import _kernels, acceptance, metrics, model, protocol, reliability, runtime

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def set_everywhere(self, original, value) -> None:
        """Replace a module-level function in every flowmigrate module that
        imported it by name."""
        for name, module in list(sys.modules.items()):
            if name != "flowmigrate" and not name.startswith("flowmigrate."):
                continue
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# -- fingerprints --------------------------------------------------------------


@dataclass
class EngineRun:
    """One finished engine run and its noise-free counters."""

    scenario: str
    strategy: str
    seed: int
    migrate: bool
    actions: int
    calendar_pushes: int | None
    timeline_records: int
    timeline: object
    report: object | None = None

    @cached_property
    def fingerprint(self) -> dict:
        return {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "seed": self.seed,
            "migrate": self.migrate,
            "timeline_sha256": hashlib.sha256(self.timeline.to_csv().encode()).hexdigest(),
            "report_sha256": None if self.report is None
            else hashlib.sha256(self.report.to_json().encode()).hexdigest(),
            "actions": self.actions,
            "calendar_pushes": self.calendar_pushes,
            "timeline_records": self.timeline_records,
        }


class Observer:
    """Collects every engine run of a pass, with its report when one is made."""

    def __init__(self) -> None:
        self.runs: list[EngineRun] = []
        self._by_timeline: dict[int, EngineRun] = {}
        self._patches = Patches()
        # A tracer swaps these two in, so the observer wrapper stays outermost.
        self.engine_run = runtime.SimulationEngine.run
        self.on_engine_done = None

    def __enter__(self) -> "Observer":
        report_fn = metrics.compute_report
        observer = self

        def run(engine, *args, **kwargs):
            timeline = observer.engine_run(engine, *args, **kwargs)
            cfg = engine.config
            record = EngineRun(
                cfg.name, cfg.strategy, cfg.randomSeed, engine.migrate,
                engine._actions,
                # The pure calendar numbers its pushes; None on a backend
                # that does not expose the counter.
                getattr(engine.clock._calendar, "_next_seq", None),
                len(timeline), timeline,
            )
            observer.runs.append(record)
            observer._by_timeline[id(timeline)] = record
            if observer.on_engine_done is not None:
                observer.on_engine_done(engine)
            return timeline

        def compute_report(timeline, config):
            report = report_fn(timeline, config)
            record = observer._by_timeline.get(id(timeline))
            if record is not None:
                record.report = report
            return report

        self._patches.set(runtime.SimulationEngine, "run", run)
        self._patches.set_everywhere(report_fn, compute_report)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def fingerprints(self) -> list[dict]:
        return [run.fingerprint for run in self.runs]


# -- tracing -------------------------------------------------------------------

# The wrapped boundaries, by layer.  Span names are "<layer>.<function>",
# and every per-layer metric sums the spans sharing a name prefix.
_STORE_METHODS = ("prepare", "commit", "get_latest_committed", "get", "discard_prepared",
                  "write_latency_ms")
_ACKER_METHODS = ("register_root", "anchor_emit", "ack_event", "anchor_if_tracked",
                  "ack_if_tracked", "is_completed", "is_tracked", "hash_of", "discard",
                  "pending_count", "sweep_timeouts")
_ENGINE_METHODS = ("deliver", "kill_instance", "mark_respawning", "respawn_instance",
                   "rewire_channels", "initialize_instance", "flush_deferred_acks",
                   "entry_instances", "upstream_instance_count", "pause_source",
                   "unpause_source", "record_phase")
_RECORD_METHODS = ("record_emit", "record_replay", "record_sink_exit", "record_phase")
_TIMELINE_LOOKUPS = ("phase_ts", "request_ts", "sink_exits", "replays")
_REPORT_FUNCTIONS = ("compute_report", "compute_restore_duration",
                     "compute_drain_capture_duration", "compute_rebalance_duration",
                     "compute_catchup", "compute_recovery", "output_rate_buckets",
                     "compute_stabilization", "count_replays", "replay_bursts")
_AUDIT_FUNCTIONS = ("exactly_once_audit", "sink_multiset")
_COORDINATORS = (protocol.CheckpointCoordinator, protocol.DcrCoordinator,
                 protocol.CcrCoordinator, protocol.DsmCoordinator)


class Tracer:
    """Wraps the layer boundaries for one traced pass (a context manager)."""

    def __init__(self, observer: Observer) -> None:
        self.observer = observer
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple | None] = []  # (id, name, parent, start, end)
        self.counters = {
            "acks": 0, "ack_completions": 0, "sweep_expired": 0, "acker_peak_entries": 0,
            "store_bytes_written": 0, "waves_superseded": 0,
        }
        self._child = [0.0]  # time covered by wrapped calls, per open frame
        self._open = [None]  # ids of the open full spans
        self._patches = Patches()
        self._calendar_state = None

    # -- wrappers ----------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _counted(self, name: str, fn):
        """Count calls only; the callee's time stays in the calling span."""
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _leaf(self, name: str, fn, post=None):
        """Time a hot boundary that calls no other wrapped function."""
        stat = self._stat(name)
        child = self._child
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            child[-1] += dt
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def _aggregate(self, name: str, fn, post=None):
        """Time a boundary whose callee may call other wrapped functions."""
        stat = self._stat(name)
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def _span(self, name: str, fn):
        stat = self._stat(name)
        child = self._child
        opened = self._open
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = opened[-1]
            opened.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                opened.pop()
                spans[span_id] = (span_id, name, parent, t0, t1)
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner

        return wrapper

    def _calendar_wrappers(self, cls):
        """Leaf wrappers for the hottest boundary, the event calendar."""
        push0, pop0 = cls.push, cls.pop
        push_stat = self._stat("kernels.calendar.push")
        pop_stat = self._stat("kernels.calendar.pop")
        child = self._child
        clock = time.perf_counter
        # [now_ms, outstanding, peak, zero_delay_pushes]; reset per engine run.
        state = self._calendar_state = [0, 0, 0, 0]

        def push(calendar, fire_ms, payload):
            t0 = clock()
            seq = push0(calendar, fire_ms, payload)
            dt = clock() - t0
            child[-1] += dt
            push_stat[0] += 1
            push_stat[1] += dt
            push_stat[2] += dt
            if fire_ms == state[0]:
                state[3] += 1
            state[1] += 1
            if state[1] > state[2]:
                state[2] = state[1]
            return seq

        def pop(calendar):
            t0 = clock()
            entry = pop0(calendar)
            dt = clock() - t0
            child[-1] += dt
            pop_stat[0] += 1
            pop_stat[1] += dt
            pop_stat[2] += dt
            state[0] = entry[0]
            state[1] -= 1
            return entry

        return push, pop

    # -- per-boundary result hooks -------------------------------------------------

    def _count_ack(self, completed, _args) -> None:
        self.counters["acks"] += 1
        if completed:
            self.counters["ack_completions"] += 1

    def _count_sweep(self, expired, _args) -> None:
        self.counters["sweep_expired"] += len(expired)

    def _count_register(self, _result, args) -> None:
        entries = len(args[0])
        if entries > self.counters["acker_peak_entries"]:
            self.counters["acker_peak_entries"] = entries

    def _count_commit(self, record, _args) -> None:
        self.counters["store_bytes_written"] += record.payload_size()

    def _engine_done(self, engine) -> None:
        self.counters["waves_superseded"] += sum(
            1 for wave in engine.coordinator.waves.values() if wave.superseded
        )

    def _engine_start(self, fn):
        state = self._calendar_state

        def run(engine, *args, **kwargs):
            state[0] = engine.clock.now
            state[1] = 0
            return fn(engine, *args, **kwargs)

        return run

    # -- install / remove -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        p = self._patches
        cal = _kernels.EventCalendar
        push, pop = self._calendar_wrappers(cal)
        p.set(cal, "push", push)
        p.set(cal, "pop", pop)

        hooks = {"ack_event": self._count_ack, "ack_if_tracked": self._count_ack,
                 "sweep_timeouts": self._count_sweep, "register_root": self._count_register}
        svc = reliability.AckerService
        for name in _ACKER_METHODS:
            p.set(svc, name, self._leaf(f"reliability.acker.{name}", getattr(svc, name),
                                        hooks.get(name)))
        store = reliability.StateStore
        for name in _STORE_METHODS:
            p.set(store, name, self._aggregate(
                f"reliability.store.{name}", getattr(store, name),
                self._count_commit if name == "commit" else None))

        dag = model.DagDef
        p.set(dag, "out_edges", self._leaf("model.out_edges", dag.out_edges))
        p.set(dag, "in_edges", self._counted("model.in_edges", dag.in_edges))
        p.set(dag, "task", self._counted("model.task", dag.task))
        for name in ("user_tasks", "topological_order"):
            p.set(dag, name, self._aggregate(f"model.{name}", getattr(dag, name)))

        # Engine methods other than run are counted, not timed: their time
        # is runtime self time whichever span calls them.
        eng = runtime.SimulationEngine
        for name in _ENGINE_METHODS:
            p.set(eng, name, self._counted(f"runtime.{name}", getattr(eng, name)))
        obs = self.observer
        p.set(obs, "engine_run", self._span("runtime.run", self._engine_start(obs.engine_run)))
        p.set(obs, "on_engine_done", self._engine_done)

        for cls in _COORDINATORS:
            for name, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not name.startswith("__"):
                    p.set(cls, name, self._aggregate(f"protocol.{name}", fn))

        tl = metrics.Timeline
        for name in _RECORD_METHODS:
            p.set(tl, name, self._leaf(f"metrics.record.{name}", getattr(tl, name)))
        for name in _TIMELINE_LOOKUPS:
            p.set(tl, name, self._aggregate(f"metrics.report.{name}", getattr(tl, name)))
        p.set(tl, "to_csv", self._span("metrics.csv.to_csv", tl.to_csv))
        p.set(metrics.MetricsReport, "to_json",
              self._span("metrics.csv.report_json", metrics.MetricsReport.to_json))
        for name in _REPORT_FUNCTIONS:
            fn = getattr(metrics, name)
            wrapped = (self._span if name == "compute_report" else self._aggregate)(
                f"metrics.report.{name}", fn)
            p.set_everywhere(fn, wrapped)
        for name in _AUDIT_FUNCTIONS:
            fn = getattr(metrics, name)
            p.set_everywhere(fn, self._span(f"metrics.audit.{name}", fn))

        p.set(acceptance.RunCache, "get",
              self._aggregate("acceptance.run_cache.get", acceptance.RunCache.get))
        p.set(acceptance, "ALL_CRITERIA", tuple(
            (key, self._span(f"acceptance.criterion.{key}", fn))
            for key, fn in acceptance.ALL_CRITERIA
        ))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    # -- results ------------------------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(prefix))

    def calls(self, prefix: str) -> int:
        return sum(s[0] for name, s in self.stats.items() if name.startswith(prefix))

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "parent": parent, "start_s": start, "end_s": end}
            for sid, name, parent, start, end in self.spans
        ]

    def aggregate_records(self) -> dict[str, dict]:
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.stats.items())
        }

    def layer_metrics(self, fingerprints: list[dict]) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the traced pass, name -> (value, unit).

        Call after the tracer is removed, with the pass's fingerprints.
        """
        c = self.counters
        push_stat = self.stats["kernels.calendar.push"]
        pushes = push_stat[0]
        acks = c["acks"]
        distinct = len({f["timeline_sha256"] for f in fingerprints})
        state = self._calendar_state
        return {
            "kernels.calendar.pushes": (pushes, "count"),
            "kernels.calendar.zero_delay_share": (state[3] / pushes if pushes else 0.0, "ratio"),
            "kernels.calendar.peak_len": (state[2], "count"),
            "kernels.calendar.self_s": (self.self_time("kernels.calendar."), "s"),
            # An acker operation is one ack: folding a processed event out
            # of its root's tree.  Anchors and sweeps are in the aggregates.
            "reliability.acker.ops": (acks, "count"),
            "reliability.acker.completions_per_ack":
                (c["ack_completions"] / acks if acks else 0.0, "ratio"),
            "reliability.acker.sweep_expired": (c["sweep_expired"], "count"),
            "reliability.acker.peak_entries": (c["acker_peak_entries"], "count"),
            "reliability.acker.self_s": (self.self_time("reliability.acker."), "s"),
            "model.out_edges.calls": (self.calls("model.out_edges"), "count"),
            "model.out_edges.self_s": (self.self_time("model.out_edges"), "s"),
            "model.in_edges.calls": (self.calls("model.in_edges"), "count"),
            "model.task.calls": (self.calls("model.task"), "count"),
            "runtime.actions": (sum(f["actions"] for f in fingerprints), "count"),
            "runtime.deliver.calls": (self.calls("runtime.deliver"), "count"),
            "runtime.kill_respawn.calls": (
                self.calls("runtime.kill_instance") + self.calls("runtime.mark_respawning")
                + self.calls("runtime.respawn_instance"), "count"),
            "runtime.run.self_s": (self.self_time("runtime.run"), "s"),
            "protocol.control_events": (self.calls("protocol.on_control_event"), "count"),
            "protocol.waves_started": (self.calls("protocol.start_wave"), "count"),
            "protocol.waves_superseded": (c["waves_superseded"], "count"),
            "protocol.wave_copies": (self.calls("protocol._send_copy"), "count"),
            "protocol.self_s": (self.self_time("protocol."), "s"),
            "reliability.store.prepares": (self.calls("reliability.store.prepare"), "count"),
            "reliability.store.commits": (self.calls("reliability.store.commit"), "count"),
            "reliability.store.bytes_written": (c["store_bytes_written"], "B"),
            "reliability.store.self_s": (self.self_time("reliability.store."), "s"),
            "metrics.records": (sum(f["timeline_records"] for f in fingerprints), "count"),
            "metrics.record.self_s": (self.self_time("metrics.record."), "s"),
            "metrics.report.self_s": (self.self_time("metrics.report."), "s"),
            "metrics.csv.self_s": (self.self_time("metrics.csv."), "s"),
            "metrics.audit.self_s": (self.self_time("metrics.audit."), "s"),
            "acceptance.engine_runs": (len(fingerprints), "count"),
            "acceptance.distinct_timelines": (distinct, "count"),
            "acceptance.criteria.self_s": (self.self_time("acceptance.criterion."), "s"),
        }
