"""Dataflow topologies, cluster resources, schedules and scenario configs.

Everything here is plain data plus pure functions: safe to share read-only
between engines.  Scenario documents are JSON with the field names used by
the records below; DAGs may be embedded inline or referenced by the name of
a bundled topology file.
"""

from __future__ import annotations

import json
import math
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError

DUPLICATE = "DUPLICATE"
SHUFFLE = "SHUFFLE"
GROUPINGS = (DUPLICATE, SHUFFLE)

STRATEGIES = ("DSM", "DCR", "CCR")

# One task instance is provisioned per this many events/sec of input.
RATE_PER_INSTANCE = 8.0

# Timeline timestamps are int64 ms, and a run records times some durations
# past its end: each duration or delay stays below 2**53 ms (285,000 years).
MAX_MS = 2**53
# A run stops with a runaway error past this many actions, and its paced
# source alone fires one per tick: the loader rejects a scenario whose
# runDuration x sourceRate reaches it, which also keeps root seqs in int32.
MAX_ACTIONS = 200_000_000


def to_ms(seconds: float) -> int:
    """Seconds of simulated time as whole milliseconds."""
    return int(round(seconds * 1000))


def instance_id(task_id: str, ordinal: int) -> str:
    return f"{task_id}#{ordinal}"


class TaskDef(NamedTuple):
    """One logical task of the dataflow; may run as several instances."""

    taskId: str
    name: str = ""
    serviceTimeMs: int = 100
    selectivity: float = 1.0
    stateful: bool = False
    instanceCount: int = 1

    def instance_ids(self) -> list[str]:
        return [instance_id(self.taskId, i) for i in range(self.instanceCount)]


class Edge(NamedTuple):
    fromTask: str
    toTask: str
    grouping: str = SHUFFLE


class DagDef(NamedTuple):
    """Directed acyclic dataflow with pseudo source and sink tasks."""

    name: str
    tasks: tuple[TaskDef, ...]
    edges: tuple[Edge, ...]
    sourceTasks: tuple[str, ...]
    sinkTasks: tuple[str, ...]

    def task(self, task_id: str) -> TaskDef:
        for t in self.tasks:
            if t.taskId == task_id:
                return t
        raise KeyError(task_id)

    def user_tasks(self) -> list[TaskDef]:
        """Tasks that do real work: everything except sources and sinks."""
        endpoints = set(self.sourceTasks) | set(self.sinkTasks)
        return [t for t in self.tasks if t.taskId not in endpoints]

    def out_edges(self, task_id: str) -> list[Edge]:
        return [e for e in self.edges if e.fromTask == task_id]

    def in_edges(self, task_id: str) -> list[Edge]:
        return [e for e in self.edges if e.toTask == task_id]

    def out_edge_lists(self) -> dict[str, list[Edge]]:
        """``out_edges`` of every task that has one, in one pass over the edges."""
        out: dict[str, list[Edge]] = {}
        for e in self.edges:
            out.setdefault(e.fromTask, []).append(e)
        return out

    def topological_order(self) -> list[str]:
        """Kahn topological order, stable w.r.t. the declared task order."""
        indegree = {t.taskId: 0 for t in self.tasks}
        for e in self.edges:
            if e.toTask in indegree:
                indegree[e.toTask] += 1
        out = self.out_edge_lists()
        # The order is Kahn's FIFO queue: a task joins it when its last
        # in-edge is consumed, and the loop reads it as it grows.
        order = [t.taskId for t in self.tasks if indegree[t.taskId] == 0]
        for tid in order:
            for e in out.get(tid, ()):
                indegree[e.toTask] -= 1
                if indegree[e.toTask] == 0:
                    order.append(e.toTask)
        return order


class VmDef(NamedTuple):
    vmId: str
    slotCount: int


class Schedule(NamedTuple):
    """Mapping of task-instance id -> (vmId, slotIndex)."""

    placements: dict[str, tuple[str, int]]

    def validate(self, instances: list[str], vms: list[VmDef]) -> None:
        slot_counts = {vm.vmId: vm.slotCount for vm in vms}
        seen: set[tuple[str, int]] = set()
        for inst in instances:
            if inst not in self.placements:
                raise ConfigError(f"instance {inst} has no placement")
        extra = sorted(set(self.placements).difference(instances))
        if extra:
            raise ConfigError(f"placement of {', '.join(extra)}: no such instance "
                              f"(source and sink instances are never placed)")
        for inst, (vm_id, slot) in self.placements.items():
            if vm_id not in slot_counts:
                raise ConfigError(f"placement of {inst} names unknown VM {vm_id}")
            if not 0 <= slot < slot_counts[vm_id]:
                raise ConfigError(
                    f"placement of {inst} uses slot {slot} outside VM {vm_id} "
                    f"(slotCount {slot_counts[vm_id]})"
                )
            key = (vm_id, slot)
            if key in seen:
                raise ConfigError(f"slot {key} hosts more than one instance")
            seen.add(key)


class ScenarioConfig(NamedTuple):
    """A full migration experiment: dataflow, resources, strategy, knobs.

    Durations named ``*Ms`` are milliseconds; the rest are seconds of
    simulated time (floats accepted, stored as given, converted to ms by
    the engine).  A config is immutable: derive one with ``with_overrides``.
    """

    name: str
    dag: DagDef
    vmsBefore: list[VmDef]
    vmsAfter: list[VmDef]
    scheduleBefore: Schedule
    scheduleAfter: Schedule
    strategy: str
    sourceRate: float = 8.0
    runDuration: float = 720.0
    migrationTriggerAt: float = 180.0
    ackTimeout: float = 30.0
    rebalanceDuration: float = 7.26
    networkDelayMs: int = 0
    randomSeed: int = 1

    # Model calibration knobs (see README): respawned workers become able
    # to receive events only after a startup delay, mirroring the slow
    # worker activation that dominates observed restore times.
    workerStartupMinMs: int = 31_000
    workerStartupMaxMs: int = 36_000


def validate_dag(dag: DagDef) -> tuple[str, ...]:
    """Check the structural invariants of a dataflow definition.

    Violations are data, not exceptions: callers decide whether to raise.
    An empty tuple means the dag is valid.
    """
    violations: list[str] = []
    ids = [t.taskId for t in dag.tasks]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(f"duplicate task ids: {', '.join(dupes)}")

    for t in dag.tasks:
        if t.serviceTimeMs <= 0:
            violations.append(f"task {t.taskId}: serviceTimeMs must be > 0")
        if t.selectivity <= 0:
            violations.append(f"task {t.taskId}: selectivity must be > 0")
        if t.instanceCount < 1:
            violations.append(f"task {t.taskId}: instanceCount must be >= 1")

    dangling = False
    for e in dag.edges:
        if e.fromTask not in id_set or e.toTask not in id_set:
            dangling = True
            violations.append(f"edge {e.fromTask}->{e.toTask} references unknown task")
        if e.grouping not in GROUPINGS:
            violations.append(
                f"edge {e.fromTask}->{e.toTask}: unknown grouping {e.grouping}"
            )

    if len(dag.sourceTasks) != 1:
        violations.append(f"{len(dag.sourceTasks)} source tasks declared; a dag has one")
    out = dag.out_edge_lists()
    for s in dag.sourceTasks:
        if s not in id_set:
            violations.append(f"source task {s} not declared")
        elif dag.in_edges(s):
            violations.append(f"source {s} has in-edge")
    for s in dag.sinkTasks:
        if s not in id_set:
            violations.append(f"sink task {s} not declared")
        elif s in out:
            violations.append(f"sink {s} has out-edge")
    if dangling:  # the checks below follow edges, so each end must be a task
        return tuple(violations)

    order = dag.topological_order()
    if len(order) != len(dag.tasks):
        cyclic = sorted(id_set - set(order))
        violations.append(f"cycle involving: {', '.join(cyclic)}")
    else:
        reachable = set(dag.sourceTasks)
        for tid in order:
            if tid in reachable:
                reachable.update(e.toTask for e in out.get(tid, ()))
        unreachable = [tid for tid in ids if tid not in reachable]
        if unreachable:
            violations.append(
                f"not reachable from any source: {', '.join(unreachable)}"
            )
        # An event at a task that leads to no sink is never acked: under
        # DSM its root never completes and the source stalls at its cap.
        feeds_sink = set(dag.sinkTasks)
        for tid in reversed(order):
            if any(e.toTask in feeds_sink for e in out.get(tid, ())):
                feeds_sink.add(tid)
        dead_ends = [tid for tid in ids if tid not in feeds_sink]
        if dead_ends:
            violations.append(f"reaches no sink: {', '.join(dead_ends)} "
                              f"(list a terminal task in sinkTasks)")

    return tuple(violations)


def compute_cumulative_rates(dag: DagDef, source_rate: float) -> dict[str, float]:
    """Steady-state input rate (events/sec) of every task.

    DUPLICATE out-edges each carry the parent's full output; SHUFFLE
    out-edges split it evenly.  Sources have no input rate of their own
    but emit at ``source_rate``.
    """
    rates: dict[str, float] = {t.taskId: 0.0 for t in dag.tasks}
    selectivity = {t.taskId: t.selectivity for t in dag.tasks}
    out_edges = dag.out_edge_lists()
    for tid in dag.topological_order():
        if tid in dag.sourceTasks:
            out_rate = source_rate
        else:
            out_rate = rates[tid] * selectivity[tid]
        out = out_edges.get(tid, ())
        shuffle_edges = [e for e in out if e.grouping == SHUFFLE]
        for e in out:
            share = out_rate if e.grouping == DUPLICATE else out_rate / len(shuffle_edges)
            rates[e.toTask] += share
    return rates


def path_multiplicity(dag: DagDef, strict: bool = True) -> int | float:
    """Sink arrivals per root: the source->sink paths, times the tasks'
    selectivities along them.

    An integral count is returned as an int.  Any other is a ConfigError,
    or with ``strict=False`` is returned as the float: a per-root audit
    needs a whole count, a mean output rate does not.
    """
    rates = compute_cumulative_rates(dag, 1.0)
    mult = sum(rates[s] for s in dag.sinkTasks)
    rounded = round(mult)
    if abs(mult - rounded) <= 1e-9:
        return int(rounded)
    if strict:
        raise ConfigError(f"dag {dag.name}: non-integral path multiplicity {mult}")
    return mult


def min_instances(rate: float, rate_per_instance: float) -> int:
    """ceil(rate / rate_per_instance), at least 1."""
    return max(1, math.ceil(rate / rate_per_instance - 1e-9))


def validate_sizing(dag: DagDef, source_rate: float, rate_per_instance: float) -> tuple[str, ...]:
    """Check every user task has enough instances for its input rate, and
    enough service capacity (1000 / serviceTimeMs events/sec per instance)."""
    rates = compute_cumulative_rates(dag, source_rate)
    violations = []
    for t in dag.user_tasks():
        rate = rates[t.taskId]
        if not math.isfinite(rate):
            violations.append(f"task {t.taskId}: input rate {rate:g} events/sec")
            continue
        need = min_instances(rate, rate_per_instance)
        if t.instanceCount < need:
            violations.append(f"task {t.taskId}: instanceCount {t.instanceCount} < "
                              f"required {need} for {rate:g} events/sec")
        elif rate * t.serviceTimeMs >= 1000 * t.instanceCount:
            violations.append(f"task {t.taskId}: serviceTimeMs {t.serviceTimeMs} overloads "
                              f"{t.instanceCount} instance(s) at {rate:g} events/sec")
    return tuple(violations)


def round_robin_placement(instances: list[str], vms: list[VmDef]) -> Schedule:
    """Assign instances to slots cycling over the VMs in declared order.

    Instance k goes to VM (k mod len(vms)); slot indexes increase per VM.
    Pure function of its inputs.
    """
    total_slots = sum(vm.slotCount for vm in vms)
    if len(instances) > total_slots:
        raise ConfigError(
            f"{len(instances)} instances do not fit in {total_slots} slots"
        )
    placements: dict[str, tuple[str, int]] = {}
    next_slot = {vm.vmId: 0 for vm in vms}
    vm_cycle = 0
    for inst in instances:
        # Skip VMs that are already full.
        for _ in range(len(vms)):
            vm = vms[vm_cycle % len(vms)]
            vm_cycle += 1
            if next_slot[vm.vmId] < vm.slotCount:
                placements[inst] = (vm.vmId, next_slot[vm.vmId])
                next_slot[vm.vmId] += 1
                break
    return Schedule(placements)


def migrating_instances(before: Schedule, after: Schedule) -> set[str]:
    """Instances whose placement changes between the two schedules."""
    return {
        inst
        for inst, placement in before.placements.items()
        if after.placements.get(inst) != placement
    }


# ---------------------------------------------------------------------------
# JSON parsing


def _reject_unknown(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


# The JSON values a field of each type accepts (a JSON object is a dict, an
# array a list).  JSON's true and false are never numbers, although
# Python's bool is an int.
_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str, dict: dict, list: list}


def _typed(value, kind: type, what: str):
    """``value`` as a ``kind``, accepted only with its JSON type."""
    if not isinstance(value, _JSON_TYPES[kind]) or (kind is not bool and isinstance(value, bool)):
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _defaulted_fields(cls, raw: dict, where: str) -> dict:
    """The fields of ``cls`` that have a default, read from ``raw`` and
    checked against the default's type; a missing field takes its default."""
    return {
        name: _typed(raw.get(name, default), type(default), f"{where} field {name}")
        for name, default in cls._field_defaults.items()
    }


def parse_dag(doc: dict, name: str = "") -> DagDef:
    _reject_unknown(_typed(doc, dict, "dag"), DagDef._fields, "dag")
    try:
        tasks = []
        for raw in _typed(doc["tasks"], list, "dag field tasks"):
            task_id = _typed(_typed(raw, dict, "task")["taskId"], str, "task field taskId")
            where = f"task {task_id}"
            _reject_unknown(raw, TaskDef._fields, where)
            # A task's name defaults to its id.
            values = _defaulted_fields(TaskDef, {"name": task_id, **raw}, where)
            tasks.append(TaskDef(taskId=task_id, **values))
        edges = []
        for raw in _typed(doc.get("edges", []), list, "dag field edges"):
            _reject_unknown(_typed(raw, dict, "edge"), Edge._fields, "edge")
            edges.append(Edge(_typed(raw["fromTask"], str, "edge field fromTask"),
                              _typed(raw["toTask"], str, "edge field toTask"),
                              **_defaulted_fields(Edge, raw, "edge")))
        dag = DagDef(
            name=_typed(doc.get("name", name), str, "dag field name"),
            tasks=tuple(tasks),
            edges=tuple(edges),
            sourceTasks=tuple(_typed(s, str, "dag field sourceTasks")
                              for s in _typed(doc["sourceTasks"], list, "dag field sourceTasks")),
            sinkTasks=tuple(_typed(s, str, "dag field sinkTasks")
                            for s in _typed(doc["sinkTasks"], list, "dag field sinkTasks")),
        )
    except KeyError as exc:
        raise ConfigError(f"dag: missing field {exc.args[0]}") from None
    _require_valid_dag(dag)
    return dag


def _require_valid_dag(dag: DagDef) -> None:
    violations = validate_dag(dag)
    if violations:
        raise ConfigError("invalid dag: " + "; ".join(violations))


def _parse_vms(raw: list, where: str) -> list[VmDef]:
    vms = []
    for item in _typed(raw, list, where):
        _reject_unknown(_typed(item, dict, where), VmDef._fields, where)
        vm_id = _typed(item["vmId"], str, f"{where}: vmId")
        vm = VmDef(vm_id, _typed(item["slotCount"], int, f"{where}: VM {vm_id} slotCount"))
        if vm.slotCount < 1:
            raise ConfigError(f"{where}: VM {vm.vmId} slotCount must be >= 1")
        vms.append(vm)
    if len({vm.vmId for vm in vms}) != len(vms):
        raise ConfigError(f"{where}: duplicate vmId")
    return vms


def _resolve_schedule(raw, dag: DagDef, vms: list[VmDef], where: str) -> Schedule:
    tasks = [dag.task(tid) for tid in dag.topological_order()
             if tid not in dag.sourceTasks and tid not in dag.sinkTasks]
    # Checked before the ids are listed, so a huge instanceCount never is.
    needed, slots = sum(t.instanceCount for t in tasks), sum(vm.slotCount for vm in vms)
    if needed > slots:
        raise ConfigError(f"{where}: {needed} instances do not fit in {slots} slots")
    instances = [inst for t in tasks for inst in t.instance_ids()]
    if raw is None or raw == "roundRobin":
        return round_robin_placement(instances, vms)
    if not isinstance(raw, dict) or not isinstance(raw.get("placements"), dict):
        raise ConfigError(f"{where}: expected 'roundRobin' or {{\"placements\": {{...}}}}")
    _reject_unknown(raw, ("placements",), where)
    placements = {}
    for inst, loc in raw["placements"].items():
        if not isinstance(loc, (list, tuple)) or len(loc) != 2:
            raise ConfigError(f"{where}: placement of {inst} must be [vmId, slotIndex]")
        placements[inst] = (_typed(loc[0], str, f"{where}: placement of {inst}: vmId"),
                            _typed(loc[1], int, f"{where}: placement of {inst}: slot index"))
    schedule = Schedule(placements)
    schedule.validate(instances, vms)
    return schedule


def parse_scenario(doc: dict, name: str = "") -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _reject_unknown(doc, ScenarioConfig._fields, "scenario")

    dag_raw = doc.get("dag")
    if dag_raw is None:
        raise ConfigError("scenario: missing field dag")
    if isinstance(dag_raw, str):
        dag = load_bundled_dag(dag_raw)
    else:
        dag = parse_dag(dag_raw)

    try:
        vms_before = _parse_vms(doc["vmsBefore"], "vmsBefore")
        vms_after = _parse_vms(doc["vmsAfter"], "vmsAfter")
    except KeyError as exc:
        raise ConfigError(f"scenario: missing field {exc.args[0]}") from None

    config = ScenarioConfig(
        name=_typed(doc.get("name", name), str, "scenario field name"),
        dag=dag,
        vmsBefore=vms_before,
        vmsAfter=vms_after,
        scheduleBefore=_resolve_schedule(doc.get("scheduleBefore"), dag, vms_before, "scheduleBefore"),
        scheduleAfter=_resolve_schedule(doc.get("scheduleAfter"), dag, vms_after, "scheduleAfter"),
        strategy=_typed(doc.get("strategy", ""), str, "scenario field strategy").upper(),
        **_defaulted_fields(ScenarioConfig, doc, "scenario"),
    )
    validate_scenario(config)
    return config


def validate_scenario(config: ScenarioConfig) -> None:
    _require_valid_dag(config.dag)
    if config.strategy not in STRATEGIES:
        raise ConfigError(
            f"scenario field strategy: expected one of {'/'.join(STRATEGIES)}, "
            f"got {config.strategy!r}"
        )
    # NaN fails every comparison, and seconds that overflow as ms are inf.
    for field_name in ("sourceRate", "runDuration", "migrationTriggerAt", "ackTimeout"):
        if not 0 < getattr(config, field_name) * 1000 < math.inf:
            raise ConfigError(f"scenario field {field_name}: must be > 0 and finite")
    if to_ms(config.ackTimeout) == 0:
        # A 0 ms timeout would sweep for overdue roots at one instant forever.
        raise ConfigError(
            f"scenario field ackTimeout: {config.ackTimeout} s rounds to 0 ms; must be >= 1 ms")
    if not 0 <= config.rebalanceDuration * 1000 < math.inf or config.networkDelayMs < 0:
        raise ConfigError("scenario: durations must be non-negative and finite")
    for field_name in ("runDuration", "ackTimeout", "rebalanceDuration", "networkDelayMs",
                       "workerStartupMaxMs"):
        if getattr(config, field_name) * (1 if field_name.endswith("Ms") else 1000) >= MAX_MS:
            raise ConfigError(f"scenario field {field_name}: must be below 2**53 ms")
    if 1000 / config.sourceRate >= MAX_MS:
        raise ConfigError("scenario field sourceRate: its pacing period, 1000 / sourceRate, "
                          "must be below 2**53 ms")
    if config.runDuration * config.sourceRate >= MAX_ACTIONS:
        raise ConfigError(
            f"scenario: runDuration x sourceRate must be below {MAX_ACTIONS:,} source ticks, "
            f"the run's action budget (got {config.runDuration * config.sourceRate:,.0f})")
    if config.migrationTriggerAt >= config.runDuration:
        raise ConfigError(
            "scenario field migrationTriggerAt: must be < runDuration "
            f"({config.migrationTriggerAt} >= {config.runDuration})"
        )
    if config.workerStartupMinMs < 0:
        raise ConfigError("scenario field workerStartupMinMs: must be >= 0")
    if config.workerStartupMinMs > config.workerStartupMaxMs:
        raise ConfigError("scenario: workerStartupMinMs > workerStartupMaxMs")
    violations = validate_sizing(config.dag, config.sourceRate, RATE_PER_INSTANCE)
    if violations:
        raise ConfigError("under-provisioned dag: " + "; ".join(violations))


def load_scenario_file(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"scenario {path}: nested too deeply") from None
    return parse_scenario(doc, name=path.stem)


# ---------------------------------------------------------------------------
# Bundled topologies and scenarios


def _bundled_root():
    return resources.files("flowmigrate") / "scenarios"


@cache
def _bundled_names(folder: str) -> tuple[str, ...]:
    """The names of the JSON files in a folder of the bundled set, listed once."""
    return tuple(sorted(
        p.name[: -len(".json")]
        for p in (_bundled_root() / folder).iterdir()
        if p.name.endswith(".json")
    ))


def bundled_scenario_names() -> list[str]:
    return list(_bundled_names(""))


def bundled_dag_names() -> list[str]:
    return list(_bundled_names("dags"))


@cache  # a DagDef is immutable, so every scenario shares one parse
def load_bundled_dag(name: str) -> DagDef:
    # Checked before any file is opened: a name is not a path.  A rejected
    # name raises, so it is never cached.
    names = _bundled_names("dags")
    if name not in names:
        raise ConfigError(f"unknown bundled dag {name!r}; available: {', '.join(names)}")
    doc = json.loads((_bundled_root() / "dags" / f"{name}.json").read_text())
    return parse_dag(doc, name=name)


def load_bundled_scenario(name: str) -> ScenarioConfig:
    names = _bundled_names("")
    if name not in names:
        raise ConfigError(f"unknown bundled scenario {name!r}; available: {', '.join(names)}")
    doc = json.loads((_bundled_root() / f"{name}.json").read_text())
    return parse_scenario(doc, name=name)


def resolve_scenario(ref: str | Path) -> ScenarioConfig:
    """Load a scenario from a path, falling back to the bundled set.

    Accepts a filesystem path, a bare bundled name ('grid_scalein') or a
    path-shaped reference to a bundled file ('scenarios/grid_scalein.json').
    """
    path = Path(ref)
    try:
        is_path = path.exists()
    except (OSError, ValueError):  # too long to stat, or a NUL byte
        is_path = False
    if is_path:
        return load_scenario_file(path)
    stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    try:
        return load_bundled_scenario(stem)
    except ConfigError:
        raise ConfigError(f"scenario not found: {ref}") from None


def with_overrides(config: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Copy a config with selected fields replaced, re-validated."""
    updated = config._replace(**{k: v for k, v in overrides.items() if v is not None})
    validate_scenario(updated)
    return updated
