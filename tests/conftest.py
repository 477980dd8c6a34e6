import hashlib

import pytest

from flowmigrate import acceptance
from flowmigrate.model import (
    DUPLICATE,
    DagDef,
    Edge,
    ScenarioConfig,
    TaskDef,
    VmDef,
    round_robin_placement,
    validate_scenario,
)
from flowmigrate.runtime import COMMIT, PREPARE

# pins.py asserts the checked-calendar conditions: show their operands too.
pytest.register_assert_rewrite("pins")


@pytest.fixture(scope="session")
def suite_cache():
    """One shared run cache for every test that needs full bundled runs."""
    return acceptance.RunCache()


def phase_times(engine) -> dict[str, int]:
    """``{phase name: ts}`` of the PHASE rows an engine recorded (the last
    row of a name wins)."""
    return {name: ts for _row, ts, name in engine.timeline.phases}


def behaviour_digest(timeline) -> str:
    """SHA-256 of what a run did, whatever the tie order: its sorted
    ``(site, rootSeqNo, epoch, replayed)`` rows, then its phases with
    their timestamps.  Event ids, row order and the timestamps of data
    rows are left out; a timeline pin covers those."""
    rows = sorted(zip(timeline.sites, timeline.root_seqs, timeline.epochs, timeline.replayed))
    digest = hashlib.sha256(repr(rows).encode())
    digest.update(repr([(ts, name) for _row, ts, name in timeline.phases]).encode())
    return digest.hexdigest()


def work_of(engine) -> tuple[int, int]:
    """Actions fired and calendar pushes of an engine so far."""
    return engine._actions, engine.clock._calendar._next_seq


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


def make_chain_dag(n_tasks: int = 3, stateful: tuple[int, ...] = (2,),
                   sink_instances: int = 1) -> DagDef:
    tasks = [TaskDef("src", serviceTimeMs=1)]
    edges = []
    prev = "src"
    for i in range(1, n_tasks + 1):
        tasks.append(TaskDef(f"T{i}", stateful=i in stateful))
        edges.append(Edge(prev, f"T{i}"))
        prev = f"T{i}"
    tasks.append(TaskDef("sink", instanceCount=sink_instances))
    edges.append(Edge(prev, "sink"))
    return DagDef("chain", tuple(tasks), tuple(edges), ("src",), ("sink",))


def fan_out_join_dag() -> DagDef:
    """src -> A, DUPLICATE to B and C, both joining at J (two paths)."""
    tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("A"), TaskDef("B", stateful=True),
             TaskDef("C"), TaskDef("J", stateful=True, instanceCount=2), TaskDef("sink"))
    edges = (Edge("src", "A"), Edge("A", "B", DUPLICATE), Edge("A", "C", DUPLICATE),
             Edge("B", "J"), Edge("C", "J"), Edge("J", "sink"))
    return DagDef("fanjoin", tasks, edges, ("src",), ("sink",))


def shuffle_split_dag() -> DagDef:
    """src -> A, SHUFFLE to B and C: B sees half the roots (path count 0.5)."""
    tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("A"), TaskDef("B", stateful=True),
             TaskDef("C"), TaskDef("sink"))
    edges = (Edge("src", "A"), Edge("A", "B"), Edge("A", "C"), Edge("B", "sink"),
             Edge("C", "sink"))
    return DagDef("split", tasks, edges, ("src",), ("sink",))


def selective_chain_dag(selectivity: float) -> DagDef:
    """src -> T1 (``selectivity`` children per event) -> T2 -> sink, with two
    T2 and two sink instances to share T1's output."""
    tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("T1", selectivity=selectivity),
             TaskDef("T2", stateful=True, instanceCount=2), TaskDef("sink", instanceCount=2))
    edges = (Edge("src", "T1"), Edge("T1", "T2"), Edge("T2", "sink"))
    return DagDef(f"sel{selectivity}", tasks, edges, ("src",), ("sink",))


def make_scenario(dag: DagDef, strategy: str = "DCR", *, run_s: float = 90,
                  trigger_s: float = 30, seed: int = 7,
                  startup_ms: tuple[int, int] = (1500, 2500),
                  identity: bool = False, **overrides) -> ScenarioConfig:
    """Small, fast scenario around a custom DAG (short run, quick startup)."""
    instances = [
        iid
        for tid in dag.topological_order()
        if tid not in dag.sourceTasks and tid not in dag.sinkTasks
        for iid in dag.task(tid).instance_ids()
    ]
    vms_before = [VmDef(f"a{i}", 2) for i in range((len(instances) + 1) // 2)]
    if identity:
        vms_after = vms_before
    else:
        vms_after = [VmDef(f"b{i}", 4) for i in range((len(instances) + 3) // 4)]
    config = ScenarioConfig(
        name=f"test-{dag.name}-{strategy.lower()}",
        dag=dag,
        vmsBefore=vms_before,
        vmsAfter=vms_after,
        scheduleBefore=round_robin_placement(instances, vms_before),
        scheduleAfter=round_robin_placement(instances, vms_after),
        strategy=strategy,
        runDuration=run_s,
        migrationTriggerAt=trigger_s,
        randomSeed=seed,
        workerStartupMinMs=startup_ms[0],
        workerStartupMaxMs=startup_ms[1],
    )
    config = config._replace(**overrides)
    validate_scenario(config)
    return config
