"""Reproduction suite: the acceptance checks behind `flowmigrate reproduce`.

Each criterion runs against the ten paper scenarios (five topologies,
scale-in and scale-out) under all three strategies; the drain-vs-capture
criterion adds the 50-task ``linear50_stress`` scenario.  One shared run
cache makes each migrated run once, and no criterion runs a simulation
without a migration: the state-correctness reference is the closed form
that the scenario and its dataflow fix.  Results are plain data; the CLI
and the test suite render them.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, NamedTuple

from .metrics import (
    SINK_EXIT,
    MetricsReport,
    Timeline,
    compute_report,
    exactly_once_audit,
    replay_bursts,
)
from .model import (
    STRATEGIES,
    ScenarioConfig,
    compute_cumulative_rates,
    load_bundled_scenario,
    path_multiplicity,
    to_ms,
    with_overrides,
)
from .reliability import AckerService
from .runtime import IDLE_BEFORE_TRIGGER, SimulationEngine, emission_time

SCENARIOS = (
    "linear_scalein", "linear_scaleout",
    "diamond_scalein", "diamond_scaleout",
    "star_scalein", "star_scaleout",
    "grid_scalein", "grid_scaleout",
    "traffic_scalein", "traffic_scaleout",
)
STRESS_SCENARIO = "linear50_stress"

APPLICATION_DAGS = ("grid", "traffic")

# Grid scale-in restore targets (ms) and the relative tolerance band.
RESTORE_TARGETS = {"CCR": 15_000, "DCR": 41_000, "DSM": 91_000}
RESTORE_TOLERANCE = 0.5
TOTAL_BOUND_FAST_MS = 50_000
TOTAL_BOUND_SLOW_MS = 100_000
STRESS_GAP_MIN_MS = 2_200
SPIKE_SPACING_SLACK_MS = 2_000
ORACLE_TREES = 1000
ORACLE_SEED = 20_240_613
DETERMINISM_SCENARIO = "diamond_scalein"


class RunResult(NamedTuple):
    """One finished run; ``actions`` and ``pushes`` are the engine's work,
    its actions fired and its calendar pushes."""

    config: ScenarioConfig
    timeline: Timeline
    report: MetricsReport
    stateful_counts: dict[str, int]
    kill_snapshots: dict[str, int]
    restore_snapshots: dict[str, int]
    actions: int
    pushes: int


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    details: list[str]

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"


class RunCache:
    """Lazily executes and memoizes the migrated scenario runs of the suite:
    each scenario is parsed once, and each (scenario, strategy) pair runs
    once.  ``scenarios`` maps names to configs already loaded; any other
    name is a bundled scenario.  DCR and CCR share their run up to the
    migration trigger: the first of the two requested runs that prefix and
    forks the other there (see SimulationEngine.fork_at_trigger), which the
    cache holds until it is requested."""

    def __init__(self, scenarios: dict[str, ScenarioConfig] | None = None) -> None:
        self._runs: dict[tuple[str, str], RunResult] = {}
        self._scenarios: dict[str, ScenarioConfig] = dict(scenarios or {})  # parsed once per name
        self._twins: dict[tuple[str, str], SimulationEngine] = {}  # held at the trigger

    def get(self, scenario: str, strategy: str) -> RunResult:
        run = self._runs.get((scenario, strategy))
        if run is None:
            engine = self._twins.pop((scenario, strategy), None)
            if engine is None:
                base = self._scenarios.get(scenario)
                if base is None:
                    base = self._scenarios[scenario] = load_bundled_scenario(scenario)
                engine = SimulationEngine(with_overrides(base, strategy=strategy))
                if strategy in IDLE_BEFORE_TRIGGER:
                    for other in sorted(IDLE_BEFORE_TRIGGER - {strategy}):
                        self._twins[scenario, other] = engine.fork_at_trigger(other)
            timeline = engine.run()
            config = engine.config
            run = self._runs[scenario, strategy] = RunResult(
                config=config,
                timeline=timeline,
                report=compute_report(timeline, config),
                stateful_counts={tid: sum(engine.instances[i].state.processedCount for i in ids)
                                 for tid, ids in engine.instances_of.items()
                                 if engine.dag.task(tid).stateful},
                kill_snapshots=engine.kill_snapshots,
                restore_snapshots=engine.restore_snapshots,
                actions=engine._actions,
                pushes=engine.clock._calendar._next_seq,
            )
        return run


def check_zero_loss(cache: RunCache) -> CriterionResult:
    """DCR and CCR: no replays, exactly one sink arrival per root and path."""
    details = []
    passed = True
    for scenario in SCENARIOS:
        for strategy in ("DCR", "CCR"):
            run = cache.get(scenario, strategy)
            replays = run.report.replayedCount
            failures = exactly_once_audit(run.timeline, run.config.dag)
            mult = path_multiplicity(run.config.dag)
            ok = replays == 0 and not failures
            passed &= ok
            details.append(
                f"{scenario}/{strategy}: replays={replays} auditFailures={len(failures)} "
                f"multiplicity={mult}"
            )
    return CriterionResult("zero-loss (DCR/CCR exact delivery)", passed, details)


def check_dsm_at_least_once(cache: RunCache) -> CriterionResult:
    """DSM never loses a root; replay counts follow the DAG-size trend."""
    details = []
    passed = True
    replay_by_scenario = {}
    for scenario in SCENARIOS:
        run = cache.get(scenario, "DSM")
        failures = exactly_once_audit(run.timeline, run.config.dag, at_least=True)
        replays = run.report.replayedCount
        replay_by_scenario[scenario] = replays
        ok = not failures and replays > 0
        passed &= ok
        details.append(f"{scenario}: lostRoots={len(failures)} replays={replays}")
    for direction in ("scalein", "scaleout"):
        grid = replay_by_scenario[f"grid_{direction}"]
        linear = replay_by_scenario[f"linear_{direction}"]
        ok = grid > linear
        passed &= ok
        details.append(f"{direction}: replays grid={grid} > linear={linear}: {ok}")
    return CriterionResult("DSM at-least-once and replay trend", passed, details)


def check_restore_ordering(cache: RunCache) -> CriterionResult:
    """restore(CCR) < restore(DCR) < restore(DSM); Grid scale-in near paper."""
    details = []
    passed = True
    for scenario in SCENARIOS:
        restores = {
            strategy: cache.get(scenario, strategy).report.restoreDurationMs
            for strategy in STRATEGIES
        }
        ok = restores["CCR"] < restores["DCR"] < restores["DSM"]
        passed &= ok
        details.append(
            f"{scenario}: CCR={restores['CCR']} DCR={restores['DCR']} DSM={restores['DSM']}"
        )
    for strategy, target in RESTORE_TARGETS.items():
        observed = cache.get("grid_scalein", strategy).report.restoreDurationMs
        lo = target * (1 - RESTORE_TOLERANCE)
        hi = target * (1 + RESTORE_TOLERANCE)
        ok = lo <= observed <= hi
        passed &= ok
        details.append(
            f"grid_scalein {strategy}: restore {observed}ms within ±50% of {target}ms: {ok}"
        )
    return CriterionResult("restore ordering and grid scale-in calibration", passed, details)


def check_total_migration_bound(cache: RunCache) -> CriterionResult:
    """CCR finishes restore+catchup+stabilization within 50 s on application
    DAGs while DSM exceeds 100 s."""
    details = []
    passed = True
    for dag in APPLICATION_DAGS:
        for direction in ("scalein", "scaleout"):
            scenario = f"{dag}_{direction}"
            ccr = cache.get(scenario, "CCR").report
            ccr_marks = [ccr.restoreDurationMs, ccr.catchupTimeMs, ccr.stabilizationTimeMs]
            ccr_ok = all(m is not None and m <= TOTAL_BOUND_FAST_MS for m in ccr_marks)
            dsm = cache.get(scenario, "DSM").report
            dsm_marks = [m for m in (dsm.restoreDurationMs, dsm.catchupTimeMs,
                                     dsm.stabilizationTimeMs) if m is not None]
            # Stabilization beyond the run end exceeds the bound by itself.
            dsm_ok = dsm.stabilizationTimeMs is None or (
                bool(dsm_marks) and max(dsm_marks) > TOTAL_BOUND_SLOW_MS
            )
            passed &= ccr_ok and dsm_ok
            details.append(
                f"{scenario}: CCR markers {ccr_marks} <= {TOTAL_BOUND_FAST_MS}: {ccr_ok}; "
                f"DSM max {max(dsm_marks) if dsm_marks else None} > {TOTAL_BOUND_SLOW_MS}: {dsm_ok}"
            )
    return CriterionResult("total migration bound (CCR 50s / DSM 100s)", passed, details)


def check_drain_vs_capture(cache: RunCache) -> CriterionResult:
    """drain(DCR) > capture(CCR) everywhere; Linear-50 gap at least 2.2 s."""
    details = []
    passed = True
    for scenario in SCENARIOS:
        drain = cache.get(scenario, "DCR").report.drainCaptureDurationMs
        capture = cache.get(scenario, "CCR").report.drainCaptureDurationMs
        ok = drain > capture
        passed &= ok
        details.append(f"{scenario}: drain={drain} > capture={capture}: {ok}")
    drain = cache.get(STRESS_SCENARIO, "DCR").report.drainCaptureDurationMs
    capture = cache.get(STRESS_SCENARIO, "CCR").report.drainCaptureDurationMs
    gap = drain - capture
    ok = gap >= STRESS_GAP_MIN_MS
    passed &= ok
    details.append(f"{STRESS_SCENARIO}: gap {gap}ms >= {STRESS_GAP_MIN_MS}ms: {ok}")
    return CriterionResult("drain exceeds capture (incl. 50-task stress)", passed, details)


def check_dcr_boundary(cache: RunCache) -> CriterionResult:
    """Every pre-migration sink exit precedes every post-migration one."""
    details = []
    passed = True
    for scenario in SCENARIOS:
        run = cache.get(scenario, "DCR")
        timeline = run.timeline
        last_old = None
        first_new = None
        for ts, epoch in timeline.select(SINK_EXIT, zip(timeline.ts, timeline.epochs)):
            if epoch == 0:
                last_old = ts if last_old is None else max(last_old, ts)
            elif first_new is None:
                first_new = ts
        ok = last_old is not None and first_new is not None and last_old < first_new
        passed &= ok
        details.append(f"{scenario}: lastEpoch0={last_old} < firstEpoch1={first_new}: {ok}")
    return CriterionResult("DCR epoch boundary at the sink", passed, details)


def check_xor_acker_oracle() -> CriterionResult:
    """Random causal trees vs independent set-based bookkeeping."""
    rng = random.Random(ORACLE_SEED)
    mismatches = 0
    for _ in range(ORACLE_TREES):
        acker = AckerService()
        root = rng.getrandbits(64) or 1
        acker.register_root(root, 0)
        outstanding = {root}  # the oracle: exact set of un-acked event ids
        n_events = rng.randint(0, 64)
        to_anchor = [rng.getrandbits(64) or 1 for _ in range(n_events)]
        ackable = [root]
        while to_anchor or ackable:
            # Feasible traces only: new events are anchored while the tree
            # is still live, so never ack the last outstanding event while
            # anchors remain.
            do_anchor = to_anchor and (len(ackable) <= 1 or rng.random() < 0.5)
            if do_anchor:
                event = to_anchor.pop()
                acker.anchor_emit(root, event)
                outstanding.add(event)
                ackable.append(event)
            else:
                event = ackable.pop(rng.randrange(len(ackable)))
                acker.ack_event(root, event)
                outstanding.discard(event)
            zero = acker.is_completed(root) or acker.hash_of(root) == 0
            if zero != (not outstanding):
                mismatches += 1
                break
        if not acker.is_completed(root):
            mismatches += 1
    passed = mismatches == 0
    return CriterionResult(
        "XOR acker matches set-based oracle",
        passed,
        [f"{ORACLE_TREES} random trees, mismatches={mismatches}"],
    )


def check_stabilization(cache: RunCache) -> CriterionResult:
    """DSM stabilizes last; its input shows ~ackTimeout-spaced replay spikes.

    A strategy whose output never re-enters the stability band before the
    run ends has a stabilization point beyond the horizon, which is later
    than any in-run value (DSM hits this on the 12-minute runs).
    """
    details = []
    passed = True
    for scenario in SCENARIOS:
        stab = {strategy: cache.get(scenario, strategy).report.stabilizationTimeMs
                for strategy in STRATEGIES}
        run = cache.get(scenario, "DSM")
        dsm = stab["DSM"] if stab["DSM"] is not None else to_ms(run.config.runDuration) + 1
        ok = (stab["DCR"] is not None and stab["CCR"] is not None
              and dsm >= max(stab["DCR"], stab["CCR"]))
        passed &= ok
        details.append(
            f"{scenario}: stab CCR={stab['CCR']} DCR={stab['DCR']} "
            f"DSM={stab['DSM'] if stab['DSM'] is not None else 'beyond run end'}"
        )

        bursts = replay_bursts(run.timeline, since=run.timeline.request_ts())
        spacings = [b[0] - a[0] for a, b in zip(bursts, bursts[1:])]
        timeout_ms = to_ms(run.config.ackTimeout)
        good = [s for s in spacings if abs(s - timeout_ms) <= SPIKE_SPACING_SLACK_MS]
        ok = len(good) >= 1
        passed &= ok
        details.append(
            f"{scenario}: DSM replay bursts={len(bursts)}, "
            f"spacings near {timeout_ms}ms: {len(good)}"
        )
    return CriterionResult("stabilization ordering and DSM replay spikes", passed, details)


def check_determinism(cache: RunCache) -> CriterionResult:
    """Same scenario and seed twice: byte-identical timeline CSV.

    The first run is the cached one; only the second is computed here.
    The cached CCR run is the twin forked from the scenario's DCR run at
    its migration trigger, so this also checks a fork against a run from
    scratch.
    """
    cached = cache.get(DETERMINISM_SCENARIO, "CCR")
    fresh = SimulationEngine(cached.config).run()
    passed = cached.timeline.to_csv() == fresh.to_csv()
    return CriterionResult(
        "determinism (byte-identical timelines)",
        passed,
        [f"{DETERMINISM_SCENARIO}/CCR run twice: identical={passed}"],
    )


def baseline_counts(config: ScenarioConfig) -> tuple[dict[str, int], list[str]]:
    """Final count of each stateful task had the run not migrated: every
    root emitted before the run's end, once per source-to-task path (the
    rule ``path_multiplicity`` applies at the sink).  The rule needs unit
    selectivity upstream and an integral path count; each stateful task
    it does not cover gets a detail naming it, never a count."""
    dag = config.dag
    end_ms = to_ms(config.runDuration)
    roots = next(k for k in itertools.count() if emission_time(k, config.sourceRate) >= end_ms)
    paths = compute_cumulative_rates(dag, 1.0)
    upstream: dict[str, set[str]] = {tid: set() for tid in paths}
    counts, uncovered = {}, []
    out = dag.out_edge_lists()
    for tid in dag.topological_order():
        for e in out.get(tid, ()):
            upstream[e.toTask] |= upstream[tid] | {tid}
        if tid in dag.sourceTasks or not dag.task(tid).stateful:
            continue
        skewed = sorted(u for u in upstream[tid]
                        if u not in dag.sourceTasks and dag.task(u).selectivity != 1)
        if skewed:
            uncovered.append(f"{tid}: no closed-form count, selectivity != 1 upstream at {', '.join(skewed)}")
        elif abs(paths[tid] - round(paths[tid])) > 1e-9:
            uncovered.append(f"{tid}: no closed-form count, non-integral path count {paths[tid]:g}")
        else:
            counts[tid] = roots * round(paths[tid])
    return counts, uncovered


def check_state_correctness(cache: RunCache) -> CriterionResult:
    """Stateful task counts against the closed-form baseline: exact for
    DCR/CCR; bounded rollback then at-least-baseline for DSM."""
    # Deferred: importing this module should not load the protocol layer.
    from .protocol import CHECKPOINT_INTERVAL_MS

    details = []
    passed = True
    for scenario in SCENARIOS:
        run = cache.get(scenario, "DSM")
        base, uncovered = baseline_counts(run.config)
        passed &= not uncovered
        details.extend(f"{scenario}: {why}" for why in uncovered)
        for strategy in ("DCR", "CCR"):
            counts = cache.get(scenario, strategy).stateful_counts
            ok = counts == base
            passed &= ok
            details.append(f"{scenario}/{strategy}: counts {counts} == baseline {base}: {ok}")
        rates = compute_cumulative_rates(run.config.dag, run.config.sourceRate)
        for task_id in run.stateful_counts:
            instances = run.config.dag.task(task_id).instance_ids()
            killed = sum(run.kill_snapshots.get(i, 0) for i in instances)
            restored = sum(run.restore_snapshots.get(i, 0) for i in instances)
            rollback = killed - restored
            bound = CHECKPOINT_INTERVAL_MS / 1000 * rates[task_id]
            ok = 0 <= rollback <= bound
            passed &= ok
            details.append(f"{scenario}/DSM {task_id}: rollback {rollback} within [0, {bound:g}]: {ok}")
        for task_id, final in run.stateful_counts.items():
            expected = base.get(task_id)
            ok = expected is not None and final >= expected
            passed &= ok
            details.append(f"{scenario}/DSM {task_id}: final {final} >= baseline {expected}: {ok}")
    return CriterionResult("state correctness across migration", passed, details)


ALL_CRITERIA = (
    ("zero_loss", check_zero_loss),
    ("dsm_at_least_once", check_dsm_at_least_once),
    ("restore_ordering", check_restore_ordering),
    ("total_migration_bound", check_total_migration_bound),
    ("drain_vs_capture", check_drain_vs_capture),
    ("dcr_boundary", check_dcr_boundary),
    ("xor_acker_oracle", lambda cache: check_xor_acker_oracle()),
    ("stabilization", check_stabilization),
    ("determinism", check_determinism),
    ("state_correctness", check_state_correctness),
)


def run_all(cache: RunCache) -> Iterator[CriterionResult]:
    """Each criterion's result, in ALL_CRITERIA order, as it finishes."""
    return (fn(cache) for _name, fn in ALL_CRITERIA)
