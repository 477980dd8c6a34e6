"""The benchmark's workloads: the scenario configs each one runs, one pass
of the workload, and the correctness checks applied to every pass.

All workloads are closed-loop: one client in this process runs the
simulations back to back on one thread, starting the next run only when
the previous one has finished and been checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Layer functions are called through their modules, so the tracer's
# wrappers see these calls too.
from flowmigrate import acceptance, metrics
from flowmigrate.model import bundled_scenario_names, load_bundled_scenario, with_overrides
from flowmigrate.runtime import run_scenario

# The one criterion that is red by design (see README); every other
# criterion is expected to pass.
EXPECTED_RED = frozenset({"total_migration_bound"})


@dataclass
class Check:
    """One correctness check; ``problem`` is None when it passed."""

    name: str
    problem: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int | None], list]
    run_pass: Callable[[list], list[Check]]
    uses_seed: bool = True
    # Whether each config can run (and be timed) on its own; reproduce's
    # pass is the whole acceptance plan and ignores its configs.
    per_config: bool = True


def _grid_dsm_configs(seed: int | None) -> list:
    # Bundled seeds are 401 and 402; a workload seed s maps to s and s + 1
    # so the two scenarios never share a random stream.
    seeds = (401, 402) if seed is None else (seed, seed + 1)
    return [
        with_overrides(load_bundled_scenario(name), strategy="DSM", randomSeed=s)
        for name, s in zip(("grid_scalein", "grid_scaleout"), seeds)
    ]


def _chain50_delay_configs(seed: int | None) -> list:
    base = load_bundled_scenario("linear50_stress")
    return [
        with_overrides(base, strategy=strategy, networkDelayMs=5,
                       randomSeed=base.randomSeed if seed is None else seed)
        for strategy in ("DCR", "CCR")
    ]


def _reproduce_configs(_seed: int | None) -> list:
    # The calibration targets are tied to the bundled seeds, so the
    # workload seed is ignored.
    return [load_bundled_scenario(name) for name in bundled_scenario_names()]


def check_run(config, timeline, report) -> str | None:
    """Audit one finished run; returns a description of the failure or None.

    DCR and CCR must deliver every root exactly once with zero replays;
    DSM must deliver every root at least once.
    """
    if report is None:
        return "no report"
    dsm = config.strategy == "DSM"
    failures = metrics.exactly_once_audit(timeline, config.dag, at_least=dsm)
    if failures:
        first = failures[0]
        return (f"{len(failures)} roots fail the "
                f"{'at-least-once' if dsm else 'exactly-once'} audit, first "
                f"root {first.rootSeqNo}: {first.observed}/{first.expected} sink exits")
    if not dsm and report.replayedCount:
        return f"{report.replayedCount} replays under {config.strategy}"
    return None


def run_scenarios(configs: list) -> list[Check]:
    """Run each config as `flowmigrate run` does: simulate, derive the
    report, render timeline.csv and report.json, then audit delivery."""
    checks = []
    for config in configs:
        name = f"{config.name}/{config.strategy}/seed={config.randomSeed}"
        try:
            timeline, _engine = run_scenario(config)
            report = metrics.compute_report(timeline, config)
            timeline.to_csv()
            report.to_json()
            problem = check_run(config, timeline, report)
        except Exception as exc:  # a crashed run is a failed check, not a crashed benchmark
            problem = f"raised {type(exc).__name__}: {exc}"
        checks.append(Check(name, problem))
    return checks


def run_reproduce(_configs: list) -> list[Check]:
    """The full acceptance plan on a fresh run cache; each criterion is one
    check that fails when its outcome differs from the expected one."""
    checks = []
    results = acceptance.run_all(acceptance.RunCache())
    for (key, _fn), result in zip(acceptance.ALL_CRITERIA, results):
        expected = key not in EXPECTED_RED
        problem = None
        if result.passed != expected:
            problem = f"{'passed' if result.passed else 'failed'}, expected the opposite"
        checks.append(Check(f"criterion {key}", problem))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen: see README.md in this directory.
        Workload("grid_dsm", _grid_dsm_configs, run_scenarios),
        Workload("chain50_delay", _chain50_delay_configs, run_scenarios),
        Workload("reproduce", _reproduce_configs, run_reproduce, uses_seed=False,
                 per_config=False),
    )
}
