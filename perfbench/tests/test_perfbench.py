"""Tests of the benchmark itself: tracing must not change outputs, counters
must repeat, the correctness check must catch a corrupted timeline, metric
names must be well formed, and the speed sampler must clean up after itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import refspeed
from flowmigrate import metrics, runtime
from flowmigrate.model import load_bundled_scenario, with_overrides
from flowmigrate.runtime import run_scenario
from workloads import WORKLOADS, Workload, check_run, run_scenarios

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def short_configs(_seed=None):
    """Both acking regimes, shortened to a few seconds of host time."""
    base = load_bundled_scenario("diamond_scalein")
    return [with_overrides(base, strategy=s, runDuration=240.0, migrationTriggerAt=60.0)
            for s in ("DSM", "CCR")]


SHORT = Workload("short", short_configs, run_scenarios)


@pytest.fixture(scope="module")
def traced_pair():
    configs = SHORT.configs(None)
    plain, _ = harness.measure_pass(SHORT, configs)
    traced, tracer = harness.measure_pass(SHORT, configs, trace=True)
    return plain, traced, tracer


def test_traced_and_untraced_timelines_match(traced_pair):
    plain, traced, _ = traced_pair
    assert all(c.problem is None for c in plain.checks + traced.checks)
    assert [f["timeline_sha256"] for f in traced.fingerprints] == \
        [f["timeline_sha256"] for f in plain.fingerprints]
    assert traced.fingerprints == plain.fingerprints


def test_tracer_restores_the_program(traced_pair):
    assert runtime.SimulationEngine.run.__qualname__ == "SimulationEngine.run"
    assert metrics.compute_report.__module__ == "flowmigrate.metrics"
    assert metrics.compute_report.__qualname__ == "compute_report"


def test_counters_repeat_exactly(traced_pair):
    plain, _, tracer = traced_pair
    again, tracer_again = harness.measure_pass(SHORT, SHORT.configs(None), trace=True)
    assert again.fingerprints == plain.fingerprints
    counts = {k: v for k, v in tracer.layer_metrics(plain.fingerprints).items()
              if v[1] in ("count", "B", "ratio")}
    counts_again = {k: v for k, v in tracer_again.layer_metrics(again.fingerprints).items()
                    if v[1] in ("count", "B", "ratio")}
    assert counts == counts_again
    assert counts["runtime.actions"][0] == sum(f["actions"] for f in plain.fingerprints)
    assert counts["kernels.calendar.pushes"][0] == \
        sum(f["calendar_pushes"] for f in plain.fingerprints)


def test_corrupted_timeline_is_an_error():
    config = short_configs()[1]
    timeline, _ = run_scenario(config)
    report = metrics.compute_report(timeline, config)
    assert check_run(config, timeline, report) is None
    sink_exit = next(i for i, r in enumerate(timeline.records) if r.site == metrics.SINK_EXIT)
    del timeline.records[sink_exit]
    assert "exactly-once" in check_run(config, timeline, report)
    assert check_run(config, timeline, None) == "no report"


@pytest.fixture(scope="module")
def traced_run():
    """A full traced run, with its untraced reference run in a child process."""
    return harness.run_traced(WORKLOADS["chain50_delay"], 7)


def test_traced_run_matches_its_untraced_reference(traced_run):
    assert [c.name for c in traced_run.checks][-2:] == \
        ["untraced run", "traced pass equals untraced run"]
    assert not traced_run.failed
    assert traced_run.metrics["trace.overhead_ratio"][0] > 0


def test_metric_names_match_the_benchmark_definition(traced_run):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert set(traced_run.metrics) == set(per_layer)
    untraced = harness.run_untraced(WORKLOADS["chain50_delay"], 7, seconds=0)
    assert list(untraced.metrics) == end_to_end
    assert not untraced.failed


def test_sampler_rescales_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with refspeed.Sampler() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        elapsed = time.perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    # Three probes on each side and about one every 20 ms in between.
    assert len(speed.samples) > 6 + 3
    assert 0 < speed.host_s(elapsed) < elapsed
    scale = refspeed.REFERENCE_PROBE_S * (len(speed.samples) / sum(speed.samples))
    assert speed.to_reference(elapsed) == pytest.approx(speed.host_s(elapsed) * scale)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_dsm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
