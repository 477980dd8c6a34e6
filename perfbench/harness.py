"""Measurement loop: set-up probes, timed passes, fingerprints and metrics.

A pass runs a workload once, one unit at a time: each scenario config is a
unit, except in ``reproduce``, whose whole pass is one unit.  Every unit is
timed in host seconds and, through refspeed.py, at the reference speed.  An
untraced run repeats passes until the requested seconds have elapsed and
takes the mean over them; a traced run makes one traced pass and compares
it with an untraced run of the same inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import flowmigrate
import micro
import refspeed
from tracer import Observer, Tracer
from workloads import Check, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 11


@dataclass
class Pass:
    unit_s: list[float]
    unit_ref_s: list[float]
    checks: list[Check]
    fingerprints: list[dict]

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s)

    @property
    def actions(self) -> int:
        return sum(f["actions"] for f in self.fingerprints)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    checks: list[Check]
    record: dict
    # Host-time figures, printed and recorded beside the metrics.
    host: dict[str, tuple[float, str]]

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if c.problem is not None]


def measure_pass(workload: Workload, configs: list, trace: bool = False):
    """Run one pass; returns the Pass and the Tracer (None when untraced)."""
    units = [[config] for config in configs] if workload.per_config else [configs]
    unit_s, unit_ref_s, checks = [], [], []
    gc.collect()
    with Observer() as observer:
        tracer = Tracer(observer) if trace else None
        with tracer or nullcontext():
            for unit in units:
                with refspeed.Sampler() as speed:
                    start = time.perf_counter()
                    checks += workload.run_pass(unit)
                    elapsed = time.perf_counter() - start
                unit_s.append(speed.host_s(elapsed))
                unit_ref_s.append(speed.to_reference(elapsed))
    return Pass(unit_s, unit_ref_s, checks, observer.fingerprints()), tracer


def same_fingerprints(name: str, reference: list[dict], other: list[dict]) -> Check:
    """Determinism: the same inputs must give byte-identical outputs."""
    if reference == other:
        return Check(name)
    differing = sum(a != b for a, b in zip(reference, other))
    differing += abs(len(reference) - len(other))
    return Check(name, f"{differing} engine runs differ")


def setup_samples(workload: Workload, seed: int | None, probes: int) -> list[list[float]]:
    """Set-up times measured in fresh interpreters (see setup_probe.py),
    each as [host seconds, seconds at the reference speed]."""
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             "none" if seed is None else str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append([float(x) for x in done.stdout.split()[-2:]])
    return samples


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's source files, which
    identifies the code when there is no git checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            skip = {"__pycache__", "out"} & set(path.relative_to(top).parts)
            if path.is_file() and not skip and ".egg-info" not in str(path):
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def record_path(workload: Workload, seed: int | None, trace: bool) -> Path:
    return OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"


def environment() -> dict:
    git_sha = None
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": flowmigrate.active_backend(),
        "source_sha256": source_digest(),
    }


def run_untraced(workload: Workload, seed: int | None, seconds: float) -> Result:
    """Time passes for at least ``seconds``; ``wall_ref_s`` is the mean
    time of a pass at the reference speed.

    The host's speed drifts over minutes (see refspeed.py), so the gated
    times are rescaled to the reference speed.  The first pass warms up and
    is not timed when more follow; a ``reproduce`` pass outlasts any run,
    so its one pass is its time.  The set-up probes are split between the
    start and the end of the run.
    """
    configs = workload.configs(seed)
    setup = setup_samples(workload, seed, SETUP_PROBES // 2)
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(measure_pass(workload, configs)[0])
    setup += setup_samples(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    checks = [c for p in passes for c in p.checks]
    checks += [same_fingerprints(f"pass {i} equals pass 0", passes[0].fingerprints,
                                 p.fingerprints)
               for i, p in enumerate(passes[1:], 1)]
    timed = passes[1:] or passes
    wall_ref = statistics.fmean(sum(p.unit_ref_s) for p in timed)
    wall = statistics.fmean(p.wall_s for p in timed)
    # Every pass fires the same actions; the fingerprint checks hold them equal.
    actions = passes[0].actions
    metrics = {
        "setup_s": (statistics.median(ref for _host, ref in setup), "s"),
        "wall_ref_s": (wall_ref, "s"),
        "actions_per_ref_s": (actions / wall_ref, "1/s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    host = {
        "setup_host_s": (statistics.median(host for host, _ref in setup), "s"),
        "wall_s": (wall, "s"),
        "actions_per_s": (actions / wall, "1/s"),
    }
    record = {
        "setup_s": setup,
        "passes": [{"unit_s": p.unit_s, "unit_ref_s": p.unit_ref_s, "actions": p.actions}
                   for p in passes],
        "fingerprints": passes[0].fingerprints,
    }
    return Result(metrics, checks, record, host)


def run_traced(workload: Workload, seed: int | None) -> Result:
    """One traced pass, compared with an untraced run of the same inputs.

    The untraced run is a separate ``run.py --trace 0 --seconds 0`` process
    working alongside the traced pass, so a traced run takes about as long
    as the traced pass alone: a traced pass of ``reproduce`` plus an
    untraced one in series would come close to three minutes.
    """
    configs = workload.configs(seed)
    micro_seed = 0 if seed is None else seed
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
               "--seconds", "0", "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    untraced = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
    try:
        calendar_ns = micro.calendar_ns_per_op(micro_seed)
        acker_ns = micro.acker_ns_per_op(micro_seed)
        traced, tracer = measure_pass(workload, configs, trace=True)
        out, err = untraced.communicate(timeout=170)
    finally:
        if untraced.poll() is None:
            untraced.kill()
            untraced.wait()
    if untraced.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {err.strip()}")
    summary = json.loads(out.splitlines()[-1])
    plain = json.loads(record_path(workload, seed, trace=False).read_text())
    untraced_wall = plain["host"]["wall_s"]["value"]

    metrics = tracer.layer_metrics(traced.fingerprints)
    metrics["kernels.calendar.ns_per_op"] = (calendar_ns, "ns")
    metrics["kernels.acker.ns_per_op"] = (acker_ns, "ns")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced_wall, "ratio")
    checks = traced.checks + [
        Check("untraced run", f"{summary['failed']} of {summary['attempted']} checks failed"
              if summary["failed"] else None),
        same_fingerprints("traced pass equals untraced run", plain["fingerprints"],
                          traced.fingerprints),
    ]
    record = {
        "passes": [{"unit_s": traced.unit_s, "unit_ref_s": traced.unit_ref_s,
                    "actions": traced.actions}],
        "untraced_wall_s": untraced_wall,
        "fingerprints": traced.fingerprints,
        "aggregates": tracer.aggregate_records(),
        "spans": tracer.span_records(),
    }
    return Result(metrics, checks, record, {"wall_s": (traced.wall_s, "s")})


def write_record(workload: Workload, seed: int | None, trace: bool, seconds: float,
                 result: Result) -> Path:
    """Write the run's environment, fingerprints, checks and metrics as JSON."""
    OUT_DIR.mkdir(exist_ok=True)
    path = record_path(workload, seed, trace)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "host": {k: {"value": v, "unit": u} for k, (v, u) in result.host.items()},
        "attempted": len(result.checks),
        "failed": [{"check": c.name, "problem": c.problem} for c in result.failed],
        **result.record,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
