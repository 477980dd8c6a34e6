import importlib.util
import json
import sys
from importlib import resources
from pathlib import Path

import flowmigrate
from conftest import make_chain_dag, make_scenario
from flowmigrate import errors, reliability
from flowmigrate.metrics import SOURCE_EMIT, Timeline
from flowmigrate.model import load_bundled_scenario, with_overrides
from flowmigrate.runtime import SimulationEngine, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """Import a script from tools/ as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_scenarios_reproduces_bundled_files(tmp_path, monkeypatch):
    gen = load_tool("gen_scenarios")
    (tmp_path / "dags").mkdir()
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()

    bundled = resources.files("flowmigrate") / "scenarios"
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    assert len(written) == 12  # ten paper scenarios, the stress scenario, its dag
    for rel in written:
        assert (tmp_path / rel).read_bytes() == bundled.joinpath(*rel.parts).read_bytes(), rel


def test_engine_path_has_one_action_shape():
    # Calendar payloads are (fn, args); a functools.partial would be a second shape.
    src = ROOT / "src" / "flowmigrate"
    assert [p.name for p in sorted(src.glob("*.py")) if "partial" in p.read_text()] == []


def test_errors_are_the_two_kinds_the_cli_tells_apart():
    # ConfigError exits 2 and InvariantViolation exits 3; a third class
    # would be a failure the CLI cannot name.
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert sorted(classes) == ["ConfigError", "FlowMigrateError", "InvariantViolation"]


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark wraps program names from outside src/; a renamed or
    # deleted name breaks it, so install and remove its wrappers here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    run = SimulationEngine.run
    with tracer.Observer() as obs, tracer.Tracer(obs):
        assert SimulationEngine.run is not run
    assert SimulationEngine.run is run


def test_every_name_the_benchmark_wraps_resolves(monkeypatch):
    # tier-1 collects only tests/, so this is where a src/ change that drops
    # or renames a name the benchmark reads fails.  Entering the tracer
    # reads every name it wraps; an inherited method is wrapped on the
    # subclass and must be gone again on exit.  The kernel probes call the
    # kernels by name, the calendar's re-open path included.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import micro
    import tracer

    modules = [m for name, m in sys.modules.items() if name.startswith("flowmigrate")]
    owners = modules + [cls for m in modules for cls in vars(m).values() if isinstance(cls, type)]
    assert reliability.AckerService in owners
    before = [dict(vars(owner)) for owner in owners]
    with tracer.Tracer(tracer.Observer()):
        pass
    assert [dict(vars(owner)) for owner in owners] == before
    assert micro.calendar_ns_per_op(1, n=3000, repeats=1) > 0
    assert micro.acker_ns_per_op(1, n=3000, repeats=1) > 0


def test_benchmark_tracer_sees_every_push_and_action(monkeypatch):
    # The engine binds the calendar's push and pop once per run; a push
    # that bypasses EventCalendar.push, or a pop that drains a millisecond's
    # entries behind EventCalendar.pop, would escape the benchmark's
    # counters (pushes, peak_len, zero_delay_share).  The engine is built
    # before the tracer is installed, so run() must pick up the traced
    # methods itself.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    config = with_overrides(load_bundled_scenario("linear_scalein"), strategy="DCR")
    engine = SimulationEngine(config)
    with tracer.Observer() as obs, tracer.Tracer(obs) as traced:
        engine.run()
    layers = traced.layer_metrics(obs.fingerprints())
    assert layers["kernels.calendar.pushes"][0] == engine.clock._calendar._next_seq
    assert traced.stats["kernels.calendar.pop"][0] == engine.clock._calendar._next_seq
    assert layers["runtime.actions"][0] == engine._actions


def test_benchmark_tracer_counts_the_ccr_prepare_path(monkeypatch):
    # CCR's capture is the shared PREPARE step of a broadcast wave: the
    # benchmark's protocol and store counters must see it as before.  Each
    # wave folds its own XOR tree, and CCR acks no data: the acker is idle.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    config = make_scenario(make_chain_dag(3), "CCR", run_s=90, trigger_s=20)
    with tracer.Observer() as obs, tracer.Tracer(obs) as traced:
        run_scenario(config)
    layers = traced.layer_metrics(obs.fingerprints())
    counts = {name: layers[name][0] for name in (
        "protocol.control_events", "protocol.waves_started", "protocol.wave_copies",
        "reliability.store.prepares", "reliability.store.commits",
        "reliability.store.bytes_written", "reliability.acker.ops",
        "reliability.acker.peak_entries")}
    assert counts == {
        "protocol.control_events": 12, "protocol.waves_started": 3,
        "protocol.wave_copies": 20, "reliability.store.prepares": 4,
        "reliability.store.commits": 4, "reliability.store.bytes_written": 102,
        "reliability.acker.ops": 0, "reliability.acker.peak_entries": 0,
    }


def test_benchmark_kernel_probes_backend_and_row_deletion(monkeypatch):
    # Names the benchmark uses outside its tracer: the kernel probes, the
    # backend field of its environment record, and the row deletion of
    # its corrupted-timeline test.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import micro

    assert micro.calendar_ns_per_op(1, n=30, repeats=1) > 0
    assert micro.acker_ns_per_op(1, n=32, repeats=1) > 0
    assert flowmigrate.active_backend() == "pure"
    timeline = Timeline()
    timeline.record_emit(0, 1, 0, 0)
    timeline.record_sink_exit(300, 2, 0, 0, False)
    del timeline.records[1]
    assert [r.site for r in timeline.records] == [SOURCE_EMIT]


def perf_record(workload, seed, wall, prints, source="tree-a", host_wall=None):
    """A minimal untraced perfbench record; its host ``wall_s`` is
    ``host_wall``, by default twice ``wall``."""
    return {
        "workload": workload, "seed": seed, "trace": False,
        "environment": {"git_sha": "abc", "source_sha256": source,
                        "python": "3.11.7", "nproc": 2},
        "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": 40.0, "unit": "MB"}},
        "host": {"wall_s": {"value": 2 * wall if host_wall is None else host_wall,
                            "unit": "s"}},
        "failed": [],
        "passes": [{"actions": sum(f["actions"] for f in prints)}],
        "fingerprints": prints,
    }


def fingerprint(scenario, strategy, timeline, migrate=True, actions=100):
    return {"scenario": scenario, "strategy": strategy, "migrate": migrate,
            "timeline_sha256": timeline, "report_sha256": f"r-{timeline}" if migrate else None,
            "actions": actions, "calendar_pushes": actions, "timeline_records": 10}


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def test_bench_record_summarizes_samples(tmp_path, capsys):
    rec = load_tool("bench_record")
    out = tmp_path / "out"
    for seed, wall, host_wall in ((1, 1.0, 9.0), (2, 2.0, 7.0), (3, 4.0, 8.0),
                                  (4, 3.0, 6.0), (5, 5.0, 10.0)):
        prints = [fingerprint("chain", "DCR", f"t{seed}", actions=10 * seed)]
        write_json(out / f"chain50_delay-seed{seed}-trace0.json",
                   perf_record("chain50_delay", seed, wall, prints, host_wall=host_wall))
    # reproduce rewrites one file: each sample is a copy of the out folder.
    rerun = dict(fingerprint("lin", "DCR", "x"), report_sha256=None)  # no report made
    repro = [fingerprint("lin", "DCR", "x"), rerun,
             fingerprint("lin", "DCR", "y", migrate=False)]
    for k, wall in enumerate((16.0, 15.0)):
        write_json(tmp_path / f"repro{k}" / "reproduce-seedNone-trace0.json",
                   perf_record("reproduce", None, wall, repro))
    write_json(out / "chain50_delay-seed1-trace1.json", {"trace": True})  # ignored
    bench = tmp_path / "BENCH_1.json"

    dirs = [str(out), str(tmp_path / "repro0"), str(tmp_path / "repro1"), str(out)]
    assert rec.main([*dirs, "--label", "change", "--output", str(bench)]) == 0
    point = json.loads(bench.read_text())["points"]["change"]
    assert (point["git_sha"], point["source_sha256"], point["python"], point["nproc"]) == (
        "abc", "tree-a", "3.11.7", 2)
    chain = point["workloads"]["chain50_delay"]
    assert chain["samples"] == 5  # the folder passed twice counts once
    assert chain["metrics"]["wall_ref_s"] == {
        "unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "n": 5}
    # The host wall time's spread sits beside the gated metrics, not among them.
    assert chain["host"]["wall_s"] == {
        "unit": "s", "median": 8.0, "q1": 7.0, "q3": 9.0, "iqr": 2.0, "n": 5}
    assert "chain50_delay: wall_ref_s 3 [2, 4]  host wall_s 8 [7, 9]" in capsys.readouterr().out
    assert chain["counters_by_seed"]["3"] == {
        "actions": 30, "calendar_pushes": 30, "timeline_records": 10,
        "engine_runs": 1, "distinct_timelines": 1}
    reproduce = point["workloads"]["reproduce"]
    assert reproduce["samples"] == 2
    assert reproduce["metrics"]["wall_ref_s"]["median"] == 15.5
    assert reproduce["counters_by_seed"]["None"]["engine_runs"] == 3
    assert reproduce["counters_by_seed"]["None"]["distinct_timelines"] == 2
    assert point["bundled_hashes"] == {"lin/DCR": ["x", "r-x"]}

    # A second label joins the file; the first point stays.
    assert rec.main([str(tmp_path / "repro0"), "--label", "parent",
                     "--output", str(bench)]) == 0
    assert set(json.loads(bench.read_text())["points"]) == {"change", "parent"}


def test_bench_record_refuses_mixed_trees_and_unequal_runs(tmp_path, capsys):
    rec = load_tool("bench_record")
    prints = [fingerprint("chain", "DCR", "t")]
    write_json(tmp_path / "a" / "chain50_delay-seed1-trace0.json",
               perf_record("chain50_delay", 1, 1.0, prints))
    write_json(tmp_path / "b" / "chain50_delay-seed2-trace0.json",
               perf_record("chain50_delay", 2, 1.0, prints, source="tree-b"))
    bench = tmp_path / "BENCH.json"
    argv = ["--label", "x", "--output", str(bench)]
    assert rec.main([str(tmp_path / "a"), str(tmp_path / "b"), *argv]) == 2
    assert "source_sha256" in capsys.readouterr().err

    write_json(tmp_path / "c" / "chain50_delay-seed1-trace0.json",
               perf_record("chain50_delay", 1, 2.0, [fingerprint("chain", "DCR", "u")]))
    assert rec.main([str(tmp_path / "a"), str(tmp_path / "c"), *argv]) == 2
    assert "seed 1: samples differ in their runs" in capsys.readouterr().err
    assert rec.main([str(tmp_path / "none"), *argv]) == 2
    assert not bench.exists()


STUB_RUN = '''\
"""A stand-in for perfbench/run.py: writes one record per run, always to the
same path, with the next wall time from stub.json, and logs its arguments."""
import argparse
import json
import sys
import sys
from pathlib import Path

here = Path(__file__).resolve().parent
tree = here.parent
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
stub = json.loads((tree / "stub.json").read_text())
log = Path(stub["log"])
done = sum(line.startswith(stub["label"] + " ") for line in
           (log.read_text().splitlines() if log.exists() else []))
with log.open("a") as f:
    f.write(f"{stub['label']} {args.workload} {args.seed} {args.seconds} {args.trace}\\n")
if stub["walls"][done] is None:
    sys.exit(1)
record = stub["record"]
record["workload"] = args.workload
record["metrics"]["wall_ref_s"]["value"] = stub["walls"][done]
record["host"]["wall_s"]["value"] = stub["host_walls"][done]
(here / "out").mkdir(exist_ok=True)
path = here / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
path.write_text(json.dumps(record))
print(f"record: {path.relative_to(tree)}")
'''


def stub_tree(root, label, walls, log, host_walls=None):
    """A source tree whose benchmark is STUB_RUN, reading ``walls`` and
    ``host_walls`` (by default twice each wall) in turn."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    write_json(root / "BENCHMARK.json", {
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 3,
        "end_to_end": [{"name": "wall_ref_s", "unit": "s", "better": "lower"},
                       {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]})
    prints = [fingerprint("grid", "DSM", "t")]
    write_json(root / "stub.json", {
        "label": label, "walls": walls, "log": str(log),
        "host_walls": host_walls or [2 * (wall or 0) for wall in walls],
        "record": perf_record("grid_dsm", 7, 0.0, prints, source=label)})
    return root


def test_bench_pairs_alternates_and_keeps_every_record(tmp_path, capsys):
    pairs = load_tool("bench_pairs")
    rec = load_tool("bench_record")
    log = tmp_path / "runs.log"
    walls = {"parent": [1.0, 1.1, 0.9, 1.2, 1.0], "change": [0.8, 0.9, 1.15, 0.85, 0.82]}
    # Host time agrees with wall_ref_s in pairs 1, 3 and 4, and moves the
    # other way in pairs 2 and 5.
    host_walls = {"parent": [2.0, 2.0, 2.0, 2.0, 2.0], "change": [1.9, 2.1, 2.2, 1.5, 2.05]}
    trees = [str(stub_tree(tmp_path / label, label, walls[label], log, host_walls[label]))
             for label in walls]
    out = tmp_path / "pairs"
    assert pairs.main([*trees, "--workload", "grid_dsm", "--pairs", "5", "--seed", "7",
                       "--out", str(out)]) == 0

    # Parent first in odd pairs, change first in even ones, at run_seconds.
    order = ["parent", "change", "change", "parent", "parent", "change",
             "change", "parent", "parent", "change"]
    assert log.read_text().splitlines() == [f"{label} grid_dsm 7 3 0" for label in order]
    # Every run's record is kept, though each run rewrote the same path.
    for label, values in walls.items():
        for i, wall in enumerate(values, start=1):
            doc = json.loads(
                (out / "grid_dsm" / label / str(i) / "grid_dsm-seed7-trace0.json").read_text())
            assert doc["metrics"]["wall_ref_s"]["value"] == wall
    report = capsys.readouterr().out
    assert "failed checks parent 0, change 0" in report
    wall_line, = (line for line in report.splitlines() if line.startswith("wall_ref_s"))
    assert "parent 1 [1, 1.1]  change 0.85 [0.82, 0.9]" in wall_line
    assert "change won 4/5 pairs (under 9 in 10)" in wall_line
    assert "median gap 0.15 exceeds parent IQR 0.1" in wall_line
    rss_line, = (line for line in report.splitlines() if line.startswith("peak_rss_mb"))
    assert "change won 0/5 pairs" in rss_line and "within parent IQR 0" in rss_line
    host_line, = (line for line in report.splitlines() if line.startswith("host wall_s"))
    assert "parent 2 [2, 2]  change 2.05 [1.9, 2.1]  change won 2/5 pairs" in host_line
    # A change worse by more than the parent's spread reads as such.
    assert "median gap -0.05 exceeds parent IQR 0" in host_line
    assert "pair 2 change: wall_ref_s 0.9, peak_rss_mb 40, host wall_s 2.1" in report
    assert "pairs whose wall_s and wall_ref_s gaps disagree in sign: 2, 5\n" in report
    # Host time stayed flat while wall_ref_s fell: the probe's ratio moved.
    ratio_line, = (line for line in report.splitlines() if line.startswith("probe ratio"))
    assert ratio_line == ("probe ratio (host wall_s / wall_ref_s): parent 2 [1.818, 2]  "
                          "change 2.333 [1.913, 2.375]  median gap 0.3333 vs parent IQR "
                          "0.1818: FLAGGED: the reference probe, not the program, may carry "
                          "the wall_ref_s gap")

    # The copies feed bench_record as they are.
    bench = tmp_path / "BENCH.json"
    assert rec.main([str(out / "grid_dsm" / "change"), "--label", "change",
                     "--output", str(bench)]) == 0
    point = json.loads(bench.read_text())["points"]["change"]
    assert point["workloads"]["grid_dsm"]["metrics"]["wall_ref_s"]["median"] == 0.85
    assert point["workloads"]["grid_dsm"]["samples"] == 5


def test_bench_pairs_runs_each_workloads_pairs_in_turn(tmp_path, capsys):
    pairs = load_tool("bench_pairs")
    rec = load_tool("bench_record")
    log = tmp_path / "runs.log"
    walls = {"parent": [1.0, 1.2, 3.0, 3.2], "change": [0.9, 1.1, 2.9, 3.1]}
    trees = [str(stub_tree(tmp_path / label, label, walls[label], log)) for label in walls]
    out = tmp_path / "pairs"
    assert pairs.main([*trees, "--workload", "grid_dsm", "chain50_delay", "--pairs", "2",
                       "--seed", "7", "--out", str(out)]) == 0

    # One workload's pairs, then the next's, each alternating.
    order = [(w, label) for w in ("grid_dsm", "chain50_delay")
             for label in ("parent", "change", "change", "parent")]
    assert log.read_text().splitlines() == [f"{label} {w} 7 3 0" for w, label in order]
    for w, runs in (("grid_dsm", slice(0, 2)), ("chain50_delay", slice(2, 4))):
        for label, values in walls.items():
            for i, wall in enumerate(values[runs], start=1):
                doc = json.loads((out / w / label / str(i) / f"{w}-seed7-trace0.json").read_text())
                assert doc["metrics"]["wall_ref_s"]["value"] == wall
    # Each workload gets its own verdicts.
    report = capsys.readouterr().out
    assert "grid_dsm seed=7: 2 pairs, failed checks parent 0, change 0" in report
    assert "chain50_delay seed=7: 2 pairs, failed checks parent 0, change 0" in report
    wall_lines = [line for line in report.splitlines() if line.startswith("wall_ref_s")]
    assert [line.split("  change won ")[1][:3] for line in wall_lines] == ["2/2", "2/2"]
    assert "parent 1.1 [1.05, 1.15]" in wall_lines[0]
    assert "parent 3.1 [3.05, 3.15]" in wall_lines[1]

    # One bench_record call takes every workload's copies for a label.
    bench = tmp_path / "BENCH.json"
    assert rec.main([*(str(out / w / "parent") for w in ("grid_dsm", "chain50_delay")),
                     "--label", "parent", "--output", str(bench)]) == 0
    point = json.loads(bench.read_text())["points"]["parent"]
    assert {w: v["metrics"]["wall_ref_s"]["median"] for w, v in point["workloads"].items()} \
        == {"grid_dsm": 1.1, "chain50_delay": 3.1}


def test_bench_pairs_probe_ratio_flags_only_a_shift_past_the_parent_iqr():
    pairs = load_tool("bench_pairs")

    def docs(ratios, ref=0.5):
        return [{"metrics": {"wall_ref_s": {"value": ref}},
                 "host": {"wall_s": {"value": ratio * ref}}} for ratio in ratios]

    parent = docs([1.40, 1.45, 1.50, 1.55, 1.60])  # median 1.5, IQR 0.1
    # The program got faster on both clocks: the ratio holds.
    same = pairs.probe_ratio(parent, docs([1.42, 1.47, 1.52, 1.57, 1.62], ref=0.4))
    assert same.endswith("median gap 0.02 vs parent IQR 0.1: within")
    assert same.startswith(
        "probe ratio (host wall_s / wall_ref_s): parent 1.5 [1.45, 1.55]  change 1.52 ")
    # The probe read slow on the change's side: the ratio rose past the IQR.
    shifted = pairs.probe_ratio(parent, docs([1.60, 1.65, 1.70, 1.75, 1.80]))
    assert "median gap 0.2 vs parent IQR 0.1: FLAGGED" in shifted
    assert "median gap -0.2 " in pairs.probe_ratio(parent, docs([1.2, 1.25, 1.3, 1.35, 1.4]))


def test_bench_pairs_stops_on_a_failed_run(tmp_path, capsys):
    pairs = load_tool("bench_pairs")
    log = tmp_path / "runs.log"
    parent = stub_tree(tmp_path / "parent", "parent", [1.0, 1.0], log)
    change = stub_tree(tmp_path / "change", "change", [None], log)
    assert pairs.main([str(parent), str(change), "--workload", "grid_dsm", "--pairs", "2",
                       "--out", str(tmp_path / "pairs")]) == 2
    assert "exited 1" in capsys.readouterr().err
    assert log.read_text().splitlines() == ["parent grid_dsm None 3 0", "change grid_dsm None 3 0"]
