import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from flowmigrate.cli import main
from flowmigrate.errors import InvariantViolation
from flowmigrate.metrics import CSV_CHUNK_ROWS
from flowmigrate.model import bundled_scenario_names, load_bundled_scenario, with_overrides
from flowmigrate.runtime import SimulationEngine, run_scenario


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def no_engine_runs(monkeypatch):
    """Fail any simulation, a run to the migration trigger included: the
    command must refuse before it runs one."""
    def run(_engine, *_args):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(SimulationEngine, "run", run)
    monkeypatch.setattr(SimulationEngine, "fork_at_trigger", run)


def defective_linear_dag(defect: str) -> dict:
    """The bundled linear dag document with one defect the loader rejects:
    ``"dead_end"`` adds a task ``dead`` that T2 feeds and that feeds
    nothing; ``"unknown_edge_end"`` adds an edge from T2 to an undeclared
    task ``nowhere``; ``"two_sources"`` adds a second source ``src2``
    feeding T1."""
    doc = json.loads((resources.files("flowmigrate") / "scenarios" / "dags" / "linear.json")
                     .read_text())
    if defect == "dead_end":
        doc["tasks"].append({"taskId": "dead"})
        doc["edges"].append({"fromTask": "T2", "toTask": "dead"})
    elif defect == "unknown_edge_end":
        doc["edges"].append({"fromTask": "T2", "toTask": "nowhere"})
    else:
        doc["tasks"].append({"taskId": "src2", "serviceTimeMs": 1})
        doc["edges"].append({"fromTask": "src2", "toTask": "T1"})
        doc["sourceTasks"].append("src2")
    return doc


def files_under(path: Path) -> list[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file())


@pytest.fixture()
def quick_scenario(tmp_path):
    """A fast file-based scenario for CLI round trips."""
    doc = {
        "name": "cli-quick",
        "dag": "linear",
        "strategy": "CCR",
        "vmsBefore": [{"vmId": "a1", "slotCount": 3}, {"vmId": "a2", "slotCount": 3}],
        "vmsAfter": [{"vmId": "b1", "slotCount": 5}],
        "runDuration": 120,
        "migrationTriggerAt": 30,
        "workerStartupMinMs": 1500,
        "workerStartupMaxMs": 2500,
        "randomSeed": 11,
    }
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_writes_timeline_and_report(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 0
        assert (out / "timeline.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "CCR"
        assert report["replayedCount"] == 0
        assert "wrote" in capsys.readouterr().out

    def test_rerun_same_seed_byte_identical(self, quick_scenario, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("run", str(quick_scenario), "--out", str(out1))
        run_cli("run", str(quick_scenario), "--out", str(out2))
        assert (out1 / "timeline.csv").read_bytes() == (out2 / "timeline.csv").read_bytes()

    def test_output_dir_append_only(self, quick_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 0
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 2

    def test_existing_output_refused_before_the_run(self, quick_scenario, tmp_path,
                                                    no_engine_runs, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").write_text("{}")
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 2
        assert "report.json already exists" in capsys.readouterr().err
        assert files_under(out) == [out / "report.json"]
        assert (out / "report.json").read_text() == "{}"

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dag": "linear", "strategy": "XYZ",
                                   "vmsBefore": [], "vmsAfter": []}))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_non_string_vm_id_exits_2(self, tmp_path, capsys):
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc["vmsBefore"][0]["vmId"] = 7
        bad = tmp_path / "numeric-vm.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2
        assert "vmId: expected str, got 7" in capsys.readouterr().err

    def test_negative_worker_startup_exits_2(self, tmp_path, capsys):
        # Rejected at load: a respawn scheduled before its rebalance ended
        # once crashed the run with an invariant breach (exit 3).
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc.update(strategy="DCR", workerStartupMinMs=-5000, workerStartupMaxMs=-1000)
        bad = tmp_path / "negative-startup.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2
        assert "workerStartupMinMs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rolled_back_migration_is_reported(self, quick_scenario, tmp_path):
        # A 0.5 s ack timeout expires the sequential PREPARE wave, so DCR
        # rolls back before any rebalance: a report, not a crash.
        out = tmp_path / "rolled-back"
        assert run_cli("run", str(quick_scenario), "--strategy", "dcr",
                       "--ack-timeout", "0.5", "--out", str(out)) == 0
        timeline = (out / "timeline.csv").read_text()
        assert ",REQUEST\n" in timeline and "REBALANCE_START" not in timeline
        report = json.loads((out / "report.json").read_text())
        for field in ("restoreDurationMs", "drainCaptureDurationMs", "rebalanceDurationMs"):
            assert report[field] is None, field
        assert report["replayedCount"] == 0

    def test_ack_timeout_rounding_to_zero_exits_2(self, tmp_path, no_engine_runs, capsys):
        # A 0 ms timeout once swept at t = 0 until the action budget ran out
        # (exit 3, after minutes).
        out = tmp_path / "o"
        assert run_cli("run", "linear_scalein", "--strategy", "dsm",
                       "--ack-timeout", "0.0004", "--out", str(out)) == 2
        assert "ackTimeout: 0.0004 s rounds to 0 ms" in capsys.readouterr().err
        assert not out.exists()

    def test_a_source_past_the_action_budget_exits_2(self, tmp_path, no_engine_runs, capsys):
        # 25,000,000 s at 8 roots/s is 200,000,000 source ticks, the whole
        # action budget: such a run could only end in exit 3, after hours.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc["runDuration"] = 25_000_000
        bad = tmp_path / "endless.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(bad), "--out", str(out)) == 2
        assert "the run's action budget" in capsys.readouterr().err
        assert not out.exists()

    def test_timeline_file_holds_the_csv_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "linear_scalein", "--strategy", "dcr", "--out", str(out)) == 0
        timeline, _engine = run_scenario(
            with_overrides(load_bundled_scenario("linear_scalein"), strategy="DCR"))
        assert len(timeline) > 2 * CSV_CHUNK_ROWS
        assert (out / "timeline.csv").read_bytes() == timeline.to_csv().encode()

    @pytest.mark.parametrize("stray", ["ghost#0", "sink#0"])
    def test_placement_of_a_stray_id_exits_2(self, tmp_path, no_engine_runs, capsys, stray):
        # Both schedules place the stray id, on different VMs: an unknown id
        # once crashed the run at its kill (exit 1, nothing written), and a
        # placed sink migrated.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        for key, vms in (("scheduleBefore", "vmsBefore"), ("scheduleAfter", "vmsAfter")):
            vm = doc[vms][0]["vmId"]
            doc[vms] = [{"vmId": vm, "slotCount": 6}]
            doc[key] = {"placements": {**{f"T{i}#0": [vm, i - 1] for i in range(1, 6)},
                                       stray: [vm, 5]}}
        bad = tmp_path / "stray.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(bad), "--out", str(out)) == 2
        assert f"placement of {stray}: no such instance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defect,message", [
        ("dead_end", "reaches no sink: dead"), ("two_sources", "2 source tasks declared")])
    def test_invalid_dag_exits_2(self, tmp_path, no_engine_runs, capsys, defect, message):
        # A dead end once ran to a starved DSM report (exit 0); two sources
        # were refused only at engine construction.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc["dag"] = defective_linear_dag(defect)
        bad = tmp_path / f"{defect}.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(bad), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["vmsBefore"].__setitem__(0, None), "vmsBefore: expected dict"),
        (lambda doc: doc.update(vmsAfter=[1]), "vmsAfter: expected dict"),
        (lambda doc: doc.update(dag=[]), "dag: expected dict"),
        (lambda doc: doc.update(dag=defective_linear_dag("unknown_edge_end")),
         "invalid dag: edge T2->nowhere references unknown task"),
    ], ids=["null_vm", "numeric_vm", "list_dag", "unknown_edge_end"])
    def test_mistyped_document_exits_2(self, tmp_path, no_engine_runs, capsys, edit,
                                       message):
        # Each once escaped the loader as a TypeError or KeyError (exit 1).
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        edit(doc)
        bad = tmp_path / "mistyped.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [
        ("networkDelayMs", 10**19), ("rebalanceDuration", 1e17)])
    def test_duration_past_the_timestamp_range_exits_2(self, tmp_path, no_engine_runs,
                                                       capsys, field, value):
        # Each passed the loader, then the run died on the timeline's int64
        # ts column with an OverflowError (exit 1).
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc.update({"strategy": "DCR", field: value})
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"configuration error: scenario field {field}: must be below 2**53 ms" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ref,dag,message", [
        (None, "a\u0000b", "unknown bundled dag 'a\\x00b'"),
        (None, "../dags/linear", "unknown bundled dag '../dags/linear'"),
        ("x" * 300, None, "scenario not found: xxx"),
    ], ids=["nul_dag", "traversal_dag", "overlong_reference"])
    def test_a_reference_to_no_bundled_name_exits_2(self, tmp_path, no_engine_runs, capsys,
                                                    ref, dag, message):
        # A NUL byte (ValueError) and a name too long to stat (OSError) once
        # ended in a traceback (exit 1); the traversal loaded linear.
        if ref is None:
            doc = json.loads((resources.files("flowmigrate") / "scenarios"
                              / "linear_scalein.json").read_text())
            doc["dag"] = dag
            ref = tmp_path / "ref.json"
            ref.write_text(json.dumps(doc))
        assert run_cli("run", str(ref), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("rate", [1e-310, 5e-324])
    def test_a_pacing_period_past_the_timestamp_range_exits_2(self, tmp_path, no_engine_runs,
                                                              capsys, rate):
        # Each passed the loader, then the run died in emission_time with an
        # OverflowError (exit 1): 1000 / rate is inf.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc["sourceRate"] = rate
        bad = tmp_path / "slow.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", str(bad), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: scenario field sourceRate: its pacing period, "
                       "1000 / sourceRate, must be below 2**53 ms\n")

    def test_an_out_that_is_a_file_is_refused_before_the_run(self, quick_scenario, tmp_path,
                                                             no_engine_runs, capsys):
        # The run once came first, then mkdir failed (FileExistsError, exit 1).
        out = tmp_path / "taken"
        out.write_text("x")
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {out} is not a directory; pick another --out\n")
        assert out.read_text() == "x"

    def test_an_out_that_cannot_be_looked_up_exits_2(self, quick_scenario, tmp_path,
                                                    no_engine_runs, capsys):
        # An --out too long to stat once ended in an OSError traceback (exit 1).
        out = tmp_path / ("x" * 300)
        assert run_cli("run", str(quick_scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot use {out} as --out: File name too long\n")

    def test_an_out_with_a_nul_byte_exits_2(self, quick_scenario, tmp_path, no_engine_runs,
                                            capsys):
        # exists() reads such a path as missing: the run once came first,
        # then mkdir raised ValueError (exit 1, traceback).
        out = f"{tmp_path}/nul\x00dir"
        assert run_cli("run", str(quick_scenario), "--out", out) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot use {out!r} as --out: embedded null byte\n")

    def test_a_restore_past_the_horizon_is_reported(self, tmp_path):
        # CCR is triggered 0.1 s before the horizon: the started migration
        # finishes past it, and the restore is measured from the sink
        # outputs that follow.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        doc.update(strategy="CCR", migrationTriggerAt=719.9)
        path = tmp_path / "late-trigger.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 0
        assert "FIRST_INIT_ACKED" in (out / "timeline.csv").read_text()
        report = json.loads((out / "report.json").read_text())
        assert report["restoreDurationMs"] == 39_641

    def test_an_invariant_violation_exits_3(self, quick_scenario, tmp_path, monkeypatch,
                                            capsys):
        def run(_engine):
            raise InvariantViolation("boom")

        monkeypatch.setattr(SimulationEngine, "run", run)
        assert run_cli("run", str(quick_scenario), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == "invariant breach: boom\n"

    def test_a_run_duration_with_a_partial_second_is_reported(self, tmp_path):
        # The trailing half second holds sink exits but no whole 1 s bucket.
        doc = {"dag": "linear", "strategy": "CCR", "runDuration": 300.5,
               "migrationTriggerAt": 180, "vmsBefore": [{"vmId": "a", "slotCount": 8}],
               "vmsAfter": [{"vmId": "b", "slotCount": 8}]}
        path = tmp_path / "half-second.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 0
        assert (out / "timeline.csv").exists()
        assert json.loads((out / "report.json").read_text())["strategy"] == "CCR"

    def test_a_scenario_that_is_not_utf8_exits_2(self, tmp_path, no_engine_runs, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        assert run_cli("run", str(path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read scenario {path}: ")
        assert "utf-8" in err and err.count("\n") == 1

    def test_a_deeply_nested_scenario_exits_2(self, tmp_path, no_engine_runs, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        assert run_cli("run", str(path), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"configuration error: scenario {path}: nested too deeply\n")

    def test_fractional_selectivity_is_reported(self, tmp_path):
        # 1.5 children per event: 12 sink arrivals/s expected from 8 roots/s.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "dags" / "linear.json").read_text())
        doc["tasks"][1]["selectivity"] = 1.5
        for task in doc["tasks"][2:]:
            task["instanceCount"] = 2
        scenario = {
            "name": "fractional", "dag": doc, "strategy": "DCR",
            "vmsBefore": [{"vmId": f"a{i}", "slotCount": 2} for i in range(5)],
            "vmsAfter": [{"vmId": f"b{i}", "slotCount": 4} for i in range(3)],
            "runDuration": 120, "migrationTriggerAt": 30,
            "workerStartupMinMs": 1500, "workerStartupMaxMs": 2500,
        }
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "o"
        assert run_cli("run", str(path), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["expectedOutputRate"] == 12.0
        assert report["restoreDurationMs"] is not None

    def test_strategy_and_seed_overrides(self, quick_scenario, tmp_path):
        out = tmp_path / "out"
        run_cli("run", str(quick_scenario), "--strategy", "dcr", "--seed", "99",
                "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        assert report["strategy"] == "DCR"
        assert report["seed"] == 99

    def test_ack_timeout_flag_changes_behavior(self, tmp_path):
        doc = {
            "name": "dsm-quick", "dag": "linear", "strategy": "DSM",
            "vmsBefore": [{"vmId": "a1", "slotCount": 3}, {"vmId": "a2", "slotCount": 3}],
            "vmsAfter": [{"vmId": "b1", "slotCount": 5}],
            "runDuration": 150, "migrationTriggerAt": 30,
            "workerStartupMinMs": 6000, "workerStartupMaxMs": 7000,
            "randomSeed": 3,
        }
        path = tmp_path / "dsm.json"
        path.write_text(json.dumps(doc))
        for tag, timeout in (("t5", "5"), ("t30", "30")):
            assert run_cli("run", str(path), "--ack-timeout", timeout,
                           "--out", str(tmp_path / tag)) == 0
        fast = json.loads((tmp_path / "t5" / "report.json").read_text())
        slow = json.loads((tmp_path / "t30" / "report.json").read_text())
        # A shorter timeout replays sooner, restoring output earlier.
        assert fast["restoreDurationMs"] < slow["restoreDurationMs"]

    def test_zero_rebalance_duration_passthrough(self, quick_scenario, tmp_path):
        out = tmp_path / "zero-reb"
        assert run_cli("run", str(quick_scenario), "--rebalance-duration", "0",
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rebalanceDurationMs"] == 0

    def test_bundled_name_resolution(self, tmp_path):
        # The bundled set is addressable by bare name and by scenarios/ path.
        out = tmp_path / "by-path"
        code = run_cli("run", "scenarios/linear_scalein.json", "--strategy", "ccr",
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "linear_scalein"


class TestCompare:
    def test_table_and_assertions(self, quick_scenario, capsys):
        assert run_cli("compare", str(quick_scenario)) == 0
        out = capsys.readouterr().out
        assert "DSM" in out and "DCR" in out and "CCR" in out
        assert out.count("[PASS]") == 4
        assert "restore CCR < DCR < DSM" in out

    def test_rolled_back_migration_fails_its_checks(self, quick_scenario, capsys):
        # DCR rolls back, so its restore and drain are null: a check on a
        # null operand fails instead of raising.
        assert run_cli("compare", str(quick_scenario), "--ack-timeout", "0.5") == 1
        out = capsys.readouterr().out
        assert "[FAIL] restore CCR < DCR < DSM" in out
        assert "[FAIL] drain DCR > capture CCR" in out
        assert "[PASS] no replays under DCR/CCR" in out

    def test_existing_output_refused_before_any_run(self, quick_scenario, tmp_path,
                                                    no_engine_runs, capsys):
        # DSM runs first and DCR's directory is taken: nothing may be written.
        out = tmp_path / "cmp"
        (out / "dcr").mkdir(parents=True)
        (out / "dcr" / "timeline.csv").write_text("taken\n")
        assert run_cli("compare", str(quick_scenario), "--out", str(out)) == 2
        assert "timeline.csv already exists" in capsys.readouterr().err
        assert files_under(out) == [out / "dcr" / "timeline.csv"]
        assert not (out / "dsm").exists()

    def test_an_out_that_is_a_file_is_refused_before_any_run(self, quick_scenario, tmp_path,
                                                             no_engine_runs, capsys):
        # The runs once came first, then mkdir failed (NotADirectoryError).
        out = tmp_path / "taken"
        out.write_text("x")
        assert run_cli("compare", str(quick_scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {out} is not a directory; pick another --out\n")
        assert out.read_text() == "x"

    def test_an_out_that_cannot_be_looked_up_exits_2(self, quick_scenario, tmp_path,
                                                    no_engine_runs, capsys):
        # An --out too long to stat once ended in an OSError traceback (exit 1).
        out = tmp_path / ("x" * 300)
        assert run_cli("compare", str(quick_scenario), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot use {out / 'dsm'} as --out: File name too long\n")

    def test_an_out_with_a_nul_byte_exits_2(self, quick_scenario, tmp_path, no_engine_runs,
                                            capsys):
        out = f"{tmp_path}/nul\x00dir"
        assert run_cli("compare", str(quick_scenario), "--out", out) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot use {out + '/dsm'!r} as --out: embedded null byte\n")

    def test_dcr_and_ccr_share_one_prefix(self, quick_scenario, monkeypatch):
        calls = []
        for name in ("run", "fork_at_trigger"):
            def spy(engine, *args, _name=name, _original=getattr(SimulationEngine, name)):
                calls.append(_name)
                return _original(engine, *args)

            monkeypatch.setattr(SimulationEngine, name, spy)
        assert run_cli("compare", str(quick_scenario)) == 0
        assert sorted(calls) == ["fork_at_trigger", "run", "run", "run"]

    def test_compare_writes_per_strategy_outputs(self, quick_scenario, tmp_path):
        # DCR and CCR fork from one prefix; each output equals a run of its own.
        out = tmp_path / "cmp"
        assert run_cli("compare", str(quick_scenario), "--out", str(out)) == 0
        for strategy in ("dsm", "dcr", "ccr"):
            alone = tmp_path / f"run-{strategy}"
            assert run_cli("run", str(quick_scenario), "--strategy", strategy,
                           "--out", str(alone)) == 0
            for name in ("timeline.csv", "report.json"):
                assert (out / strategy / name).read_bytes() == (alone / name).read_bytes()


class TestScenarios:
    def test_lists_bundled(self, capsys):
        assert run_cli("scenarios") == 0
        out = capsys.readouterr().out.split()
        assert "grid_scalein" in out and len(out) == 11

    def test_python_dash_m_entry_point(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "flowmigrate", "scenarios"],
                              capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == bundled_scenario_names()
        assert len(done.stdout.split()) == 11
