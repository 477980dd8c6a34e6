import importlib.util
from importlib import resources
from pathlib import Path

from flowmigrate.model import load_bundled_scenario, with_overrides
from flowmigrate.runtime import SimulationEngine

ROOT = Path(__file__).resolve().parent.parent
GEN_SCENARIOS = ROOT / "tools" / "gen_scenarios.py"


def test_gen_scenarios_reproduces_bundled_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_scenarios", GEN_SCENARIOS)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    (tmp_path / "dags").mkdir()
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    gen.main()

    bundled = resources.files("flowmigrate") / "scenarios"
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    assert len(written) == 12  # ten paper scenarios, the stress scenario, its dag
    for rel in written:
        assert (tmp_path / rel).read_bytes() == bundled.joinpath(*rel.parts).read_bytes(), rel


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark wraps program names from outside src/; a renamed or
    # deleted name breaks it, so install and remove its wrappers here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    run = SimulationEngine.run
    with tracer.Observer() as obs, tracer.Tracer(obs):
        assert SimulationEngine.run is not run
    assert SimulationEngine.run is run


def test_benchmark_tracer_sees_every_push_and_action(monkeypatch):
    # The engine binds the calendar's push once per run; a push that
    # bypasses EventCalendar.push would escape the benchmark's counters.
    # The engine is built before the tracer is installed, so run() must
    # pick up the traced push itself.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    config = with_overrides(load_bundled_scenario("linear_scalein"), strategy="DCR")
    engine = SimulationEngine(config)
    with tracer.Observer() as obs, tracer.Tracer(obs) as traced:
        engine.run()
    layers = traced.layer_metrics(obs.fingerprints())
    assert layers["kernels.calendar.pushes"][0] == engine.clock._calendar._next_seq
    assert layers["runtime.actions"][0] == engine._actions
