import importlib.util
from importlib import resources
from pathlib import Path

GEN_SCENARIOS = Path(__file__).resolve().parent.parent / "tools" / "gen_scenarios.py"


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
