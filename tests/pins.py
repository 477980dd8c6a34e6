"""The pin store: what 49 runs must reproduce, kept in ``pins.json``.

Each entry is keyed by its run, ``name/STRATEGY[ field=value ...]``: a shape
of ``SHAPES`` or a bundled scenario, then the config fields overridden,
sorted, each value in JSON (``linear50_stress/DCR networkDelayMs=5``).  It
holds the SHA-256 of the run's ``timeline.csv`` (``csv``) and
``report.json`` (``report``), its engine actions and calendar pushes, and
its ``conftest.behaviour_digest`` (``behaviour``); null where not pinned.
A bundled run pins every field, and ``write`` fills any it lacks.

    PYTHONPATH=src python tests/pins.py check   # explain each moved pin; exit 1 if any
    PYTHONPATH=src python tests/pins.py write   # re-pin every run, print old -> new
"""

import hashlib
import json
import sys
from pathlib import Path

from conftest import (
    behaviour_digest,
    check_no_live_checkpoint_wave,
    fan_out_join_dag,
    make_scenario,
    selective_chain_dag,
    shuffle_split_dag,
    work_of,
)
from flowmigrate import _kernels
from flowmigrate.metrics import compute_report
from flowmigrate.model import load_bundled_scenario, with_overrides
from flowmigrate.runtime import RUNNING, SimulationEngine

STORE = Path(__file__).with_name("pins.json")
FIELDS = ("csv", "report", "actions", "pushes", "behaviour")

# Short runs of shapes the bundled runs lack: DUPLICATE fan-out into a join
# (DSM replays there without a failure), a SHUFFLE split at 7 ms network
# delay, more than one child per event (selectivity 2.0, and 1.5 with its
# seeded coin flips, whose report was never pinned), and DSM on
# linear_scalein at a 10 s ack timeout, whose replays re-send roots that the
# first hop forwarded.
SHAPES = {
    "fan_out_join": lambda strategy: make_scenario(fan_out_join_dag(), strategy),
    "shuffle_split_7ms": lambda strategy: make_scenario(shuffle_split_dag(), strategy,
                                                        networkDelayMs=7),
    "selectivity_2": lambda strategy: make_scenario(selective_chain_dag(2.0), strategy),
    "selectivity_1.5": lambda strategy: make_scenario(selective_chain_dag(1.5), strategy),
    "linear_scalein_ack10": lambda strategy: with_overrides(
        load_bundled_scenario("linear_scalein"), strategy=strategy, ackTimeout=10.0),
}

PLAIN, GENERAL_PATH, ALL_SCHEDULED, CHECKED_CALENDAR = (
    "plain", "general-path", "all-scheduled", "checked-calendar")
# The fields each variant holds a run to: with every hop scheduled, only
# same-millisecond tie order may move, and with it the event ids.
HOLDS = {PLAIN: FIELDS, GENERAL_PATH: FIELDS, ALL_SCHEDULED: ("report", "behaviour"),
         CHECKED_CALENDAR: FIELDS}
# A moved pin's verdict, gravest first: the first field that moved names it.
VERDICTS = (("behaviour", "behaviour moved"), ("report", "report moved"),
            ("csv", "tie order or ids only"), ("actions", "work only"), ("pushes", "work only"))


def load() -> dict[str, dict]:
    return json.loads(STORE.read_text())


def config_of(key: str):
    """The validated config of run ``key``."""
    head, *assignments = key.split(" ")
    name, strategy = head.split("/")
    overrides = {field: json.loads(value)
                 for field, value in (assignment.split("=") for assignment in assignments)}
    base = SHAPES[name](strategy) if name in SHAPES else load_bundled_scenario(name)
    return with_overrides(base, strategy=strategy, **overrides)


def is_bundled(key: str) -> bool:  # a bundled scenario as shipped
    return " " not in key and key.split("/")[0] not in SHAPES


class _CheckedCalendar(_kernels.EventCalendar):
    """Asserts before each pop (after every action, and once at the end)
    what ``engine`` relies on untested: only a RUNNING instance holds a queue
    (``_pump`` serves any); each ``in_flight`` equals the ``arrivals`` to
    its instance held here (``deliver`` keeps inputs FIFO by it); and no
    PREPARE or COMMIT wave is live at a kill or respawn (``drop_work`` leaves
    barrier counts alone)."""

    __slots__ = ("engine", "arrivals", "checks", "killed")

    def __init__(self, engine):
        super().__init__()
        self.engine, self.checks = engine, 0
        self.arrivals = dict.fromkeys(engine.instances.values(), 0)
        self.killed = check_no_live_checkpoint_wave(engine)

    def push(self, fire_ms, payload):
        if payload[0].__name__ == "_arrive":
            self.arrivals[payload[1][1]] += 1
        return super().push(fire_ms, payload)

    def pop(self):
        engine, self.checks = self.engine, self.checks + 1
        assert all(inst.status == RUNNING for inst in self.arrivals if inst.queue)
        assert all(inst.in_flight == arrivals for inst, arrivals in self.arrivals.items())
        entry = super().pop()
        if entry[2][0].__name__ == "_arrive":
            self.arrivals[entry[2][1][1]] -= 1
        return entry


def _observed(timeline, report, work=(None, None)) -> dict:
    csv, report_json = (hashlib.sha256(text.encode()).hexdigest()
                        for text in (timeline.to_csv(), report.to_json()))
    return {"csv": csv, "report": report_json, "actions": work[0], "pushes": work[1],
            "behaviour": behaviour_digest(timeline)}


def observation(engine) -> dict:
    """Every field of ``engine``'s finished run."""
    return _observed(engine.timeline, compute_report(engine.timeline, engine.config),
                     work_of(engine))


def observe_config(config, variant: str = PLAIN) -> dict:
    """Every field of one run of ``config`` under ``variant``.  General-path
    clears every ``sole_edge``, so each send goes through
    ``_route_emission``, then ``deliver``; all-scheduled counts one arrival
    that never lands in flight at every instance, so every hop schedules
    its ``_arrive``."""
    engine = SimulationEngine(config)
    for inst in engine.instances.values():
        if variant == GENERAL_PATH:
            inst.sole_edge = None
        elif variant == ALL_SCHEDULED:
            inst.in_flight = 1
    if variant == CHECKED_CALENDAR:
        calendar = engine.clock._calendar = _CheckedCalendar(engine)
    engine.run()
    if variant == CHECKED_CALENDAR:  # every pop was checked, and the kill guard ran
        assert calendar.checks == work_of(engine)[1] + 1
        assert engine.kill_snapshots and calendar.killed
    return observation(engine)


def observe(key: str, variant: str = PLAIN, cache=None) -> dict:
    """The fields ``variant`` holds run ``key`` to, None for the others.  A
    bundled run is read from ``cache``, an ``acceptance.RunCache``, if one is
    given."""
    if cache is not None and variant == PLAIN and is_bundled(key):
        run = cache.get(*key.split("/"))
        observed = _observed(run.timeline, run.report, (run.actions, run.pushes))
    else:
        observed = observe_config(config_of(key), variant)
    return {field: observed[field] if field in HOLDS[variant] else None for field in FIELDS}


def explain(key: str, pinned: dict, observed: dict) -> str:
    """Each field pinned and observed that moved, old -> new, under one
    verdict; "tie order or ids only" means the timeline bytes moved but the
    behaviour and the report held.  Empty if nothing moved."""
    moved = [field for field in FIELDS if None not in (pinned[field], observed[field])
             and pinned[field] != observed[field]]
    if not moved:
        return ""
    verdict = next(verdict for field, verdict in VERDICTS if field in moved)
    return "\n".join([f"{key}: {verdict}",
                      *(f"  {field}: {pinned[field]} -> {observed[field]}" for field in moved)])


def main(argv: list[str]) -> int:
    if argv not in (["check"], ["write"]):
        print("usage: PYTHONPATH=src python tests/pins.py check|write", file=sys.stderr)
        return 2
    pins, moves = load(), []
    for key, pinned in sorted(pins.items()):
        observed = observe(key)
        moved = explain(key, pinned, observed)
        if moved:
            moves.append(moved)
        pins[key] = {field: None if pinned[field] is None and not is_bundled(key)
                     else observed[field] for field in FIELDS}
    print(*moves, f"{len(moves)} of {len(pins)} pinned runs moved", sep="\n")
    if argv == ["write"]:
        STORE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 1 if moves and argv == ["check"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
