import ast
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmigrate import model
from flowmigrate.errors import ConfigError
from flowmigrate.model import (
    DagDef,
    Edge,
    ScenarioConfig,
    TaskDef,
    VmDef,
    bundled_dag_names,
    compute_cumulative_rates,
    load_bundled_dag,
    load_bundled_scenario,
    min_instances,
    parse_dag,
    parse_scenario,
    path_multiplicity,
    round_robin_placement,
    validate_dag,
    validate_sizing,
    with_overrides,
)


def bundled_dag_doc(name):
    dags = resources.files("flowmigrate") / "scenarios" / "dags"
    return json.loads((dags / f"{name}.json").read_text())


def linear_dag(extra_edges=()):
    tasks = [TaskDef("src", serviceTimeMs=1)]
    edges = []
    prev = "src"
    for i in range(1, 6):
        tasks.append(TaskDef(f"T{i}"))
        edges.append(Edge(prev, f"T{i}"))
        prev = f"T{i}"
    tasks.append(TaskDef("sink"))
    edges.append(Edge(prev, "sink"))
    return DagDef("lin", tuple(tasks), tuple(edges) + tuple(extra_edges), ("src",), ("sink",))


def diamond_dag():
    tasks = (
        TaskDef("src", serviceTimeMs=1),
        TaskDef("A"), TaskDef("B"), TaskDef("C"), TaskDef("D"),
        TaskDef("E", instanceCount=3),
        TaskDef("sink", instanceCount=3),
    )
    edges = (
        Edge("src", "A"),
        Edge("A", "B", "DUPLICATE"), Edge("A", "C", "DUPLICATE"), Edge("A", "D", "DUPLICATE"),
        Edge("B", "E"), Edge("C", "E"), Edge("D", "E"),
        Edge("E", "sink"),
    )
    return DagDef("dia", tasks, edges, ("src",), ("sink",))


class TestValidateDag:
    def test_valid_chain(self):
        assert validate_dag(linear_dag()) == ()

    def test_cycle_detected(self):
        violations = validate_dag(linear_dag(extra_edges=(Edge("T5", "T1"),)))
        assert any("cycle" in v for v in violations)

    def test_sink_with_out_edge(self):
        violations = validate_dag(linear_dag(extra_edges=(Edge("sink", "T1"),)))
        assert any("sink" in v and "out-edge" in v for v in violations)

    def test_source_with_in_edge(self):
        violations = validate_dag(linear_dag(extra_edges=(Edge("T3", "src"),)))
        assert any("source" in v for v in violations)

    def test_unreachable_task(self):
        dag = linear_dag()
        tasks = dag.tasks + (TaskDef("orphan"),)
        violations = validate_dag(DagDef("lin", tasks, dag.edges, dag.sourceTasks, dag.sinkTasks))
        assert any("orphan" in v for v in violations)

    def test_task_reaching_no_sink(self):
        # T2 feeds both T3 and "dead": only the dead end is named.
        dag = linear_dag(extra_edges=(Edge("T2", "dead"),))
        dag = DagDef("lin", dag.tasks + (TaskDef("dead"),), dag.edges, ("src",), ("sink",))
        assert validate_dag(dag) == (
            "reaches no sink: dead (list a terminal task in sinkTasks)",)

    def test_exactly_one_source(self):
        dag = linear_dag(extra_edges=(Edge("src2", "T1"),))
        tasks = dag.tasks + (TaskDef("src2", serviceTimeMs=1),)
        two = DagDef("lin", tasks, dag.edges, ("src", "src2"), ("sink",))
        assert validate_dag(two) == ("2 source tasks declared; a dag has one",)
        none = DagDef("lin", dag.tasks, linear_dag().edges, (), ("sink",))
        assert "0 source tasks declared; a dag has one" in validate_dag(none)

    def test_bad_fields(self):
        dag = linear_dag()
        tasks = (TaskDef("bad", serviceTimeMs=0, selectivity=-1, instanceCount=0),) + dag.tasks[1:]
        joined = " ".join(validate_dag(DagDef("lin", tasks, dag.edges[1:], ("T1",),
                                              dag.sinkTasks)))
        assert "serviceTimeMs" in joined and "selectivity" in joined and "instanceCount" in joined


class TestCumulativeRates:
    def test_chain_passthrough(self):
        rates = compute_cumulative_rates(linear_dag(), 8)
        assert all(rates[f"T{i}"] == 8 for i in range(1, 6))
        assert rates["sink"] == 8

    def test_diamond_join_sums_branches(self):
        # Hand sum: E sees 8 from each of the three duplicated branches.
        rates = compute_cumulative_rates(diamond_dag(), 8)
        assert rates["E"] == 24
        assert rates["sink"] == 24

    def test_grid_peaks_at_32(self):
        rates = compute_cumulative_rates(load_bundled_dag("grid"), 8)
        user = {t.taskId: rates[t.taskId] for t in load_bundled_dag("grid").user_tasks()}
        assert max(user.values()) == 32

    def test_invariant_under_topological_reordering(self):
        dag = diamond_dag()
        reordered = DagDef(dag.name, tuple(reversed(dag.tasks)),
                           tuple(reversed(dag.edges)), dag.sourceTasks, dag.sinkTasks)
        assert compute_cumulative_rates(dag, 8) == compute_cumulative_rates(reordered, 8)

    def test_shuffle_split_shares_stream(self):
        tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("A"),
                 TaskDef("B"), TaskDef("C"), TaskDef("sink"))
        edges = (Edge("src", "A"), Edge("A", "B"), Edge("A", "C"),
                 Edge("B", "sink"), Edge("C", "sink"))
        rates = compute_cumulative_rates(
            DagDef("split", tasks, edges, ("src",), ("sink",)), 8)
        assert rates["B"] == rates["C"] == 4


class TestMinInstances:
    def test_single_increment(self):
        assert min_instances(8, 8) == 1

    def test_exact_multiple(self):
        assert min_instances(24, 8) == 3

    def test_minimum_is_one(self):
        assert min_instances(0.5, 8) == 1

    def test_table_totals(self):
        # Instance totals per bundled dataflow (user tasks only).
        expected = {"linear": 5, "diamond": 8, "star": 8, "grid": 21, "traffic": 13}
        for name, total in expected.items():
            dag = load_bundled_dag(name)
            assert sum(t.instanceCount for t in dag.user_tasks()) == total, name

    def test_bundled_sizing_is_sufficient(self):
        for name in bundled_dag_names():
            assert validate_sizing(load_bundled_dag(name), 8, 8) == (), name


class TestRoundRobin:
    def test_hand_traced_pattern(self):
        # 5 instances over 3 VMs x 2 slots: VMs cycle 1,2,3,1,2.
        vms = [VmDef("vm1", 2), VmDef("vm2", 2), VmDef("vm3", 2)]
        schedule = round_robin_placement([f"i{k}" for k in range(5)], vms)
        assert [schedule.placements[f"i{k}"][0] for k in range(5)] == \
            ["vm1", "vm2", "vm3", "vm1", "vm2"]

    def test_even_division(self):
        vms = [VmDef("a", 4), VmDef("b", 4)]
        schedule = round_robin_placement([f"i{k}" for k in range(8)], vms)
        per_vm = {"a": 0, "b": 0}
        for inst in schedule.placements:
            per_vm[schedule.placements[inst][0]] += 1
        assert per_vm == {"a": 4, "b": 4}

    def test_insufficient_slots(self):
        with pytest.raises(ConfigError, match="8 instances do not fit in 6 slots"):
            round_robin_placement([f"i{k}" for k in range(8)],
                                  [VmDef("a", 3), VmDef("b", 3)])

    def test_pure_function(self):
        vms = [VmDef("a", 2), VmDef("b", 2)]
        insts = ["x", "y", "z"]
        assert round_robin_placement(insts, vms) == round_robin_placement(insts, vms)

    def test_skips_full_vms(self):
        vms = [VmDef("a", 1), VmDef("b", 3)]
        schedule = round_robin_placement(["i0", "i1", "i2", "i3"], vms)
        assert schedule.placements["i0"][0] == "a"
        assert all(schedule.placements[f"i{k}"][0] == "b" for k in (1, 2, 3))


class TestParseScenario:
    def minimal_doc(self, **extra):
        doc = {
            "dag": "linear",
            "strategy": "CCR",
            "vmsBefore": [{"vmId": "d2-1", "slotCount": 2},
                          {"vmId": "d2-2", "slotCount": 2},
                          {"vmId": "d2-3", "slotCount": 2}],
            "vmsAfter": [{"vmId": "d3-1", "slotCount": 4},
                         {"vmId": "d3-2", "slotCount": 4}],
        }
        doc.update(extra)
        return doc

    def test_minimal_document_applies_defaults(self):
        config = parse_scenario(self.minimal_doc())
        assert config.strategy == "CCR"
        assert config.sourceRate == 8
        assert config.ackTimeout == 30
        assert config.runDuration == 720
        assert config.rebalanceDuration == 7.26
        assert len(config.scheduleBefore.placements) == 5
        # Every defaulted scalar field takes its record default.
        for name, default in ScenarioConfig._field_defaults.items():
            assert getattr(config, name) == default, name
        doc = self.minimal_doc()
        doc["dag"] = bundled_dag_doc("linear")
        doc["dag"]["tasks"][1] = {"taskId": "T1"}
        task = parse_scenario(doc).dag.task("T1")
        assert task == TaskDef("T1", name="T1")

    def test_trigger_after_end_rejected(self):
        with pytest.raises(ConfigError, match="migrationTriggerAt"):
            parse_scenario(self.minimal_doc(migrationTriggerAt=800))
        # A negative worker startup would respawn into the past.
        with pytest.raises(ConfigError, match="workerStartupMinMs: must be >= 0"):
            parse_scenario(self.minimal_doc(workerStartupMinMs=-5000, workerStartupMaxMs=-1000))
        with pytest.raises(ConfigError, match="workerStartupMinMs"):
            with_overrides(parse_scenario(self.minimal_doc()), workerStartupMinMs=-1)

    def test_ack_timeout_rounding_to_zero_rejected(self):
        config = load_bundled_scenario("linear_scalein")
        with pytest.raises(ConfigError, match="ackTimeout: 0.0004 s rounds to 0 ms"):
            with_overrides(config, strategy="DSM", ackTimeout=0.0004)
        with pytest.raises(ConfigError, match="ackTimeout"):
            parse_scenario(self.minimal_doc(ackTimeout=0.0004))
        assert with_overrides(config, ackTimeout=0.001).ackTimeout == 0.001

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            parse_scenario(self.minimal_doc(strategy="XYZ"))
        with pytest.raises(ConfigError, match="strategy"):
            with_overrides(parse_scenario(self.minimal_doc()), strategy="XYZ")

    def test_unknown_field_rejected(self):
        # A typo, and fields no scenario sets: the checkpoint store is
        # memory only, data acking follows the strategy, and the other six
        # are fixed model constants.
        for field, value in (("sourceRte", 9), ("storeBackend", "file"),
                             ("ackDataEvents", True), ("checkpointInterval", 30),
                             ("initResendInterval", 1), ("maxPendingRoots", 240),
                             ("storeWriteBaseMs", 0.4), ("storeWritePerByteMs", 0.0013),
                             ("ratePerInstance", 8)):
            with pytest.raises(ConfigError, match=field):
                parse_scenario(self.minimal_doc(**{field: value}))

    def test_malformed_scalar_is_a_config_error(self):
        # Each scalar is accepted only with its JSON type: nothing is
        # truncated, parsed from a string or read from a bool.
        for field, value in (("sourceRate", "fast"), ("randomSeed", None),
                             ("networkDelayMs", [5]), ("networkDelayMs", 2.5),
                             ("randomSeed", 7.9), ("randomSeed", True),
                             ("sourceRate", True), ("runDuration", "720")):
            with pytest.raises(ConfigError, match=f"scenario field {field}"):
                parse_scenario(self.minimal_doc(**{field: value}))
        for field, value in (("serviceTimeMs", "slow"), ("serviceTimeMs", 100.9),
                             ("stateful", "false"), ("stateful", 0),
                             ("instanceCount", True), ("selectivity", False)):
            doc = self.minimal_doc()
            doc["dag"] = bundled_dag_doc("linear")
            doc["dag"]["tasks"][3][field] = value
            with pytest.raises(ConfigError, match=f"task T3 field {field}"):
                parse_scenario(doc)
        # An integer is a valid float.
        assert parse_scenario(self.minimal_doc(sourceRate=8)).sourceRate == 8.0

    def test_malformed_vm_or_placement_is_a_config_error(self):
        for slots in ("four", None, 2.5, True, "3"):
            doc = self.minimal_doc()
            doc["vmsAfter"][1]["slotCount"] = slots
            with pytest.raises(ConfigError, match="vmsAfter: VM d3-2 slotCount"):
                parse_scenario(doc)
        for slot in ("x", 0.0, False):
            doc = self.minimal_doc(scheduleAfter={"placements": {"T1#0": ["d3-1", slot]}})
            with pytest.raises(ConfigError, match="scheduleAfter: placement of T1#0"):
                parse_scenario(doc)

    def test_string_field_takes_only_json_strings(self):
        # Nothing is stringified: ["x"] never becomes "['x']", 7 never "7".
        for field, value in (("name", ["x"]), ("strategy", 7)):
            with pytest.raises(ConfigError, match=f"scenario field {field}: expected str"):
                parse_scenario(self.minimal_doc(**{field: value}))
        doc = self.minimal_doc()
        doc["vmsAfter"][1]["vmId"] = 7
        with pytest.raises(ConfigError, match="vmsAfter: vmId: expected str"):
            parse_scenario(doc)
        doc = self.minimal_doc(scheduleAfter={"placements": {"T1#0": [7, 0]}})
        with pytest.raises(ConfigError, match="scheduleAfter: placement of T1#0: vmId"):
            parse_scenario(doc)

        def set_name(dag):
            dag["name"] = ["x"]

        def set_task_id(dag):
            dag["tasks"][3]["taskId"] = 3

        def set_task_name(dag):
            dag["tasks"][3]["name"] = ["x"]

        def set_edge_end(end):
            def edit(dag):
                dag["edges"][0][end] = {"id": "src"}
            return edit

        def set_grouping(dag):
            dag["edges"][0]["grouping"] = 1

        def set_endpoints(key):
            def edit(dag):
                dag[key] = [None]
            return edit

        for edit, match in ((set_name, "dag field name"), (set_task_id, "task field taskId"),
                            (set_task_name, "task T3 field name"),
                            (set_edge_end("fromTask"), "edge field fromTask"),
                            (set_edge_end("toTask"), "edge field toTask"),
                            (set_grouping, "edge field grouping"),
                            (set_endpoints("sourceTasks"), "dag field sourceTasks"),
                            (set_endpoints("sinkTasks"), "dag field sinkTasks")):
            doc = self.minimal_doc()
            doc["dag"] = bundled_dag_doc("linear")
            edit(doc["dag"])
            with pytest.raises(ConfigError, match=f"{match}: expected str"):
                parse_scenario(doc)

    def test_non_finite_or_overflowing_number_rejected(self):
        # json.loads reads NaN and Infinity; none of these has a whole ms.
        for field, value in (("sourceRate", float("nan")), ("runDuration", float("inf")),
                             ("ackTimeout", 1e308)):
            with pytest.raises(ConfigError,
                               match=f"scenario field {field}: must be > 0 and finite"):
                parse_scenario(self.minimal_doc(**{field: value}))
        with pytest.raises(ConfigError, match="durations must be non-negative and finite"):
            parse_scenario(self.minimal_doc(rebalanceDuration=float("nan")))
        doc = self.minimal_doc()
        doc["dag"] = bundled_dag_doc("linear")
        doc["dag"]["tasks"][2]["selectivity"] = 1e308  # overflows downstream
        with pytest.raises(ConfigError, match="task T3: input rate inf events/sec"):
            parse_scenario(doc)

    def test_duration_past_the_timestamp_range_rejected(self):
        # Timeline timestamps are int64 ms; every duration and delay stays
        # below 2**53 ms (about 9.007e15), each field on its own.
        fields = {"runDuration": 1e13, "ackTimeout": 1e13, "rebalanceDuration": 1e13,
                  "networkDelayMs": 10**16, "workerStartupMaxMs": 10**16}
        for field, value in fields.items():
            with pytest.raises(ConfigError, match=f"scenario field {field}: must be below"):
                parse_scenario(self.minimal_doc(**{field: value}))
        below = {field: value / 10 if isinstance(value, float) else value // 10
                 for field, value in fields.items()}
        # At 1e-4 roots/s a 1e12 s run also stays under the action budget.
        assert parse_scenario(self.minimal_doc(**below, sourceRate=1e-4)).networkDelayMs == 10**15
        # So does the source's pacing period, 1000 / sourceRate.
        for rate in (1e-310, 5e-324, 1000 / 2**53):
            with pytest.raises(ConfigError, match="sourceRate: its pacing period"):
                parse_scenario(self.minimal_doc(sourceRate=rate))
        assert parse_scenario(self.minimal_doc(sourceRate=1000 / 2**52)).sourceRate > 0

    def test_a_source_past_the_action_budget_rejected(self):
        # The paced source alone fires one action per tick, runDuration x
        # sourceRate of them: a run that needs the whole budget could only
        # end in the runaway error, after hours.
        doc = json.loads(
            (resources.files("flowmigrate") / "scenarios" / "linear_scalein.json").read_text())
        assert 25_000_000 * parse_scenario(doc).sourceRate == model.MAX_ACTIONS
        with pytest.raises(ConfigError, match="must be below 200,000,000 source ticks"):
            parse_scenario({**doc, "runDuration": 25_000_000})
        assert parse_scenario({**doc, "runDuration": 24_999_999}).runDuration == 24_999_999

    def test_huge_instance_count_rejected_before_its_ids_are_listed(self):
        doc = self.minimal_doc()
        doc["dag"] = bundled_dag_doc("linear")
        doc["dag"]["tasks"][3]["instanceCount"] = 10**15
        with pytest.raises(ConfigError,
                           match=f"scheduleBefore: {10**15 + 4} instances do not fit in 6 slots"):
            parse_scenario(doc)

    def test_overloaded_task_rejected(self):
        # One instance is enough for 8 events/sec by count, but at 200 ms
        # per event it serves only 5 events/sec.
        doc = self.minimal_doc()
        doc["dag"] = bundled_dag_doc("linear")
        doc["dag"]["tasks"][3]["serviceTimeMs"] = 200
        with pytest.raises(ConfigError, match="task T3: serviceTimeMs 200 overloads"):
            parse_scenario(doc)
        doc["dag"]["tasks"][3]["instanceCount"] = 2
        assert parse_scenario(doc).dag.task("T3").instanceCount == 2

    def test_explicit_schedule_round_trips(self):
        doc = self.minimal_doc()
        doc["vmsBefore"] = [{"vmId": "m", "slotCount": 5}]
        doc["scheduleBefore"] = {"placements": {
            f"T{i}#0": ["m", i - 1] for i in range(1, 6)
        }}
        config = parse_scenario(doc)
        assert config.scheduleBefore.placements["T3#0"] == ("m", 2)

    def test_placement_outside_the_migratable_instances_rejected(self):
        # An unknown id once crashed the run at its kill, and a placed
        # sink migrated although sources and sinks never do.
        for stray in ("ghost#0", "sink#0", "src#0"):
            doc = self.minimal_doc()
            doc["vmsBefore"] = [{"vmId": "m", "slotCount": 6}]
            doc["scheduleBefore"] = {"placements": {
                **{f"T{i}#0": ["m", i - 1] for i in range(1, 6)}, stray: ["m", 5]}}
            with pytest.raises(ConfigError, match=f"placement of {stray}: no such instance"):
                parse_scenario(doc)

    def test_schedule_object_is_exactly_placements(self):
        placements = {f"T{i}#0": ["m", i - 1] for i in range(1, 6)}
        for schedule, match in (
                (placements, "expected 'roundRobin' or"),  # a bare mapping
                ({"placements": placements, "note": 1}, r"unknown field\(s\) note"),
                ({"placements": [["T1#0", "m", 0]]}, "expected 'roundRobin' or"),
                ({}, "expected 'roundRobin' or")):
            doc = self.minimal_doc()
            doc["vmsBefore"] = [{"vmId": "m", "slotCount": 5}]
            doc["scheduleBefore"] = schedule
            with pytest.raises(ConfigError, match=f"scheduleBefore: {match}"):
                parse_scenario(doc)

    def test_double_booked_slot_rejected(self):
        doc = self.minimal_doc()
        doc["vmsBefore"] = [{"vmId": "m", "slotCount": 5}]
        doc["scheduleBefore"] = {"placements": {
            f"T{i}#0": ["m", 0] for i in range(1, 6)
        }}
        with pytest.raises(ConfigError, match="slot"):
            parse_scenario(doc)

    def test_under_provisioned_dag_rejected(self):
        doc = self.minimal_doc()
        doc["dag"] = json.loads((
            '{"name": "thin", '
            '"tasks": [{"taskId": "src", "serviceTimeMs": 1}, '
            '{"taskId": "A", "instanceCount": 1}, {"taskId": "B", "instanceCount": 1}, '
            '{"taskId": "J", "instanceCount": 1}, {"taskId": "sink"}], '
            '"edges": [{"fromTask": "src", "toTask": "A"}, '
            '{"fromTask": "A", "toTask": "B", "grouping": "DUPLICATE"}, '
            '{"fromTask": "A", "toTask": "J", "grouping": "DUPLICATE"}, '
            '{"fromTask": "B", "toTask": "J"}, {"fromTask": "J", "toTask": "sink"}], '
            '"sourceTasks": ["src"], "sinkTasks": ["sink"]}'
        ))
        with pytest.raises(ConfigError, match="under-provisioned"):
            parse_scenario(doc)


class TestBundled:
    def test_all_bundled_dags_validate(self):
        for name in ("linear", "diamond", "star", "grid", "traffic"):
            assert validate_dag(load_bundled_dag(name)) == (), name

    def test_grid_multiplicity_is_four(self):
        assert path_multiplicity(load_bundled_dag("grid")) == 4

    def test_known_multiplicities(self):
        expected = {"linear": 1, "diamond": 3, "star": 4, "traffic": 2, "linear50": 1}
        for name, mult in expected.items():
            assert path_multiplicity(load_bundled_dag(name)) == mult, name

    def test_fractional_multiplicity_only_when_not_strict(self):
        tasks = (TaskDef("src", serviceTimeMs=1), TaskDef("T1", selectivity=1.5),
                 TaskDef("T2", instanceCount=2), TaskDef("sink", instanceCount=2))
        dag = DagDef("frac", tasks, (Edge("src", "T1"), Edge("T1", "T2"), Edge("T2", "sink")),
                     ("src",), ("sink",))
        with pytest.raises(ConfigError, match="non-integral path multiplicity 1.5"):
            path_multiplicity(dag)
        assert path_multiplicity(dag, strict=False) == 1.5
        grid = path_multiplicity(load_bundled_dag("grid"), strict=False)
        assert grid == 4 and isinstance(grid, int)

    def test_ten_paper_scenarios_load(self):
        for dag in ("linear", "diamond", "star", "grid", "traffic"):
            for direction in ("scalein", "scaleout"):
                config = load_bundled_scenario(f"{dag}_{direction}")
                assert config.migrationTriggerAt < config.runDuration
                total = sum(vm.slotCount for vm in config.vmsAfter)
                assert total >= len(config.scheduleAfter.placements)

    def test_scaleout_uses_single_slot_vms(self):
        config = load_bundled_scenario("grid_scaleout")
        assert all(vm.slotCount == 1 for vm in config.vmsAfter)
        assert len(config.vmsAfter) == 21


# Any value json.loads can return, NaN and infinity included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def field_paths(node, prefix=()):
    """The key path of every object field and array item under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutation_bases():
    """Two valid scenario documents: linear_scalein naming its dag, and
    diamond_scalein with its dag inline."""
    root = resources.files("flowmigrate") / "scenarios"
    linear = json.loads((root / "linear_scalein.json").read_text())
    diamond = json.loads((root / "diamond_scalein.json").read_text())
    diamond["dag"] = bundled_dag_doc("diamond")
    return [linear, diamond]


def draw_mutation(data, doc):
    """``doc`` with one field or array item replaced by any JSON value."""
    *parents, key = data.draw(st.sampled_from(list(field_paths(doc))))
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(JSON_VALUES)
    return doc


class TestLoaderMutations:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_mutated_field_is_accepted_or_a_config_error(self, data):
        # One field or array item of a valid document becomes any JSON
        # value.  No other exception may escape the loader.
        doc = draw_mutation(data, data.draw(st.sampled_from(mutation_bases())))
        try:
            parse_scenario(doc)
        except ConfigError:
            pass


def rescanning_kahn(dag):
    """The topological order as it was computed before the adjacency pass:
    each task's in- and out-edges rescanned from the edge tuple."""
    order = []
    indegree = {t.taskId: len([e for e in dag.edges if e.toTask == t.taskId])
                for t in dag.tasks}
    ready = [t.taskId for t in dag.tasks if indegree[t.taskId] == 0]
    while ready:
        tid = ready.pop(0)
        order.append(tid)
        for e in [e for e in dag.edges if e.fromTask == tid]:
            indegree[e.toTask] -= 1
            if indegree[e.toTask] == 0:
                ready.append(e.toTask)
    return order


def rescanning_validate_dag(dag):
    """validate_dag as it was before the adjacency pass, every walk
    rescanning the edge tuple."""
    violations = []
    ids = [t.taskId for t in dag.tasks]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(f"duplicate task ids: {', '.join(dupes)}")
    for t in dag.tasks:
        if t.serviceTimeMs <= 0:
            violations.append(f"task {t.taskId}: serviceTimeMs must be > 0")
        if t.selectivity <= 0:
            violations.append(f"task {t.taskId}: selectivity must be > 0")
        if t.instanceCount < 1:
            violations.append(f"task {t.taskId}: instanceCount must be >= 1")
    dangling = False
    for e in dag.edges:
        if e.fromTask not in id_set or e.toTask not in id_set:
            dangling = True
            violations.append(f"edge {e.fromTask}->{e.toTask} references unknown task")
        if e.grouping not in ("DUPLICATE", "SHUFFLE"):
            violations.append(f"edge {e.fromTask}->{e.toTask}: unknown grouping {e.grouping}")
    if len(dag.sourceTasks) != 1:
        violations.append(f"{len(dag.sourceTasks)} source tasks declared; a dag has one")
    for s in dag.sourceTasks:
        if s not in id_set:
            violations.append(f"source task {s} not declared")
        elif any(e.toTask == s for e in dag.edges):
            violations.append(f"source {s} has in-edge")
    for s in dag.sinkTasks:
        if s not in id_set:
            violations.append(f"sink task {s} not declared")
        elif any(e.fromTask == s for e in dag.edges):
            violations.append(f"sink {s} has out-edge")
    if dangling:
        return tuple(violations)
    order = rescanning_kahn(dag)
    if len(order) != len(dag.tasks):
        violations.append(f"cycle involving: {', '.join(sorted(id_set - set(order)))}")
    else:
        reachable = set(dag.sourceTasks)
        for tid in order:
            if tid in reachable:
                reachable.update(e.toTask for e in dag.edges if e.fromTask == tid)
        unreachable = [tid for tid in ids if tid not in reachable]
        if unreachable:
            violations.append(f"not reachable from any source: {', '.join(unreachable)}")
        feeds_sink = set(dag.sinkTasks)
        for tid in reversed(order):
            if any(e.toTask in feeds_sink for e in dag.edges if e.fromTask == tid):
                feeds_sink.add(tid)
        dead_ends = [tid for tid in ids if tid not in feeds_sink]
        if dead_ends:
            violations.append(f"reaches no sink: {', '.join(dead_ends)} "
                              f"(list a terminal task in sinkTasks)")
    return tuple(violations)


def rescanning_rates(dag, source_rate):
    """compute_cumulative_rates as it was before the adjacency pass."""
    rates = {t.taskId: 0.0 for t in dag.tasks}
    for tid in rescanning_kahn(dag):
        if tid in dag.sourceTasks:
            out_rate = source_rate
        else:
            out_rate = rates[tid] * dag.task(tid).selectivity
        out = [e for e in dag.edges if e.fromTask == tid]
        shuffles = len([e for e in out if e.grouping == "SHUFFLE"])
        for e in out:
            rates[e.toTask] += out_rate if e.grouping == "DUPLICATE" else out_rate / shuffles
    return rates


@st.composite
def valid_dags(draw):
    """A valid dag: src -> T0..Tn-1 -> sink, every task fed by an earlier
    one and feeding a later one, declared in a drawn order."""
    n = draw(st.integers(1, 8))
    names = ["src", *(f"T{i}" for i in range(n)), "sink"]
    edges = set()
    for i in range(1, n + 1):
        edges.add((names[draw(st.integers(0, i - 1))], names[i]))
        edges.add((names[i], names[draw(st.integers(i + 1, n + 1))]))
    extra = st.tuples(st.integers(0, n), st.integers(1, n + 1)).filter(lambda p: p[0] < p[1])
    edges.update((names[a], names[b]) for a, b in draw(st.lists(extra, max_size=6)))
    edges = draw(st.permutations(sorted(edges)))
    tasks = [TaskDef(name) for name in draw(st.permutations(names))]
    return DagDef("drawn", tuple(tasks),
                  tuple(Edge(a, b, draw(st.sampled_from(("SHUFFLE", "DUPLICATE"))))
                        for a, b in edges),
                  ("src",), ("sink",))


@st.composite
def any_graphs(draw):
    """Any small graph over declared ids: cycles, self-loops, duplicate ids,
    bad groupings and missing endpoints included.  In half the draws, edge
    ends, sources and sinks may also name the undeclared task ``zz``."""
    ids = draw(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6))
    ends = st.sampled_from(ids + ["zz"] if draw(st.booleans()) else ids)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from(("SHUFFLE", "DUPLICATE", "X"))),
                          max_size=10))
    return DagDef("any", tuple(TaskDef(i) for i in ids), tuple(Edge(*e) for e in edges),
                  tuple(draw(st.lists(ends, max_size=2))), tuple(draw(st.lists(ends, max_size=2))))


class TestAdjacencyPass:
    def test_topological_order_matches_the_rescanning_kahn_on_bundled_dags(self):
        for name in bundled_dag_names():
            dag = load_bundled_dag(name)
            assert dag.topological_order() == rescanning_kahn(dag), name

    @settings(max_examples=100, deadline=None)
    @given(dag=valid_dags())
    def test_topological_order_matches_the_rescanning_kahn_on_drawn_dags(self, dag):
        assert validate_dag(dag) == ()
        assert dag.topological_order() == rescanning_kahn(dag)

    @settings(max_examples=200, deadline=None)
    @given(dag=any_graphs())
    def test_validate_dag_matches_the_rescanning_reference_on_any_graph(self, dag):
        assert validate_dag(dag) == rescanning_validate_dag(dag)
        if not any(e.toTask == "zz" for e in dag.edges):
            assert dag.topological_order() == rescanning_kahn(dag)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_validate_dag_matches_the_rescanning_reference_on_mutated_documents(self, data):
        # TestLoaderMutations' one-field mutations, applied to bundled dag
        # documents: each dag the loader builds is checked against the
        # reference.
        doc = draw_mutation(data, bundled_dag_doc(data.draw(st.sampled_from(bundled_dag_names()))))
        built = []

        def spy(dag):
            built.append(dag)
            return validate_dag(dag)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "validate_dag", spy)
            try:
                parse_dag(doc)
            except ConfigError:
                pass
        for dag in built:
            assert validate_dag(dag) == rescanning_validate_dag(dag)

    @settings(max_examples=50, deadline=None)
    @given(dag=valid_dags())
    def test_cumulative_rates_match_the_rescanning_reference(self, dag):
        for d in [dag, *map(load_bundled_dag, bundled_dag_names())]:
            assert compute_cumulative_rates(d, 8) == rescanning_rates(d, 8), d.name


class TestBundledLoader:
    def test_each_bundled_dag_is_parsed_once(self):
        for name in bundled_dag_names():
            assert load_bundled_dag(name) is load_bundled_dag(name), name

    def test_listings_are_fresh_lists(self):
        names = bundled_dag_names()
        names.append("extra")
        assert "extra" not in bundled_dag_names()
        scenarios = model.bundled_scenario_names()
        scenarios.clear()
        assert "grid_scalein" in model.bundled_scenario_names()

    @pytest.mark.parametrize("name", ["../scenarios/grid_scalein", "nonesuch"])
    def test_a_name_outside_the_listing_is_rejected_every_time(self, name):
        available = ", ".join(bundled_dag_names())
        for _ in range(2):
            with pytest.raises(ConfigError) as info:
                load_bundled_dag(name)
            assert str(info.value) == f"unknown bundled dag {name!r}; available: {available}"


SRC = Path(model.__file__).parent


class TestRecords:
    def test_no_module_imports_dataclasses(self):
        # The decorator generates code at import time; records are
        # NamedTuples or __slots__ classes.
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    assert "dataclasses" not in [a.name for a in node.names], path.name
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "dataclasses", path.name

    def test_scenario_config_and_task_def_are_immutable(self):
        config = load_bundled_scenario("linear_scalein")
        with pytest.raises(AttributeError):
            config.strategy = "DSM"
        with pytest.raises(AttributeError):
            config.dag.tasks[0].serviceTimeMs = 5
        assert with_overrides(config, strategy="CCR").strategy == "CCR"
        assert config.strategy == "DSM"
