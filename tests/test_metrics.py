import pickle
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain_dag, make_scenario
from flowmigrate.errors import MetricsError, NeverStabilizedError, NoSinkOutputError
from flowmigrate.metrics import (
    CSV_HEADER,
    PHASE,
    REPLAY,
    SINK_EXIT,
    SOURCE_EMIT,
    RateSeries,
    Timeline,
    TimelineRecord,
    compute_catchup,
    compute_drain_capture_duration,
    compute_recovery,
    compute_rebalance_duration,
    compute_report,
    compute_stabilization,
    compute_restore_duration,
    count_replays,
    exactly_once_audit,
    replay_bursts,
)
from flowmigrate.model import STRATEGIES, load_bundled_dag, with_overrides
from flowmigrate.runtime import SimulationEngine


def migration_timeline(request_s=180, rebalance_start_s=182, rebalance_done_s=189,
                       first_exit_s=195, init_acked_s=None):
    """Minimal hand-built timeline around one migration; the first INIT
    wave completes with the rebalance unless ``init_acked_s`` says later."""
    def ms(s):  # the writers take int ms, like the engine's clock
        return round(s * 1000)

    tl = Timeline()
    tl.record_emit(0, 100, 0, 0)
    tl.record_sink_exit(200, 101, 0, 0, False)
    tl.record_phase(ms(request_s), "REQUEST")
    tl.record_phase(ms(rebalance_start_s), "REBALANCE_START")
    tl.record_phase(ms(rebalance_done_s), "REBALANCE_DONE")
    acked_s = rebalance_done_s if init_acked_s is None else init_acked_s
    tl.record_phase(ms(acked_s), "FIRST_INIT_ACKED")
    tl.record_sink_exit(ms(first_exit_s), 102, 1, 0, False)
    return tl


class TestRestore:
    def test_fifteen_second_example(self):
        # Request at 180s, first post-rebalance sink exit at 195s -> 15s.
        tl = migration_timeline()
        assert compute_restore_duration(tl) == 15_000

    def test_continuous_sink_output_gives_small_value(self):
        tl = migration_timeline()
        # Output flowing through the non-migrated path right as the
        # rebalance completes.
        tl.record_sink_exit(189_050, 103, 2, 0, False)
        assert compute_restore_duration(tl) == 9_050

    def test_pre_rebalance_drain_exits_do_not_count(self):
        tl = migration_timeline()
        tl.record_sink_exit(180_500, 104, 3, 0, False)  # still draining out
        assert compute_restore_duration(tl) == 15_000

    def test_old_deployment_exits_before_first_init_do_not_count(self):
        # A near-zero rebalance: an event in service at the request leaves
        # the sink after REBALANCE_DONE but before any INIT wave completed.
        tl = migration_timeline(rebalance_start_s=180, rebalance_done_s=180,
                                init_acked_s=192)
        tl.record_sink_exit(180_025, 104, 3, 0, False)
        assert compute_restore_duration(tl) == 15_000

    def test_no_first_init_means_no_restore(self):
        tl = Timeline()
        tl.record_phase(180_000, "REQUEST")
        tl.record_phase(189_000, "REBALANCE_START")
        tl.record_phase(190_000, "REBALANCE_DONE")
        tl.record_sink_exit(195_000, 102, 1, 0, False)
        assert compute_restore_duration(tl) is None

    def test_no_output_after_rebalance_is_an_error(self):
        tl = Timeline()
        tl.record_phase(180_000, "REQUEST")
        tl.record_phase(189_000, "REBALANCE_START")
        tl.record_phase(190_000, "REBALANCE_DONE")
        tl.record_phase(190_000, "FIRST_INIT_ACKED")
        with pytest.raises(NoSinkOutputError):
            compute_restore_duration(tl)

    def test_missing_request_marker(self):
        with pytest.raises(MetricsError):
            compute_restore_duration(Timeline())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rebalance_delta_adds_exactly_delta_from_zero(self, strategy):
        # At a zero rebalance the first sink exit after REBALANCE_DONE is
        # an old-deployment event that was in service at the request; the
        # restore must still measure the migrated dataflow.
        base = make_scenario(make_chain_dag(), strategy)
        restores = [
            compute_restore_duration(
                SimulationEngine(with_overrides(base, rebalanceDuration=delta_ms / 1000)).run())
            for delta_ms in (0, 1, 500)
        ]
        assert [r - restores[0] for r in restores] == [0, 1, 500], restores


class TestDrainCapture:
    def test_duration_between_markers(self):
        tl = migration_timeline(request_s=180, rebalance_start_s=181.875)
        assert compute_drain_capture_duration(tl, "DCR") == 1875

    def test_not_applicable_for_dsm(self):
        assert compute_drain_capture_duration(migration_timeline(), "DSM") is None

    def test_rebalance_duration(self):
        tl = migration_timeline(rebalance_start_s=182, rebalance_done_s=189.26)
        assert compute_rebalance_duration(tl) == 7260


class TestCatchupRecovery:
    def test_catchup_is_last_epoch0_exit(self):
        tl = migration_timeline()
        tl.record_sink_exit(200_000, 7, 5, 0, False)
        tl.record_sink_exit(230_000, 8, 6, 0, True)   # replayed old event
        tl.record_sink_exit(260_000, 9, 7, 1, False)  # new epoch, later
        assert compute_catchup(tl, "DSM") == 50_000
        assert compute_catchup(tl, "CCR") == 50_000

    def test_catchup_not_applicable_for_dcr(self):
        assert compute_catchup(migration_timeline(), "DCR") is None

    def test_recovery_only_for_dsm(self):
        tl = migration_timeline()
        tl.record_sink_exit(240_000, 8, 6, 0, True)
        assert compute_recovery(tl, "DSM") == 60_000
        assert compute_recovery(tl, "DCR") is None
        assert compute_recovery(tl, "CCR") is None


class TestStabilization:
    def build(self, rates, request_s=10):
        tl = Timeline()
        tl.record_phase(request_s * 1000, "REQUEST")
        tl.record_phase(request_s * 1000 + 10, "REBALANCE_START")
        tl.record_phase(request_s * 1000 + 20, "REBALANCE_DONE")
        event = 0
        for second, rate in enumerate(rates):
            for k in range(rate):
                tl.record_sink_exit(second * 1000 + k, event, event, 1, False)
                event += 1
        return tl

    def test_immediately_stable_returns_request(self):
        tl = self.build([8] * 100)
        assert compute_stabilization(tl, 8.0, 100_000) == 0

    def test_band_is_twenty_percent(self):
        # 32 ev/s expected: 26..38 in-band, 39 out.
        rates = [39] * 30 + [32] * 80
        tl = self.build(rates, request_s=10)
        assert compute_stabilization(tl, 32.0, 110_000) == 20_000

    def test_oscillating_output_never_stabilizes(self):
        rates = [0, 64] * 50
        tl = self.build(rates)
        with pytest.raises(NeverStabilizedError):
            compute_stabilization(tl, 32.0, 100_000)

    def test_window_must_fit_run(self):
        tl = self.build([8] * 40)  # only 30s of stable data after request
        with pytest.raises(NeverStabilizedError):
            compute_stabilization(tl, 8.0, 40_000)


class TestAudit:
    def test_conservation_without_migration(self):
        tl = Timeline()
        for i in range(100):
            tl.record_emit(i * 125, i + 1, i, 0)
            tl.record_sink_exit(i * 125 + 300, i + 1000, i, 0, False)
        assert exactly_once_audit(tl, load_bundled_dag("linear")) == []

    def test_loss_detected(self):
        tl = Timeline()
        tl.record_emit(0, 1, 0, 0)
        failures = exactly_once_audit(tl, load_bundled_dag("linear"))
        assert failures and failures[0].observed == 0

    def test_duplicates_fail_equality_but_pass_at_least(self):
        tl = Timeline()
        tl.record_emit(0, 1, 0, 0)
        tl.record_sink_exit(300, 2, 0, 0, False)
        tl.record_sink_exit(400, 3, 0, 0, True)
        dag = load_bundled_dag("linear")
        assert exactly_once_audit(tl, dag)
        assert exactly_once_audit(tl, dag, at_least=True) == []

    def test_grid_multiplicity_expectation(self):
        tl = Timeline()
        tl.record_emit(0, 1, 0, 0)
        for k in range(4):
            tl.record_sink_exit(900 + k, 10 + k, 0, 0, False)
        assert exactly_once_audit(tl, load_bundled_dag("grid")) == []


class TestReplaysAndBursts:
    def test_count_replays_since_request(self):
        tl = Timeline()
        tl.record_phase(100_000, "REQUEST")
        tl.record_replay(90_000, 1, 0, 0)
        tl.record_replay(130_000, 2, 1, 0)
        assert count_replays(tl) == 1

    def test_bursts_clustered_and_filtered(self):
        tl = Timeline()
        for k in range(10):
            tl.record_replay(30_000 + k, k, k, 0)
        for k in range(8):
            tl.record_replay(60_000 + k, 100 + k, k, 0)
        tl.record_replay(90_000, 200, 0, 0)  # lone replay: noise
        bursts = replay_bursts(tl, min_size=5)
        assert [(ts, n) for ts, n in bursts] == [(30_000, 10), (60_000, 8)]


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        tl = migration_timeline()
        tl.record_replay(200_000, 5, 4, 0)
        path = tmp_path / "timeline.csv"
        tl.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        back = Timeline.from_csv(path)
        assert back.records == tl.records
        assert back.to_csv() == text


ts_ms = st.integers(0, 2 ** 63 - 1)
event_ids = st.integers(0, 2 ** 64 - 1)
root_seqs = st.integers(0, 2 ** 63 - 1)
epochs = st.sampled_from((0, 1))
writes = st.lists(st.one_of(
    st.tuples(st.just(SOURCE_EMIT), ts_ms, event_ids, root_seqs, epochs),
    st.tuples(st.just(REPLAY), ts_ms, event_ids, root_seqs, epochs),
    st.tuples(st.just(SINK_EXIT), ts_ms, event_ids, root_seqs, epochs, st.booleans()),
    st.tuples(st.just(PHASE), ts_ms,
              st.sampled_from(("REQUEST", "REBALANCE_START", "FIRST_INIT_ACKED"))),
), max_size=40)


def write_both(ops):
    """Replay writer calls on a Timeline and on a list-of-records oracle."""
    tl = Timeline()
    oracle = []
    for site, ts, *rest in ops:
        if site == PHASE:
            tl.record_phase(ts, rest[0])
            oracle.append(TimelineRecord(ts, PHASE, 0, -1, 0, False, rest[0]))
        elif site == SINK_EXIT:
            tl.record_sink_exit(ts, *rest)
            oracle.append(TimelineRecord(ts, site, *rest, ""))
        else:
            (tl.record_emit if site == SOURCE_EMIT else tl.record_replay)(ts, *rest)
            oracle.append(TimelineRecord(ts, site, *rest, site == REPLAY, ""))
    return tl, oracle


def oracle_csv(records):
    return "".join(
        [CSV_HEADER + "\n"]
        + [f"{r.ts},{r.site},{r.eventId},{r.rootSeqNo},{r.epoch},"
           f"{1 if r.replayed else 0},{r.phaseName}\n" for r in records])


class TestColumnTimeline:
    """The column storage against a plain list of records."""

    @settings(max_examples=150, deadline=None)
    @given(writes, st.lists(st.integers(0, 10 ** 6), max_size=5))
    def test_matches_list_of_records(self, ops, deletions):
        tl, oracle = write_both(ops)
        for k in deletions:
            if oracle:
                del tl.records[k % len(oracle)]
                del oracle[k % len(oracle)]
        assert len(tl) == len(tl.records) == len(oracle)
        assert tl.records == oracle
        assert [tl.records[i] for i in range(-len(oracle), len(oracle))] == oracle + oracle
        assert list(tl.sink_exits()) == [r for r in oracle if r.site == SINK_EXIT]
        assert list(tl.replays()) == [r for r in oracle if r.site == REPLAY]
        for name in ("REQUEST", "FIRST_INIT_ACKED"):
            assert tl.phase_ts(name) == next(
                (r.ts for r in oracle if r.site == PHASE and r.phaseName == name), None)
        text = tl.to_csv()
        assert text == oracle_csv(oracle)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "timeline.csv"
            path.write_text(text)
            back = Timeline.from_csv(path)
        assert back.records == oracle
        assert back.phases == tl.phases
        assert back.to_csv() == text

    def test_index_out_of_range(self):
        tl, _ = write_both([(PHASE, 5, "REQUEST")])
        with pytest.raises(IndexError):
            tl.records[1]
        with pytest.raises(IndexError):
            del tl.records[-2]

    @pytest.mark.parametrize("row", ["1,NOWHERE,0,0,0,0,", "1,SINK_EXIT,0,0,0,0",
                                     "x,PHASE,0,-1,0,0,A", "1,SINK_EXIT,0,0,0,0,REQUEST"])
    def test_malformed_csv_rows_are_rejected(self, tmp_path, row):
        path = tmp_path / "timeline.csv"
        path.write_text(f"{CSV_HEADER}\n{row}\n")
        with pytest.raises(MetricsError):
            Timeline.from_csv(path)

    def test_columns_hold_at_most_32_bytes_per_record(self, suite_cache):
        timeline = suite_cache.get("linear_scalein", "DCR").timeline
        columns = (timeline.ts, timeline.sites, timeline.event_ids, timeline.root_seqs,
                   timeline.epochs, timeline.replayed)
        assert len(timeline) > 10_000
        assert sum(sys.getsizeof(c) for c in columns) <= 32 * len(timeline)

    def test_run_result_pickles_compactly(self, suite_cache):
        run = suite_cache.get("linear_scalein", "DCR")
        blob = pickle.dumps(run)
        back = pickle.loads(blob)
        assert back.timeline.to_csv() == run.timeline.to_csv()
        assert back.report.to_json() == run.report.to_json()
        assert len(blob) <= 40 * len(run.timeline)


class TestRateSeries:
    def test_windows_tile_without_gaps(self):
        tl = Timeline()
        for i in range(40):
            tl.record_emit(i * 125, i, i, 0)
            tl.record_sink_exit(i * 125 + 200, 100 + i, i, 0, False)
        series = RateSeries(tl, horizon_ms=5_000)
        assert len(series.input_counts) == 5
        assert sum(series.input_counts) == 40
        assert series.input_counts[0] == 8

    def test_latency_pairs_exit_with_first_emission(self):
        tl = Timeline()
        tl.record_emit(0, 1, 0, 0)
        tl.record_replay(30_000, 1, 0, 0)
        tl.record_sink_exit(30_500, 2, 0, 0, True)
        series = RateSeries(tl, horizon_ms=31_000)
        latencies = series.latency_series()
        # Latency includes the replay delay: measured from first emission.
        assert latencies == [(30_500, 30_500.0)]


class TestReportShape:
    def test_na_metrics_serialized_as_null(self, suite_cache):
        run = suite_cache.get("linear_scalein", "DCR")
        text = run.report.to_json()
        assert '"catchupTimeMs": null' in text
        assert '"recoveryTimeMs": null' in text

    def test_report_recomputation_is_idempotent(self, suite_cache):
        run = suite_cache.get("linear_scalein", "CCR")
        again = compute_report(run.timeline, run.config)
        assert again == run.report
