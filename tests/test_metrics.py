import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chain_dag, make_scenario
from flowmigrate.errors import InvariantViolation
from flowmigrate.metrics import (
    CSV_CHUNK_ROWS,
    CSV_HEADER,
    PHASE,
    REPLAY,
    SINK_EXIT,
    SOURCE_EMIT,
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
    output_rate_buckets,
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

    def test_no_output_after_restore_means_no_restore(self):
        tl = Timeline()
        tl.record_phase(180_000, "REQUEST")
        tl.record_phase(189_000, "REBALANCE_START")
        tl.record_phase(190_000, "REBALANCE_DONE")
        tl.record_phase(190_000, "FIRST_INIT_ACKED")
        assert compute_restore_duration(tl) is None

    def test_missing_request_marker(self):
        with pytest.raises(InvariantViolation, match="timeline has no REQUEST marker"):
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
        assert compute_stabilization(tl, 32.0, 100_000) is None

    def test_window_must_fit_run(self):
        tl = self.build([8] * 40)  # only 30s of stable data after request
        assert compute_stabilization(tl, 8.0, 40_000) is None

    def test_buckets_cover_whole_seconds_only(self):
        # A 1.5 s horizon has one whole second; the exit in its trailing
        # half second is not counted.
        tl = Timeline()
        tl.record_sink_exit(200, 1, 0, 0, False)
        tl.record_sink_exit(1_200, 2, 1, 0, False)
        assert output_rate_buckets(tl, 1_500) == [1]


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
        bursts = replay_bursts(tl, since=0)
        assert [(ts, n) for ts, n in bursts] == [(30_000, 10), (60_000, 8)]


ts_ms = st.integers(0, 2 ** 63 - 1)
event_ids = st.integers(0, 2 ** 64 - 1)
root_seqs = st.integers(0, 2 ** 31 - 1)  # the loader keeps a run's root seqs in int32
epochs = st.integers(0, 31)  # the engine's are 0 or 1; the flags byte holds 5 bits
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
        assert list(tl.records) == oracle
        assert list(tl.sink_exits()) == [r for r in oracle if r.site == SINK_EXIT]
        assert list(tl.replays()) == [r for r in oracle if r.site == REPLAY]
        for name in ("REQUEST", "FIRST_INIT_ACKED"):
            assert tl.phase_ts(name) == next(
                (r.ts for r in oracle if r.site == PHASE and r.phaseName == name), None)
        assert tl.to_csv() == oracle_csv(oracle)

    def test_index_out_of_range(self):
        tl, _ = write_both([(PHASE, 5, "REQUEST")])
        with pytest.raises(IndexError):
            del tl.records[-2]

    def test_values_past_the_columns_fail_loudly(self):
        # Each refused row leaves the four columns (and the phase list) as
        # they were, so the next valid row is whole.
        tl = Timeline()
        tl.record_emit(0, 9, 0, 0)
        refused = [
            (OverflowError, lambda: tl.record_emit(1, 1, 2 ** 31, 0)),  # the root seq
            (OverflowError, lambda: tl.record_emit(1, -1, 0, 0)),  # the event id
            (OverflowError, lambda: tl.record_replay(2 ** 63, 1, 0, 0)),  # the timestamp
            (ValueError, lambda: tl.record_sink_exit(1, 1, 0, 32, False)),  # the epoch
            (OverflowError, lambda: tl.record_phase(2 ** 63, "P")),
        ]
        expected = [TimelineRecord(0, SOURCE_EMIT, 9, 0, 0, False, "")]
        for error, append in refused:
            with pytest.raises(error):
                append()
            lengths = {len(column) for column in (tl.ts, tl.flags, tl.event_ids, tl.root_seqs)}
            assert lengths == {len(expected)} and len(tl.phases) == 0
            tl.record_replay(len(expected), 1, 2 ** 31 - 1, 31)
            expected.append(TimelineRecord(len(expected), REPLAY, 1, 2 ** 31 - 1, 31, True, ""))
            assert list(tl.records) == expected
            assert tl.to_csv() == oracle_csv(expected)

    def test_csv_blocks_match_the_records(self):
        # PHASE rows on both sides of two block boundaries, first and last.
        rows = 4 * CSV_CHUNK_ROWS + 17
        phase_rows = {0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                      4 * CSV_CHUNK_ROWS - 1, 4 * CSV_CHUNK_ROWS, rows - 1}
        draw = random.Random(7)
        ops = []
        for row in range(rows):
            ts, eid, seq, epoch = row * 3, draw.getrandbits(64), row // 2, row % 2
            if row in phase_rows:
                ops.append((PHASE, ts, f"P{row}"))
            elif row % 3 == 0:
                ops.append((SOURCE_EMIT, ts, eid, seq, epoch))
            elif row % 3 == 1:
                ops.append((SINK_EXIT, ts, eid, seq, epoch, row % 4 == 1))
            else:
                ops.append((REPLAY, ts, eid, seq, epoch))
        tl, oracle = write_both(ops)
        chunks = list(tl.csv_chunks())
        assert len(chunks) == 1 + 5 and chunks[0] == CSV_HEADER + "\n"
        assert tl.to_csv() == "".join(chunks) == oracle_csv(oracle)

    def test_columns_hold_at_most_24_bytes_per_record(self, suite_cache):
        timeline = suite_cache.get("linear_scalein", "DCR").timeline
        columns = (timeline.ts, timeline.flags, timeline.event_ids, timeline.root_seqs)
        assert len(timeline) > 10_000
        assert sum(sys.getsizeof(c) for c in columns) <= 24 * len(timeline)

    def test_csv_render_peaks_under_two_and_a_half_times_its_length(self, suite_cache):
        timeline = suite_cache.get("grid_scalein", "DSM").timeline
        assert len(timeline) > 7 * CSV_CHUNK_ROWS
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            csv = timeline.to_csv()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(csv)

    def test_run_result_pickles_compactly(self, suite_cache):
        run = suite_cache.get("linear_scalein", "DCR")
        blob = pickle.dumps(run)
        back = pickle.loads(blob)
        assert back.timeline.to_csv() == run.timeline.to_csv()
        assert back.report.to_json() == run.report.to_json()
        assert len(blob) <= 24 * len(run.timeline)


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
