"""Timeline capture and the derived migration-quality metrics.

The engine appends one record per source emission, replay, sink exit and
phase transition.  All metrics are pure functions of the finished
timeline, so recomputation is idempotent and the CSV round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import MetricsError, NeverStabilizedError, NoSinkOutputError
from .model import DagDef, ScenarioConfig, path_multiplicity, to_ms

SOURCE_EMIT = "SOURCE_EMIT"
SINK_EXIT = "SINK_EXIT"
PHASE = "PHASE"
REPLAY = "REPLAY"

CSV_HEADER = "ts_ms,site,event_id,root_seq,epoch,replayed,phase"


class TimelineRecord(NamedTuple):
    """One timeline row.  The ``record_*`` writers build it with
    ``tuple.__new__``, which skips the namedtuple's Python-level
    ``__new__``; the record keeps its type and field names."""

    ts: int
    site: str
    eventId: int
    rootSeqNo: int
    epoch: int
    replayed: bool
    phaseName: str


class Timeline:
    """Append-only run journal; one writer (the engine), then immutable."""

    def __init__(self) -> None:
        self.records: list[TimelineRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def record_emit(self, ts: int, event_id: int, root_seq: int, epoch: int) -> None:
        self.records.append(
            tuple.__new__(TimelineRecord, (ts, SOURCE_EMIT, event_id, root_seq, epoch, False, "")))

    def record_replay(self, ts: int, event_id: int, root_seq: int, epoch: int) -> None:
        self.records.append(
            tuple.__new__(TimelineRecord, (ts, REPLAY, event_id, root_seq, epoch, True, "")))

    def record_sink_exit(self, ts: int, event_id: int, root_seq: int, epoch: int,
                         replayed: bool) -> None:
        self.records.append(tuple.__new__(
            TimelineRecord, (ts, SINK_EXIT, event_id, root_seq, epoch, replayed, "")))

    def record_phase(self, ts: int, name: str) -> None:
        self.records.append(tuple.__new__(TimelineRecord, (ts, PHASE, 0, -1, 0, False, name)))

    # -- lookups -----------------------------------------------------------

    def phase_ts(self, name: str, after: int | None = None) -> int | None:
        for rec in self.records:
            if rec.site == PHASE and rec.phaseName == name:
                if after is None or rec.ts >= after:
                    return rec.ts
        return None

    def request_ts(self) -> int:
        ts = self.phase_ts("REQUEST")
        if ts is None:
            raise MetricsError("timeline has no REQUEST marker")
        return ts

    def sink_exits(self) -> Iterable[TimelineRecord]:
        return (r for r in self.records if r.site == SINK_EXIT)

    def replays(self) -> Iterable[TimelineRecord]:
        return (r for r in self.records if r.site == REPLAY)

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.ts},{r.site},{r.eventId},{r.rootSeqNo},{r.epoch},"
                f"{1 if r.replayed else 0},{r.phaseName}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())

    @classmethod
    def from_csv(cls, path: str | Path) -> "Timeline":
        timeline = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise MetricsError(f"unexpected timeline header: {header}")
            for line in fh:
                ts, site, eid, rseq, epoch, replayed, phase = line.rstrip("\n").split(",")
                timeline.records.append(
                    TimelineRecord(int(ts), site, int(eid), int(rseq), int(epoch),
                                   replayed == "1", phase)
                )
        return timeline


@dataclass
class MetricsReport:
    """The seven migration metrics; durations in ms from the request.

    Metrics that do not apply to a strategy are None (serialized as null):
    drain/capture for DSM, catchup for DCR, recovery for DCR and CCR.
    """

    scenario: str
    strategy: str
    seed: int
    restoreDurationMs: int | None
    drainCaptureDurationMs: int | None
    rebalanceDurationMs: int | None
    catchupTimeMs: int | None
    recoveryTimeMs: int | None
    stabilizationTimeMs: int | None
    replayedCount: int
    expectedOutputRate: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2) + "\n"


def compute_restore_duration(timeline: Timeline) -> int | None:
    """First sink output of the migrated dataflow, relative to the request.

    Measured from the first SINK_EXIT at or after FIRST_INIT_ACKED, the
    first moment the migrated dataflow exists: events still leaving the
    old deployment, even after a near-zero rebalance, do not count as the
    restored dataflow producing output.  None when the migration rolled
    back before any INIT wave completed.
    """
    request = timeline.request_ts()
    restored = timeline.phase_ts("FIRST_INIT_ACKED", after=request)
    if restored is None:
        return None
    first = min((rec.ts for rec in timeline.records
                 if rec.site == SINK_EXIT and rec.ts >= restored), default=None)
    if first is None:
        raise NoSinkOutputError("no sink output after the migrated dataflow restored")
    return first - request


def compute_drain_capture_duration(timeline: Timeline, strategy: str) -> int | None:
    """Request-to-rebalance gap: drain (DCR) or capture (CCR); DSM has none,
    nor has a migration rolled back before its rebalance."""
    if strategy == "DSM":
        return None
    request = timeline.request_ts()
    start = timeline.phase_ts("REBALANCE_START", after=request)
    return None if start is None else start - request


def compute_rebalance_duration(timeline: Timeline) -> int | None:
    """REBALANCE_START to REBALANCE_DONE; None without a rebalance."""
    request = timeline.request_ts()
    start = timeline.phase_ts("REBALANCE_START", after=request)
    done = timeline.phase_ts("REBALANCE_DONE", after=request)
    return None if start is None or done is None else done - start


def compute_catchup(timeline: Timeline, strategy: str) -> int | None:
    """When the last pre-migration (epoch 0) event left a sink; N/A for DCR,
    which drains all old events before migrating."""
    if strategy == "DCR":
        return None
    request = timeline.request_ts()
    last = None
    for rec in timeline.records:
        if rec.site == SINK_EXIT and rec.epoch == 0 and rec.ts >= request:
            last = rec.ts
    return None if last is None else last - request


def compute_recovery(timeline: Timeline, strategy: str) -> int | None:
    """When the last replayed event left a sink; only DSM replays."""
    if strategy in ("DCR", "CCR"):
        return None
    request = timeline.request_ts()
    last = None
    for rec in timeline.records:
        if rec.site == SINK_EXIT and rec.replayed and rec.ts >= request:
            last = rec.ts
    return None if last is None else last - request


def output_rate_buckets(timeline: Timeline, horizon_ms: int) -> list[int]:
    """Sink exits per 1-second bucket over [0, horizon)."""
    buckets = [0] * (horizon_ms // 1000)
    for rec in timeline.records:
        if rec.site == SINK_EXIT and rec.ts < horizon_ms:
            buckets[rec.ts // 1000] += 1
    return buckets


def compute_stabilization(timeline: Timeline, expected_rate: float,
                          horizon_ms: int, window_s: int = 60,
                          tolerance: float = 0.2) -> int:
    """Start of the first 60 s window (at or after the request) in which
    every 1 s output-rate bucket stays within the tolerance band."""
    request = timeline.request_ts()
    buckets = output_rate_buckets(timeline, horizon_ms)
    lo = expected_rate * (1 - tolerance)
    hi = expected_rate * (1 + tolerance)
    start_s = request // 1000
    run = 0
    for sec in range(start_s, len(buckets)):
        if lo <= buckets[sec] <= hi:
            run += 1
            if run == window_s:
                return (sec - window_s + 1) * 1000 - request
        else:
            run = 0
    raise NeverStabilizedError(
        f"output never stayed within ±{tolerance:.0%} of {expected_rate:g}/s "
        f"for {window_s}s"
    )


def count_replays(timeline: Timeline, since: int | None = None) -> int:
    if since is None:
        try:
            since = timeline.request_ts()
        except MetricsError:
            since = 0
    return sum(1 for r in timeline.replays() if r.ts >= since)


@dataclass(frozen=True)
class AuditFailure:
    rootSeqNo: int
    expected: int
    observed: int


def exactly_once_audit(timeline: Timeline, dag: DagDef,
                       at_least: bool = False) -> list[AuditFailure]:
    """Check every emitted root produced the right number of sink exits.

    Expected arrivals per root equal the DAG's source-to-sink path count.
    Under at-least-once (DSM) duplicates are allowed, losses are not.
    Returns failures; an empty list is a pass.
    """
    multiplicity = path_multiplicity(dag)
    emitted: set[int] = set()
    observed: dict[int, int] = {}
    for rec in timeline.records:
        if rec.site == SOURCE_EMIT:
            emitted.add(rec.rootSeqNo)
        elif rec.site == SINK_EXIT:
            observed[rec.rootSeqNo] = observed.get(rec.rootSeqNo, 0) + 1
    failures = []
    for root_seq in sorted(emitted):
        got = observed.get(root_seq, 0)
        ok = got >= multiplicity if at_least else got == multiplicity
        if not ok:
            failures.append(AuditFailure(root_seq, multiplicity, got))
    return failures


def sink_multiset(timeline: Timeline) -> dict[int, int]:
    """rootSeqNo -> sink-exit count, for run-to-run equivalence checks."""
    counts: dict[int, int] = {}
    for rec in timeline.records:
        if rec.site == SINK_EXIT:
            counts[rec.rootSeqNo] = counts.get(rec.rootSeqNo, 0) + 1
    return counts


def replay_bursts(timeline: Timeline, since: int | None = None,
                  gap_ms: int = 5000, min_size: int = 5) -> list[tuple[int, int]]:
    """Cluster replay records into bursts: [(start_ts, size), ...].

    Consecutive replays closer than ``gap_ms`` belong to one burst; bursts
    smaller than ``min_size`` are dropped as noise.
    """
    times = sorted(r.ts for r in timeline.replays() if since is None or r.ts >= since)
    bursts: list[tuple[int, int]] = []
    start = prev = None
    size = 0
    for ts in times:
        if start is None or ts - prev > gap_ms:
            if start is not None and size >= min_size:
                bursts.append((start, size))
            start, size = ts, 0
        size += 1
        prev = ts
    if start is not None and size >= min_size:
        bursts.append((start, size))
    return bursts


class RateSeries:
    """Input/output event counts per fixed window plus a latency series."""

    def __init__(self, timeline: Timeline, horizon_ms: int, window_ms: int = 1000) -> None:
        self.window_ms = window_ms
        n = -(-horizon_ms // window_ms)
        self.input_counts = [0] * n
        self.output_counts = [0] * n
        first_emit: dict[int, int] = {}
        exits: list[tuple[int, int]] = []
        for rec in timeline.records:
            if rec.ts >= horizon_ms:
                continue
            if rec.site in (SOURCE_EMIT, REPLAY):
                self.input_counts[rec.ts // window_ms] += 1
                if rec.site == SOURCE_EMIT:
                    first_emit.setdefault(rec.rootSeqNo, rec.ts)
            elif rec.site == SINK_EXIT:
                self.output_counts[rec.ts // window_ms] += 1
                exits.append((rec.ts, rec.rootSeqNo))
        self._exits = exits
        self._first_emit = first_emit

    def latency_series(self, window_ms: int = 10_000) -> list[tuple[int, float]]:
        """(window_end_ts, mean end-to-end latency) over a moving window.

        Latency pairs each sink exit with its root's first emission, so
        replay delay is included.
        """
        out: list[tuple[int, float]] = []
        window: list[tuple[int, int]] = []
        for ts, root_seq in self._exits:
            emit = self._first_emit.get(root_seq)
            if emit is None:
                continue
            window.append((ts, ts - emit))
            while window and window[0][0] < ts - window_ms:
                window.pop(0)
            out.append((ts, sum(lat for _, lat in window) / len(window)))
        return out


def compute_report(timeline: Timeline, config: ScenarioConfig) -> MetricsReport:
    """Derive the full seven-metric report for one finished run."""
    strategy = config.strategy
    horizon_ms = to_ms(config.runDuration)
    expected_rate = config.sourceRate * path_multiplicity(config.dag)
    try:
        stabilization = compute_stabilization(timeline, expected_rate, horizon_ms)
    except NeverStabilizedError:
        stabilization = None
    return MetricsReport(
        scenario=config.name,
        strategy=strategy,
        seed=config.randomSeed,
        restoreDurationMs=compute_restore_duration(timeline),
        drainCaptureDurationMs=compute_drain_capture_duration(timeline, strategy),
        rebalanceDurationMs=compute_rebalance_duration(timeline),
        catchupTimeMs=compute_catchup(timeline, strategy),
        recoveryTimeMs=compute_recovery(timeline, strategy),
        stabilizationTimeMs=stabilization,
        replayedCount=count_replays(timeline),
        expectedOutputRate=expected_rate,
    )
