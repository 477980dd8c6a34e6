"""Timeline capture and the derived migration-quality metrics.

The engine appends one record per source emission, replay, sink exit and
phase transition.  All metrics are pure functions of the finished
timeline, so recomputation is idempotent.  ``timeline.csv`` is written
for readers outside the program; nothing reads it back.

The timeline stores its records as typed columns, about 27 bytes a row,
and each metric scans only the columns it reads: ``Timeline.select``
picks one site's rows out of any column, or out of a ``zip`` of columns.
``Timeline.records`` is a view that rebuilds ``TimelineRecord`` rows for
tests and inspection; it is not the storage.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .errors import InvariantViolation
from .model import DagDef, ScenarioConfig, path_multiplicity, to_ms

SOURCE_EMIT = "SOURCE_EMIT"
SINK_EXIT = "SINK_EXIT"
PHASE = "PHASE"
REPLAY = "REPLAY"

CSV_HEADER = "ts_ms,site,event_id,root_seq,epoch,replayed,phase"

# Stabilization: the first window of this many 1 s output-rate buckets
# that all stay within this relative band of the expected rate.
STABILITY_WINDOW_S = 60
STABILITY_TOLERANCE = 0.2
# Replay bursts: replays closer than the gap form one burst, and bursts
# smaller than the minimum are noise.
BURST_GAP_MS = 5000
BURST_MIN_SIZE = 5

# A row's site is stored as its index in SITES.
SITES = (SOURCE_EMIT, SINK_EXIT, PHASE, REPLAY)
_EMIT, _SINK, _PHASE, _REPLAY = range(len(SITES))
# bytes.translate tables mapping the sites column to a 0/1 selector per site.
_SELECTOR = {site: bytes(int(b == code) for b in range(256))
             for code, site in enumerate(SITES)}


class TimelineRecord(NamedTuple):
    """One timeline row, as ``Timeline.records`` rebuilds it."""

    ts: int
    site: str
    eventId: int
    rootSeqNo: int
    epoch: int
    replayed: bool
    phaseName: str


class Timeline:
    """Append-only run journal; one writer (the engine), then immutable.

    Row ``i`` is ``ts[i]`` (ms), ``SITES[sites[i]]``, ``event_ids[i]``,
    ``root_seqs[i]``, ``epochs[i]`` and ``replayed[i]`` (0 or 1).  A PHASE
    row has event id 0, root seq -1 and epoch 0; its name lives in
    ``phases``, one ``(row, ts, name)`` entry per PHASE row in row order.
    """

    __slots__ = ("ts", "sites", "event_ids", "root_seqs", "epochs", "replayed", "phases")

    def __init__(self) -> None:
        self.ts = array("q")
        self.sites = bytearray()
        self.event_ids = array("Q")
        self.root_seqs = array("q")
        self.epochs = bytearray()
        self.replayed = bytearray()
        self.phases: list[tuple[int, int, str]] = []

    def __len__(self) -> int:
        return len(self.ts)

    def _append(self, ts: int, site: int, event_id: int, root_seq: int, epoch: int,
                replayed: bool) -> None:
        self.ts.append(ts)
        self.sites.append(site)
        self.event_ids.append(event_id)
        self.root_seqs.append(root_seq)
        self.epochs.append(epoch)
        self.replayed.append(replayed)

    def record_emit(self, ts: int, event_id: int, root_seq: int, epoch: int) -> None:
        self._append(ts, _EMIT, event_id, root_seq, epoch, False)

    def record_replay(self, ts: int, event_id: int, root_seq: int, epoch: int) -> None:
        self._append(ts, _REPLAY, event_id, root_seq, epoch, True)

    def record_sink_exit(self, ts: int, event_id: int, root_seq: int, epoch: int,
                         replayed: bool) -> None:
        self._append(ts, _SINK, event_id, root_seq, epoch, replayed)

    def record_phase(self, ts: int, name: str) -> None:
        self.phases.append((len(self.ts), ts, name))
        self._append(ts, _PHASE, 0, -1, 0, False)

    @property
    def records(self) -> "TimelineRecords":
        return TimelineRecords(self)

    # -- lookups -----------------------------------------------------------

    def select(self, site: str, column: Iterable) -> Iterator:
        """The items of ``column`` (one column, or a ``zip`` of columns) on
        the rows of ``site``, in row order."""
        return compress(column, self.sites.translate(_SELECTOR[site]))

    def phase_ts(self, name: str, after: int | None = None) -> int | None:
        for _row, ts, phase in self.phases:
            if phase == name and (after is None or ts >= after):
                return ts
        return None

    def request_ts(self) -> int:
        ts = self.phase_ts("REQUEST")
        if ts is None:
            raise InvariantViolation("timeline has no REQUEST marker")
        return ts

    def _records_at(self, site: str) -> Iterator[TimelineRecord]:
        rows = zip(self.ts, self.event_ids, self.root_seqs, self.epochs, self.replayed)
        return (TimelineRecord(ts, site, eid, rseq, epoch, bool(replayed), "")
                for ts, eid, rseq, epoch, replayed in self.select(site, rows))

    def sink_exits(self) -> Iterable[TimelineRecord]:
        return self._records_at(SINK_EXIT)

    def replays(self) -> Iterable[TimelineRecord]:
        return self._records_at(REPLAY)

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines += [f"{ts},{SITES[site]},{eid},{rseq},{epoch},{replayed},"
                  for ts, site, eid, rseq, epoch, replayed
                  in zip(self.ts, self.sites, self.event_ids, self.root_seqs,
                         self.epochs, self.replayed)]
        for row, _ts, name in self.phases:
            lines[row + 1] += name
        lines.append("")
        return "\n".join(lines)


class TimelineRecords:
    """A view of a timeline's rows as ``TimelineRecord``s, built on access,
    for tests and inspection.  Deleting a row deletes it from every column."""

    __slots__ = ("_timeline",)

    def __init__(self, timeline: Timeline) -> None:
        self._timeline = timeline

    def __len__(self) -> int:
        return len(self._timeline)

    def __iter__(self) -> Iterator[TimelineRecord]:
        tl = self._timeline
        names = {row: name for row, _ts, name in tl.phases}
        for row, (ts, site, eid, rseq, epoch, replayed) in enumerate(zip(
                tl.ts, tl.sites, tl.event_ids, tl.root_seqs, tl.epochs, tl.replayed)):
            yield TimelineRecord(ts, SITES[site], eid, rseq, epoch, bool(replayed),
                                 names.get(row, ""))

    def __delitem__(self, index: int) -> None:
        tl = self._timeline
        row = range(len(tl))[index]
        for column in (tl.ts, tl.sites, tl.event_ids, tl.root_seqs, tl.epochs, tl.replayed):
            del column[row]
        tl.phases = [(r - (r > row), ts, name) for r, ts, name in tl.phases if r != row]


class MetricsReport(NamedTuple):
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
        return json.dumps(self._asdict(), indent=2) + "\n"


def compute_restore_duration(timeline: Timeline) -> int | None:
    """First sink output of the migrated dataflow, relative to the request.

    Measured from the first SINK_EXIT at or after FIRST_INIT_ACKED, the
    first moment the migrated dataflow exists: events still leaving the
    old deployment, even after a near-zero rebalance, do not count as the
    restored dataflow producing output.  None when the migration rolled
    back before any INIT wave completed, or no sink exit follows it.
    """
    request = timeline.request_ts()
    restored = timeline.phase_ts("FIRST_INIT_ACKED", after=request)
    if restored is None:
        return None
    first = min((ts for ts in timeline.select(SINK_EXIT, timeline.ts) if ts >= restored),
                default=None)
    return None if first is None else first - request


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
    for ts, epoch in timeline.select(SINK_EXIT, zip(timeline.ts, timeline.epochs)):
        if epoch == 0 and ts >= request:
            last = ts
    return None if last is None else last - request


def compute_recovery(timeline: Timeline, strategy: str) -> int | None:
    """When the last replayed event left a sink; only DSM replays."""
    if strategy in ("DCR", "CCR"):
        return None
    request = timeline.request_ts()
    last = None
    for ts, replayed in timeline.select(SINK_EXIT, zip(timeline.ts, timeline.replayed)):
        if replayed and ts >= request:
            last = ts
    return None if last is None else last - request


def output_rate_buckets(timeline: Timeline, horizon_ms: int) -> list[int]:
    """Sink exits per 1-second bucket over the whole seconds of [0, horizon);
    exits in the last fraction of a second are not counted."""
    buckets = [0] * (horizon_ms // 1000)
    end = len(buckets) * 1000
    for ts in timeline.select(SINK_EXIT, timeline.ts):
        if ts < end:
            buckets[ts // 1000] += 1
    return buckets


def compute_stabilization(timeline: Timeline, expected_rate: float, horizon_ms: int) -> int | None:
    """Start of the first STABILITY_WINDOW_S window (at or after the
    request) in which every 1 s output-rate bucket stays within the
    STABILITY_TOLERANCE band; None when no such window fits before the
    horizon."""
    request = timeline.request_ts()
    buckets = output_rate_buckets(timeline, horizon_ms)
    lo = expected_rate * (1 - STABILITY_TOLERANCE)
    hi = expected_rate * (1 + STABILITY_TOLERANCE)
    start_s = request // 1000
    run = 0
    for sec in range(start_s, len(buckets)):
        if lo <= buckets[sec] <= hi:
            run += 1
            if run == STABILITY_WINDOW_S:
                return (sec - STABILITY_WINDOW_S + 1) * 1000 - request
        else:
            run = 0
    return None


def count_replays(timeline: Timeline) -> int:
    """Replays at or after the request."""
    since = timeline.request_ts()
    return sum(1 for ts in timeline.select(REPLAY, timeline.ts) if ts >= since)


class AuditFailure(NamedTuple):
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
    emitted = set(timeline.select(SOURCE_EMIT, timeline.root_seqs))
    observed = Counter(timeline.select(SINK_EXIT, timeline.root_seqs))
    failures = []
    for root_seq in sorted(emitted):
        got = observed.get(root_seq, 0)
        ok = got >= multiplicity if at_least else got == multiplicity
        if not ok:
            failures.append(AuditFailure(root_seq, multiplicity, got))
    return failures


def sink_multiset(timeline: Timeline) -> dict[int, int]:
    """rootSeqNo -> sink-exit count, for run-to-run equivalence checks."""
    return Counter(timeline.select(SINK_EXIT, timeline.root_seqs))


def replay_bursts(timeline: Timeline, since: int) -> list[tuple[int, int]]:
    """Cluster the replay records at or after ``since`` into bursts:
    [(start_ts, size), ...].

    Consecutive replays closer than BURST_GAP_MS belong to one burst;
    bursts smaller than BURST_MIN_SIZE are dropped as noise.
    """
    times = sorted(ts for ts in timeline.select(REPLAY, timeline.ts) if ts >= since)
    bursts: list[tuple[int, int]] = []
    start = prev = None
    size = 0
    for ts in times:
        if start is None or ts - prev > BURST_GAP_MS:
            if start is not None and size >= BURST_MIN_SIZE:
                bursts.append((start, size))
            start, size = ts, 0
        size += 1
        prev = ts
    if start is not None and size >= BURST_MIN_SIZE:
        bursts.append((start, size))
    return bursts


def compute_report(timeline: Timeline, config: ScenarioConfig) -> MetricsReport:
    """Derive the full seven-metric report for one finished run."""
    strategy = config.strategy
    horizon_ms = to_ms(config.runDuration)
    expected_rate = config.sourceRate * path_multiplicity(config.dag, strict=False)
    return MetricsReport(
        scenario=config.name,
        strategy=strategy,
        seed=config.randomSeed,
        restoreDurationMs=compute_restore_duration(timeline),
        drainCaptureDurationMs=compute_drain_capture_duration(timeline, strategy),
        rebalanceDurationMs=compute_rebalance_duration(timeline),
        catchupTimeMs=compute_catchup(timeline, strategy),
        recoveryTimeMs=compute_recovery(timeline, strategy),
        stabilizationTimeMs=compute_stabilization(timeline, expected_rate, horizon_ms),
        replayedCount=count_replays(timeline),
        expectedOutputRate=expected_rate,
    )
