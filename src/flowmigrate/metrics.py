"""Timeline capture and the derived migration-quality metrics.

The engine appends one record per source emission, replay, sink exit and
phase transition.  All metrics are pure functions of the finished
timeline, so recomputation is idempotent and the CSV round-trips.

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
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import MetricsError, NeverStabilizedError, NoSinkOutputError
from .model import DagDef, ScenarioConfig, path_multiplicity, to_ms

SOURCE_EMIT = "SOURCE_EMIT"
SINK_EXIT = "SINK_EXIT"
PHASE = "PHASE"
REPLAY = "REPLAY"

CSV_HEADER = "ts_ms,site,event_id,root_seq,epoch,replayed,phase"

# A row's site is stored as its index in SITES.
SITES = (SOURCE_EMIT, SINK_EXIT, PHASE, REPLAY)
_EMIT, _SINK, _PHASE, _REPLAY = range(len(SITES))
_SITE_CODE = {site: code for code, site in enumerate(SITES)}
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
            raise MetricsError("timeline has no REQUEST marker")
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

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())

    @classmethod
    def from_csv(cls, path: str | Path) -> "Timeline":
        timeline = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise MetricsError(f"unexpected timeline header: {header}")
            rows = [line.rstrip("\n").split(",") for line in fh]
        if not rows:
            return timeline
        try:
            ts, sites, eids, rseqs, epochs, replayed, names = zip(*rows, strict=True)
            timeline.ts = array("q", map(int, ts))
            timeline.sites = bytearray(_SITE_CODE[site] for site in sites)
            timeline.event_ids = array("Q", map(int, eids))
            timeline.root_seqs = array("q", map(int, rseqs))
            timeline.epochs = bytearray(map(int, epochs))
        except (KeyError, ValueError, OverflowError) as err:
            raise MetricsError(f"malformed timeline row: {err!r}") from None
        timeline.replayed = bytearray(flag == "1" for flag in replayed)
        timeline.phases = [(row, ts, name) for row, (site, ts, name)
                           in enumerate(zip(timeline.sites, timeline.ts, names))
                           if site == _PHASE]
        if any(name for site, name in zip(timeline.sites, names) if site != _PHASE):
            raise MetricsError("a phase name on a row that is not a PHASE row")
        return timeline


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

    def __getitem__(self, index: int) -> TimelineRecord:
        tl = self._timeline
        row = range(len(tl))[index]
        name = next((name for r, _ts, name in tl.phases if r == row), "")
        return TimelineRecord(tl.ts[row], SITES[tl.sites[row]], tl.event_ids[row],
                              tl.root_seqs[row], tl.epochs[row], bool(tl.replayed[row]), name)

    def __delitem__(self, index: int) -> None:
        tl = self._timeline
        row = range(len(tl))[index]
        for column in (tl.ts, tl.sites, tl.event_ids, tl.root_seqs, tl.epochs, tl.replayed):
            del column[row]
        tl.phases = [(r - (r > row), ts, name) for r, ts, name in tl.phases if r != row]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TimelineRecords, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


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
    first = min((ts for ts in timeline.select(SINK_EXIT, timeline.ts) if ts >= restored),
                default=None)
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
    """Sink exits per 1-second bucket over [0, horizon)."""
    buckets = [0] * (horizon_ms // 1000)
    for ts in timeline.select(SINK_EXIT, timeline.ts):
        if ts < horizon_ms:
            buckets[ts // 1000] += 1
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
    return sum(1 for ts in timeline.select(REPLAY, timeline.ts) if ts >= since)


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


def replay_bursts(timeline: Timeline, since: int | None = None,
                  gap_ms: int = 5000, min_size: int = 5) -> list[tuple[int, int]]:
    """Cluster replay records into bursts: [(start_ts, size), ...].

    Consecutive replays closer than ``gap_ms`` belong to one burst; bursts
    smaller than ``min_size`` are dropped as noise.
    """
    times = sorted(ts for ts in timeline.select(REPLAY, timeline.ts)
                   if since is None or ts >= since)
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
        for ts, site, root_seq in zip(timeline.ts, timeline.sites, timeline.root_seqs):
            if ts >= horizon_ms:
                continue
            if site == _EMIT or site == _REPLAY:
                self.input_counts[ts // window_ms] += 1
                if site == _EMIT:
                    first_emit.setdefault(root_seq, ts)
            elif site == _SINK:
                self.output_counts[ts // window_ms] += 1
                exits.append((ts, root_seq))
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
