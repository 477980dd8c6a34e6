#!/usr/bin/env python3
"""Record the benchmark's untraced results as a committed BENCH_<pr>.json.

    for seed in 1 2 3 4 5; do
        python3 perfbench/run.py --workload chain50_delay --seed $seed --trace 0
    done
    python3 tools/bench_record.py --label change --output BENCH_9.json perfbench/out

Reads every untraced record (``*-trace0.json``, searched recursively) under
the given directories and writes one *point* under ``--label`` into the
output file, keeping the points already there under other labels (so one
file can hold a parent and a change).  ``reproduce`` ignores the seed and
rewrites one record per run: copy ``perfbench/out`` aside after each run and
pass every copy.  A record found twice (the same bytes) counts once.

A point holds, per workload:

* the median, quartiles and IQR of every gated end-to-end metric, and
  beside them of every host-time measure (``wall_s`` and the others under
  a record's ``host``), which no gate reads;
* per seed, the noise-free counters of one pass: engine actions, calendar
  pushes, timeline records, engine runs and distinct timelines;
* the failed checks of all samples;

plus the host (git SHA, source digest, Python, ``nproc``) and, from
``reproduce``, the timeline and report SHA-256 of every bundled run.  The
records must come from one source tree on one host, and samples of one seed
must agree on every run's fingerprint; anything else is refused.  A
record's git SHA is the commit checked out when it ran, so for an
uncommitted change it names the parent and ``source_sha256`` tells the
trees apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path


class RecordError(Exception):
    """The records cannot make one point."""


def load_records(dirs: list[Path]) -> list[dict]:
    """Every distinct untraced benchmark record under ``dirs``."""
    records, seen = [], set()
    for root in dirs:
        for path in sorted(root.rglob("*-trace0.json")):
            raw = path.read_bytes()
            digest = hashlib.sha256(raw).digest()
            if digest not in seen:
                seen.add(digest)
                records.append(json.loads(raw))
    if not records:
        raise RecordError(f"no untraced records under {', '.join(map(str, dirs))}")
    return records


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of the samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def counters(record: dict) -> dict:
    """The noise-free work of one pass."""
    prints = record["fingerprints"]
    return {
        "actions": record["passes"][0]["actions"],
        "calendar_pushes": sum(f["calendar_pushes"] for f in prints),
        "timeline_records": sum(f["timeline_records"] for f in prints),
        "engine_runs": len(prints),
        "distinct_timelines": len({f["timeline_sha256"] for f in prints}),
    }


def the_one(records: list[dict], key: str):
    values = {r["environment"][key] for r in records}
    if len(values) != 1:
        raise RecordError(f"records disagree on {key}: {sorted(map(str, values))}")
    return values.pop()


def bundled_hashes(records: list[dict]) -> dict:
    """Timeline and report SHA-256 of every reported run ``reproduce`` made
    (the determinism re-run makes no report, nor did the no-migration
    baselines that older trees ran)."""
    hashes: dict[str, list[str]] = {}
    for record in records:
        for f in record["fingerprints"]:
            if f["report_sha256"] is None:
                continue
            key = f"{f['scenario']}/{f['strategy']}"
            pair = [f["timeline_sha256"], f["report_sha256"]]
            if hashes.setdefault(key, pair) != pair:
                raise RecordError(f"{key}: two runs of one bundled config differ")
    return dict(sorted(hashes.items()))


def summarize(records: list[dict]) -> dict:
    """One point: the host and the statistics of every workload."""
    point = {key: the_one(records, key)
             for key in ("git_sha", "source_sha256", "python", "nproc")}
    by_workload: dict[str, list[dict]] = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    workloads = {}
    for name, group in sorted(by_workload.items()):
        first_of_seed: dict[str, dict] = {}
        for record in group:
            seed = str(record["seed"])
            first = first_of_seed.setdefault(seed, record)
            if first["fingerprints"] != record["fingerprints"]:
                raise RecordError(f"{name} seed {seed}: samples differ in their runs")
        units = {m: v["unit"] for m, v in group[0]["metrics"].items()}
        workloads[name] = {
            "samples": len(group),
            "metrics": {m: {"unit": unit, **spread([r["metrics"][m]["value"] for r in group])}
                        for m, unit in units.items()},
            "host": {m: {"unit": v["unit"], **spread([r["host"][m]["value"] for r in group])}
                     for m, v in group[0]["host"].items()},
            "counters_by_seed": {seed: counters(r) for seed, r in sorted(first_of_seed.items())},
            "failed_checks": sum(len(r["failed"]) for r in group),
        }
    point["workloads"] = workloads
    if "reproduce" in by_workload:
        point["bundled_hashes"] = bundled_hashes(by_workload["reproduce"])
    return point


def write_point(output: Path, label: str, point: dict) -> None:
    doc = json.loads(output.read_text()) if output.exists() else {"points": {}}
    doc["points"][label] = point
    output.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path,
                        help="directories holding perfbench/run.py records")
    parser.add_argument("--label", required=True, help="name of the point, e.g. parent")
    parser.add_argument("--output", required=True, type=Path, help="the BENCH_<pr>.json")
    args = parser.parse_args(argv)
    try:
        point = summarize(load_records(args.dirs))
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    write_point(args.output, args.label, point)
    samples = ", ".join(f"{n} x{w['samples']}" for n, w in point["workloads"].items())
    print(f"wrote {args.label} to {args.output}: {samples}")
    for name, workload in point["workloads"].items():
        ref, host = workload["metrics"]["wall_ref_s"], workload["host"]["wall_s"]
        print(f"{name}: wall_ref_s {ref['median']:.4g} [{ref['q1']:.4g}, {ref['q3']:.4g}]  "
              f"host wall_s {host['median']:.4g} [{host['q1']:.4g}, {host['q3']:.4g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
