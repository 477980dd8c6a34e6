#!/usr/bin/env python3
"""Time a parent tree against a change tree in alternating benchmark pairs.

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python3 tools/bench_pairs.py /tmp/parent . --pairs 10 --out /tmp/pairs \\
        --workload grid_dsm chain50_delay reproduce
    python3 tools/bench_record.py --label parent --output BENCH_20.json /tmp/pairs/*/parent
    python3 tools/bench_record.py --label change --output BENCH_20.json /tmp/pairs/*/change

Each run is ``perfbench/run.py --workload W --trace 0 --seconds S`` (the
command of ``BENCHMARK.json``, ``S`` its ``run_seconds``), started in the
tree it measures.  The workloads run in the order given, each one's pairs
in turn.  The parent runs first in odd pairs and the change first in even
ones, so drift in host speed falls on both sides alike.  After each run the
record it wrote is copied to ``<out>/<workload>/<label>/<i>/``: a later run
of the same workload and seed rewrites the record in ``perfbench/out/``, and
the copies keep every sample for ``tools/bench_record.py``.

For each workload and every gated end-to-end metric it prints both sides'
median and quartiles, the pairs the change won, whether it won at least
nine in ten, and whether the median gap (negative when the change is worse)
exceeds the parent's interquartile range.  Beside ``wall_ref_s`` it prints
the same for the host ``wall_s``, and flags each pair whose ``wall_s`` and
``wall_ref_s`` gaps disagree in sign: the reference probe and the host saw
the pair differently, so its ``wall_ref_s`` gap is suspect.  It also prints
each side's median ratio of host ``wall_s`` to ``wall_ref_s``, read from
every record: that ratio is about the reference probe's time over its
reference time, which a change to the program does not move.  The round is
flagged when the two medians differ by more than the parent's IQR of the
ratio, since then the probe, not the program, may carry a ``wall_ref_s``
gain.  A failed run stops the tool with exit code 2.  It reads
``perfbench/`` and ``BENCHMARK.json`` and edits neither.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import spread  # noqa: E402

LABELS = ("parent", "change")


def run_once(tree: Path, command: list[str], workload: str, seconds: float,
             seed: int | None) -> tuple[Path, dict]:
    """Run the benchmark once in ``tree``; the record it wrote, and its doc."""
    argv = [*command, "--workload", workload, "--trace", "0", "--seconds", str(seconds)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    lines = [line for line in done.stdout.splitlines() if line.startswith("record: ")]
    if not lines:
        raise RuntimeError(f"{tree}: the benchmark printed no record line")
    record = tree / lines[-1].removeprefix("record: ").strip()
    return record, json.loads(record.read_text())


def pair_order(pair: int) -> tuple[str, str]:
    """The parent runs first in odd pairs (counting from 1), the change in even."""
    return LABELS if pair % 2 else LABELS[::-1]


def disagreeing_pairs(parent: list[dict], change: list[dict]) -> list[int]:
    """The pairs (counting from 1) whose host ``wall_s`` gap and
    ``wall_ref_s`` gap have opposite signs."""
    flagged = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        ref = c["metrics"]["wall_ref_s"]["value"] - p["metrics"]["wall_ref_s"]["value"]
        host = c["host"]["wall_s"]["value"] - p["host"]["wall_s"]["value"]
        if ref * host < 0:
            flagged.append(pair)
    return flagged


def probe_ratio(parent: list[dict], change: list[dict]) -> str:
    """One line comparing the two sides' host ``wall_s`` / ``wall_ref_s``
    ratios, flagged when their medians differ by more than the parent's IQR."""
    before, after = (spread([d["host"]["wall_s"]["value"] / d["metrics"]["wall_ref_s"]["value"]
                             for d in docs]) for docs in (parent, change))
    gap = after["median"] - before["median"]
    flag = ("FLAGGED: the reference probe, not the program, may carry the wall_ref_s gap"
            if abs(gap) > before["iqr"] else "within")
    return (f"probe ratio (host wall_s / wall_ref_s): parent {before['median']:.4g} "
            f"[{before['q1']:.4g}, {before['q3']:.4g}]  change {after['median']:.4g} "
            f"[{after['q1']:.4g}, {after['q3']:.4g}]  median gap {gap:.4g} vs parent IQR "
            f"{before['iqr']:.4g}: {flag}")


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line comparing the two sides' samples of ``metric``, pair by pair."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    gap = (before["median"] - after["median"]) * (1 if lower else -1)
    n = len(parent)
    return (f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"parent {before['median']:.4g} [{before['q1']:.4g}, {before['q3']:.4g}]  "
            f"change {after['median']:.4g} [{after['q1']:.4g}, {after['q3']:.4g}]  "
            f"change won {wins}/{n} pairs ({'at least' if 10 * wins >= 9 * n else 'under'} "
            f"9 in 10)  median gap {gap:.4g} "
            f"{'exceeds' if abs(gap) > before['iqr'] else 'within'} parent IQR {before['iqr']:.4g}")


def run_pairs(trees: dict[str, Path], bench: dict, workload: str, pairs: int,
              seed: int | None, out: Path) -> int:
    """Run ``pairs`` alternating pairs of ``workload``, keep their records
    under ``out`` and print the verdicts; 2 when a run fails, else 0."""
    samples: dict[str, list[dict]] = {label: [] for label in LABELS}
    for pair in range(1, pairs + 1):
        for label in pair_order(pair):
            try:
                record, doc = run_once(trees[label], bench["command"], workload,
                                       bench["run_seconds"], seed)
            except RuntimeError as exc:
                print(f"bench_pairs: {exc}", file=sys.stderr)
                return 2
            keep = out / label / str(pair)
            keep.mkdir(parents=True, exist_ok=True)
            shutil.copy2(record, keep / record.name)
            samples[label].append(doc)
            print(f"{workload} pair {pair} {label}: " + ", ".join(
                f"{m['name']} {doc['metrics'][m['name']]['value']:.4g}"
                for m in bench["end_to_end"])
                + f", host wall_s {doc['host']['wall_s']['value']:.4g}", flush=True)

    print(f"{workload} seed={seed}: {pairs} pairs, failed checks "
          + ", ".join(f"{label} {sum(len(d['failed']) for d in samples[label])}"
                      for label in LABELS))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = ([d["metrics"][name]["value"] for d in samples[label]]
                          for label in LABELS)
        print(verdict(metric, parent, change))
    host = {"name": "host wall_s", "unit": "s", "better": "lower"}
    print(verdict(host, *([d["host"]["wall_s"]["value"] for d in samples[label]]
                          for label in LABELS)))
    flagged = disagreeing_pairs(samples["parent"], samples["change"])
    print("pairs whose wall_s and wall_ref_s gaps disagree in sign: "
          + (", ".join(map(str, flagged)) if flagged else "none"))
    print(probe_ratio(samples["parent"], samples["change"]), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more workloads, measured in this order")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: bundled)")
    parser.add_argument("--out", required=True, type=Path,
                        help="folder for the copied records, one per workload, label and run")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    for workload in args.workload:
        if run_pairs(trees, bench, workload, args.pairs, args.seed, args.out / workload):
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
