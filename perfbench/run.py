#!/usr/bin/env python3
"""flowmigrate benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid_dsm --seed 7 --seconds 10 --trace 0

With --trace 0 it times passes of the workload with tracing off and prints
the end-to-end metrics; with --trace 1 it makes one traced pass and prints
the per-layer metrics.  Every pass is checked for correct outputs.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Environment, fingerprints and spans go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The keys of workloads.WORKLOADS, named here so arguments are parsed before
# flowmigrate is imported.
WORKLOAD_NAMES = ("grid_dsm", "chain50_delay", "reproduce")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the bundled scenario seeds; "
                             "reproduce ignores it)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Benchmark the source tree next to this directory, never an installed copy.
    sys.path.insert(0, str(SRC))
    try:
        import flowmigrate
    except ImportError as exc:
        print(f"cannot import flowmigrate from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(flowmigrate.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"flowmigrate imported from {flowmigrate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = args.seed if workload.uses_seed else None
    if args.trace:
        result = harness.run_traced(workload, seed)
    else:
        result = harness.run_untraced(workload, seed, args.seconds)
    path = harness.write_record(workload, seed, bool(args.trace), args.seconds, result)

    attempted = len(result.checks)
    failed = len(result.failed)
    print(f"workload {workload.name} seed={seed} trace={args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, (value, unit) in result.host.items():
        print(f"  {name:<40} {value:>16.6g} {unit} (host time, not gated)")
    print(f"  {'error_rate':<40} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    for check in result.failed:
        print(f"  FAILED {check.name}: {check.problem}")
    print(f"record: {path.relative_to(HERE.parent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
