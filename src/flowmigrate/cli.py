"""Command-line entry points: run one scenario, compare strategies, or
replay the bundled reproduction suite.

Exit codes: 0 success, 1 assertion/criterion failure, 2 configuration
error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import acceptance
from .errors import ConfigError, InvariantViolation
from .metrics import compute_report
from .model import STRATEGIES, bundled_scenario_names, resolve_scenario, with_overrides
from .runtime import run_scenario

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowmigrate",
        description="Simulate elastic dataflow migration strategies (DSM, DCR, CCR).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--ack-timeout", type=float, default=None,
                       help="override ackTimeout (seconds)")
        p.add_argument("--rebalance-duration", type=float, default=None,
                       help="override rebalanceDuration (seconds)")

    p_run = sub.add_parser("run", help="run one scenario and write timeline.csv + report.json")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--strategy", choices=[s.lower() for s in STRATEGIES], default=None,
                       help="override the scenario's strategy")
    add_common(p_run)

    p_cmp = sub.add_parser("compare", help="run DSM, DCR and CCR on one scenario and tabulate")
    p_cmp.add_argument("scenario", help="scenario file path or bundled name")
    add_common(p_cmp)

    sub.add_parser("reproduce", help="run the bundled suite and check every acceptance criterion")

    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def _load(args, strategy: str | None = None):
    # with_overrides ignores the options that were not given (None).
    return with_overrides(
        resolve_scenario(args.scenario),
        strategy=strategy and strategy.upper(),
        randomSeed=args.seed,
        ackTimeout=args.ack_timeout,
        rebalanceDuration=args.rebalance_duration,
    )


def _check_fresh(*out_dirs: Path) -> None:
    """Refuse output directories that already hold a run, whose place a
    file holds, or that cannot be looked up, before any runs."""
    for out_dir in out_dirs:
        if "\0" in str(out_dir):  # exists() reads it as missing; mkdir raises
            raise ConfigError(f"cannot use {str(out_dir)!r} as --out: embedded null byte")
        try:
            found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        except OSError as exc:  # a name too long to stat, say
            raise ConfigError(f"cannot use {out_dir} as --out: {exc.strerror}") from None
        if not found.is_dir():
            raise ConfigError(f"{found} is not a directory; pick another --out")
        for path in (out_dir / "timeline.csv", out_dir / "report.json"):
            if path.exists():
                raise ConfigError(
                    f"{path} already exists; run directories are append-only, "
                    f"pick a fresh --out"
                )


def _write_outputs(out_dir: Path, timeline, report) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "timeline.csv").open("w") as out:
        out.writelines(timeline.csv_chunks())
    (out_dir / "report.json").write_text(report.to_json())


def cmd_run(args) -> int:
    config = _load(args, strategy=args.strategy)
    out_dir = Path(args.out) if args.out else Path("runs") / f"{config.name}-{config.strategy.lower()}-s{config.randomSeed}"
    _check_fresh(out_dir)
    timeline, _engine = run_scenario(config)
    report = compute_report(timeline, config)
    _write_outputs(out_dir, timeline, report)
    print(f"{config.name} [{config.strategy}] seed={config.randomSeed}")
    _print_report_row(report)
    print(f"wrote {out_dir}/timeline.csv and {out_dir}/report.json")
    return EXIT_OK


_METRIC_COLUMNS = (
    ("restore", "restoreDurationMs"),
    ("drain/capture", "drainCaptureDurationMs"),
    ("rebalance", "rebalanceDurationMs"),
    ("catchup", "catchupTimeMs"),
    ("recovery", "recoveryTimeMs"),
    ("stabilization", "stabilizationTimeMs"),
    ("replayed", "replayedCount"),
)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return str(value)


def _print_report_row(report) -> None:
    for label, attr in _METRIC_COLUMNS:
        print(f"  {label:>14}: {_fmt(getattr(report, attr))}")


def _increasing(*values) -> bool:
    """Strictly increasing; a missing (None) value fails the check."""
    return None not in values and all(a < b for a, b in zip(values, values[1:]))


def cmd_compare(args) -> int:
    base = _load(args)
    if args.out:
        _check_fresh(*(Path(args.out) / s.lower() for s in STRATEGIES))
    # The cache runs DCR and CCR from one prefix, forked at the trigger.
    cache = acceptance.RunCache({base.name: base})
    reports = {}
    for strategy in STRATEGIES:
        run = cache.get(base.name, strategy)
        reports[strategy] = run.report
        if args.out:
            _write_outputs(Path(args.out) / strategy.lower(), run.timeline, run.report)

    header = f"{'metric (ms)':>16} | " + " | ".join(f"{s:>10}" for s in STRATEGIES)
    print(f"scenario {base.name!r} seed={base.randomSeed}")
    print(header)
    print("-" * len(header))
    for label, attr in _METRIC_COLUMNS:
        row = " | ".join(f"{_fmt(getattr(reports[s], attr)):>10}" for s in STRATEGIES)
        print(f"{label:>16} | {row}")

    checks = [
        ("restore CCR < DCR < DSM",
         _increasing(*(reports[s].restoreDurationMs for s in ("CCR", "DCR", "DSM")))),
        ("drain DCR > capture CCR",
         _increasing(reports["CCR"].drainCaptureDurationMs,
                     reports["DCR"].drainCaptureDurationMs)),
        ("no replays under DCR/CCR",
         reports["DCR"].replayedCount == 0 and reports["CCR"].replayedCount == 0),
        ("DSM replays > 0", reports["DSM"].replayedCount > 0),
    ]
    failed = False
    for label, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        failed |= not ok
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_reproduce(args) -> int:
    failed = False
    for result in acceptance.run_all(acceptance.RunCache()):
        print(result.line())
        if not result.passed:
            failed = True
            for detail in result.details:
                print(f"    {detail}")
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_scenarios(_args) -> int:
    for name in bundled_scenario_names():
        print(name)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "reproduce": cmd_reproduce,
        "scenarios": cmd_scenarios,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
