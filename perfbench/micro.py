"""Microbenchmarks of the two kernels, on the active backend only.

Both are seeded, so the same seed gives the same operation sequence; the
result is the median nanoseconds per kernel operation over a few repeats.
"""

from __future__ import annotations

import random
import statistics
import time

from flowmigrate import _kernels

OPS = 100_000
REPEATS = 3


def calendar_ns_per_op(seed: int, n: int = OPS, repeats: int = REPEATS) -> float:
    """Push n random fire times, popping after every third push, then drain."""
    rng = random.Random(seed)
    times = [rng.randrange(1_000_000) for _ in range(n)]
    samples = []
    for _ in range(repeats):
        calendar = _kernels.EventCalendar()
        start = time.perf_counter()
        for i, fire_ms in enumerate(times):
            calendar.push(fire_ms, i)
            if i % 3 == 2:
                calendar.pop()
        while len(calendar):
            calendar.pop()
        samples.append((time.perf_counter() - start) / (2 * n) * 1e9)
    return statistics.median(samples)


def acker_ns_per_op(seed: int, n: int = OPS, repeats: int = REPEATS) -> float:
    """Register n/16 roots, anchor and ack n events across them, then sweep."""
    rng = random.Random(seed)
    roots = [rng.getrandbits(64) or 1 for _ in range(n // 16)]
    events = [rng.getrandbits(64) or 1 for _ in range(n)]
    ops = len(roots) + 2 * n + 1
    samples = []
    for _ in range(repeats):
        table = _kernels.AckerTable()
        start = time.perf_counter()
        for root in roots:
            table.register(root, 0)
        for i, event in enumerate(events):
            root = roots[i % len(roots)]
            table.anchor(root, event)
            table.ack(root, event)
        table.sweep(10 ** 9, 30_000)
        samples.append((time.perf_counter() - start) / ops * 1e9)
    return statistics.median(samples)
