"""Host-speed reference: rescale measured times to a fixed reference speed.

This benchmark runs on a shared host whose speed drifts: the same engine
run can take 1.5 s one minute and 2.5 s a few minutes later, while
neighbours load the machine, and CPU time drifts with wall time.  No statistic of the raw
times within one run removes a slowdown that lasts longer than the run.

``Sampler`` measures the host's speed while the timed work runs: it runs a
fixed reference probe when it starts and stops, and every ``INTERVAL_S`` of
wall time in between, from a SIGALRM handler on the measured thread.  The
probes' mean time says how fast the host ran the probe during the interval,
and ``to_reference`` rescales the interval's time to the seconds it would
have taken on a host that runs the probe in ``REFERENCE_PROBE_S``.  A
change to the program moves the rescaled time as much as the raw one; a
change in the host's load moves both the probe and the work and largely
cancels.

Only the standard library is imported, so a set-up probe can load this
module before it starts timing the import of flowmigrate.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

INTERVAL_S = 0.02
# About the probe's time on the 2-vCPU Xeon virtual machine the benchmark
# was built on, when its host was quiet; it only sets the scale of every
# rescaled time.
REFERENCE_PROBE_S = 300e-6


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """Run the reference work once and return its seconds: heap pushes and
    pops, small-object allocation and dict stores, the mix of operations
    the simulator's event loop spends its time in.

    The cyclic garbage collector is off while the probe runs, and the probe
    frees everything it allocates, so it neither sets off a collection of
    the program's heap (``reproduce`` keeps hundreds of megabytes alive) nor
    leaves the program more allocations to collect.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            table[i & 127] = _Item(i, i + 1)
        while heap:
            heapq.heappop(heap)
        del table
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Samples the probe's time while the body of a ``with`` block runs.

    ``edge_probes`` probes run when the block starts and again when it
    ends, outside any time measured inside it; probes run from the timer
    fall inside that time, and ``to_reference`` takes them out again.
    """

    def __init__(self, edge_probes: int = 3) -> None:
        self.edge_probes = edge_probes
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.inside_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples += [probe() for _ in range(self.edge_probes)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe() for _ in range(self.edge_probes)]

    def host_s(self, elapsed: float) -> float:
        """``elapsed``, measured inside the block, less the timer's probes."""
        return elapsed - self.inside_s

    def to_reference(self, elapsed: float) -> float:
        """``elapsed``, less the timer's probes, at the reference speed."""
        return self.host_s(elapsed) * REFERENCE_PROBE_S / statistics.fmean(self.samples)
