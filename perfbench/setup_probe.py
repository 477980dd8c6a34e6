"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing flowmigrate and loading and validating every scenario
config the workload runs.  Prints two numbers: the host seconds and the
same time at the reference speed (see refspeed.py).
Usage: setup_probe.py WORKLOAD SEED|none
"""

import sys
import time
from pathlib import Path

import refspeed

with refspeed.Sampler(edge_probes=20) as speed:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    from workloads import WORKLOADS  # noqa: E402  (imports flowmigrate)

    name, seed = sys.argv[1], sys.argv[2]
    WORKLOADS[name].configs(None if seed == "none" else int(seed))
    elapsed = time.perf_counter() - start
print(speed.host_s(elapsed), speed.to_reference(elapsed))
