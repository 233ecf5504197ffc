"""The host-speed probe of the benchmark.

The host of a shared machine changes the speed of the whole VM by up to
1.9 times, back and forth within seconds, so the same calls take a
different wall time in every run.  A fixed pure-Python loop (the probe),
timed next to the measured calls, tells how fast the host runs just
then; a call's time is scaled to a host speed at which the probe takes
PROBE_NOMINAL_S.  No change to polaraut can move the probe.
"""

from __future__ import annotations

import time

PROBE_ITERS = 400_000  # about 20 ms
PROBE_NOMINAL_S = 0.02


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed just now."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i & 7
    return time.perf_counter() - t


def scaled(seconds: float, readings) -> float:
    """seconds at the nominal host speed, by the mean of the probe
    readings taken around them."""
    readings = list(readings)
    return seconds * PROBE_NOMINAL_S * len(readings) / sum(readings)
