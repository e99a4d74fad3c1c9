"""Reference-speed normalization of host times.

The CPU speed a shared box gives one process drifts by tens of percent
over tens of seconds (a fixed loop, timed back to back, swings between
about 45 and 65 ms per call).  A host time measured in one such phase
cannot be compared with one measured in another, so every end-to-end
time is normalized:

    normalized = measured wall * PROBE_REF_S / probe

where ``probe`` is the thread CPU time of a fixed pure-Python kernel
run right before and right after the measured interval (their mean),
and ``PROBE_REF_S`` is that kernel's CPU time at the reference speed.
A normalized second is a wall second on a box running at the
reference speed.  The kernel shares no code with the simulator, so a
change to the program cannot move it; it allocates no containers, so
garbage-collector settings cannot either; and it is timed in thread
CPU time, so another thread holding the interpreter lock cannot.
"""

from __future__ import annotations

import random
import time

#: Thread CPU seconds of one :func:`probe` at the reference speed (the
#: median on the 2-core box the bounds in BENCHMARK.json were set on).
PROBE_REF_S = 0.011

_rng = random.Random(20250707)
_items = [[i, i * 7 % 13, 0] for i in range(1000)]
_table = dict.fromkeys(range(13), 0)


def probe() -> float:
    """Thread CPU seconds of one run of the fixed kernel."""
    items, table, shuffle = _items, _table, _rng.shuffle
    t0 = time.thread_time()
    for _ in range(18):
        shuffle(items)
        for item in items:
            key = item[1]
            table[key] = (table[key] + item[0]) & 0xFFFF
            item[2] = key
    return time.thread_time() - t0


def normalize(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time between two probes, at the reference speed."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)


class Stopwatch:
    """Times calls between probes: each lap is (result, wall s, normalized s).

    Every lap probes once, after the call; the probe before it is the
    previous lap's (or the constructor's).  Probe time is never inside
    a lap.
    """

    def __init__(self) -> None:
        self.probes = [probe()]

    def lap(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.probes.append(probe())
        return result, wall, normalize(wall, self.probes[-2], self.probes[-1])
