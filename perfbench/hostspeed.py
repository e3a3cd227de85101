"""A fixed reference job that gauges how fast the host runs right now.

The benchmark's host is a few cores of a shared machine, and its speed
swings by a third and more for minutes at a time while neighbours load
the same cores and caches.  Wall times taken in a slow phase are slow
for the host's sake, not the program's.  So ``run_unit`` samples this
job between the timed parts of every unit, and ``run.py`` divides each
unit's wall times by how much slower than ``NOMINAL_S`` the job ran
around it: the end-to-end times read "seconds on the host at its
nominal speed".  The raw wall times go into the run record as well.

The job is an arithmetic loop that allocates no tracked objects and
touches no data of the program's, so its time moves with the host
alone, never with the program's heap or code.
"""

from __future__ import annotations

import gc
import time

#: The job's time on this benchmark's reference host (a 2.1 GHz Xeon
#: vCPU) in a quiet phase; normalised times are in seconds at that speed.
NOMINAL_S = 0.010
#: Loop iterations of one job.
ITERATIONS = 110_000


def _job(n: int) -> int:
    total = 0
    for i in range(n):
        total += (i * 7) ^ (i >> 3)
    return total


def sample() -> float:
    """One speed sample: the job's wall time, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _job(ITERATIONS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
