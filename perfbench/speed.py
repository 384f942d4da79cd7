"""Machine-speed calibration, so that timings taken on a shared host compare.

The reference machine (2 cores of a shared host) changes speed from one
second to the next: within one minute a fixed pure-Python loop took from
0.48 to 1.09 ms (medians of 20 runs), and a whole run can fall in a slow
or a fast stretch, so the medians of runs of the same code spread by 20
to 40%.  The worker therefore runs a fixed loop written in the benchmark
(no grpd code) just before each op and once after the last, and each op's
time is scaled by the loop's reference time over the mean of the two loop
times that bracket it.  A scaled time reads in seconds at the reference
speed: a change to grpd moves it as it moves wall time, while a change of
the host's speed cancels out.  The raw wall-clock figures are printed next
to the scaled ones.  (Wider windows of loop times did worse: the host's
speed changes within a second.)

Code that reads much memory slows less in a slow stretch than code that
stays in cache, so each workload uses the loop whose work is most like
its own: ``interp`` (small dicts and strings, as in parsing and the group
and descent layers) or ``tables`` (building and reading a dict of tuple
keys too large for the cache, as in building ``comp`` tables).
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

def _paused_gc(loop):
    """Time one run of ``loop``, with the garbage collector paused so that a
    collection the program made due does not land in it."""
    def timed():
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            loop()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
    return timed


@_paused_gc
def _interp():
    d = {}
    for i in range(2000):
        k = f"k{i % 257}"
        d[k] = d.get(k, 0) + i
    sorted(d.items())


@_paused_gc
def _tables():
    d = {}
    for i in range(20000):
        d[(f"a{i}", i % 97)] = (i % 13, i)
    s = 0
    for v in d.values():
        s += v[0]


LOOPS = {"interp": _interp, "tables": _tables}
# the loop each workload's ops are scaled by; set-up always uses interp
WORKLOAD_LOOP = {"classify": "interp", "construct": "tables",
                 "descent": "interp"}
# each loop's median time on the reference machine (2-core shared host,
# Python 3.11.7), rounded
REF_S = {"interp": 0.0007, "tables": 0.007}


def scale(seconds, loop, loop_times):
    """A time at the reference speed, given the loop times taken around it."""
    return seconds * REF_S[loop] / median(loop_times)


def scale_all(times, loop, loop_times):
    """Each op time at the reference speed: ``loop_times[i]`` and
    ``loop_times[i + 1]`` were taken just before and just after op ``i``."""
    return [scale(t, loop, loop_times[i:i + 2]) for i, t in enumerate(times)]
