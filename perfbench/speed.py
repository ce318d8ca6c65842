"""The benchmark's clock, and a fixed reference loop that tracks the
machine's speed during a run.

On a shared host the same code runs slower when the neighbours are busy,
in two ways. The process waits while another one holds its core; and
while it runs, it runs slower, because the neighbours share the core's
caches and memory bandwidth. The first is kept out by the clock: every
timing is the CPU time of this process (`clock`), which does not advance
while the process waits. The second moves every timing of a run in step,
the engine's and this loop's alike, by a third within an hour and by
up to a fifth within a fraction of a second. So a run plays the reference
loop between its operations, roughly every `EVERY_NS` of wall time, and
scales each timing by `NOMINAL_NS / median(reference times)`, taking the
`LOCAL` reference times nearest to it in time: the figures read as if
the machine had run at the speed at which the loop takes `NOMINAL_NS`,
about its usual time on the host the reference figures in README.md come
from. The loop is independent of the engine, so a faster engine still
reads faster; only the machine's speed is taken out.

The loop does what the engine's Python does most: dict and set lookups,
set intersections, sorting small lists and building tuples, over a
fixed 60-vertex graph. The cyclic garbage collector is off while it
runs, so a collection the engine's objects trigger never lands in it.
"""
from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter_ns, process_time_ns

# CPU time of the whole process, in ns; each read costs about 0.4 us.
clock = process_time_ns
# Median CPU time of one `reference()` call on the reference host.
NOMINAL_NS = 1_050_000
# Wall time between reference calls made between engine calls.
EVERY_NS = 50_000_000
# Reference calls made before each set-up and after the last one.
SETUP_REFERENCES = 10
# Reference calls whose median gives the speed at one moment: those
# nearest to it in time, about +-0.2 s while a run measures.
LOCAL = 9


def _graph() -> dict[int, set[int]]:
    rng = random.Random("perfbench/speed")
    adj: dict[int, set[int]] = {v: set() for v in range(60)}
    for _ in range(300):
        u, v = rng.sample(range(60), 2)
        adj[u].add(v)
        adj[v].add(u)
    return adj


_ADJ = _graph()


def _loop(adj: dict[int, set[int]]) -> int:
    total = 0
    for _ in range(2):
        for u in sorted(adj):
            nbrs = adj[u]
            order = sorted(nbrs)
            darts = [(u, w) for w in order]
            for w in order:
                total += len(adj[w] & nbrs)
            total += len({d[1]: d for d in darts})
    return total


def reference() -> int:
    """One run of the reference loop; returns its CPU time in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _loop(_ADJ)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Reference times of one phase of a run, each with the wall-clock
    stamp at which it was taken, and the scale they give."""

    def __init__(self):
        self.samples: list[int] = []
        self.stamps: list[int] = []
        self._last = perf_counter_ns()

    def sample(self, k: int = 1) -> None:
        """Records k reference times, after one untimed call that brings
        the loop's data back into the caches the engine used."""
        reference()
        for _ in range(k):
            self.samples.append(reference())
            self.stamps.append(perf_counter_ns())
        self._last = self.stamps[-1]

    def tick(self) -> None:
        """Call between operations: samples once `EVERY_NS` has passed."""
        if perf_counter_ns() - self._last >= EVERY_NS:
            self.sample()

    def median_ms(self) -> float:
        return statistics.median(self.samples) / 1e6

    def scale(self) -> float:
        """Factor that turns this phase's timings into nominal-speed
        timings, from all its reference times."""
        return NOMINAL_NS / statistics.median(self.samples)

    def scale_at(self, stamp: int, k: int = LOCAL) -> float:
        """The same factor from the k reference times nearest in time to
        `stamp`. The machine's speed can change by a quarter from one
        second to the next, and a whole-run median would mix the two."""
        n = len(self.stamps)
        lo = hi = bisect.bisect_left(self.stamps, stamp)
        while hi - lo < min(k, n):
            if lo == 0 or (hi < n and self.stamps[hi] - stamp
                           < stamp - self.stamps[lo - 1]):
                hi += 1
            else:
                lo -= 1
        return NOMINAL_NS / statistics.median(self.samples[lo:hi])
