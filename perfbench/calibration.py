"""A fixed calibration task that tracks the speed of the machine.

The benchmark was written on a shared 2-core KVM guest whose cores drift
between a fast and a slow state: the same work takes up to 1.9 times as
long for stretches of tens of seconds, and a whole 30-second run can sit
in either state.  Wall-clock latencies of ``ftop`` then spread by a
quarter between runs of the same code.  The worker therefore times this
task between cases, and ``run.py`` expresses every case latency at the
reference speed: latency x ``REFERENCE_S`` / (calibration time next to
the case).

The task is the benchmark's own code, never ``ftop``, so a change to
``ftop`` cannot change it.  It is the literal reference topology of
``reference.py`` classifying every grid set: the tuple, set and dict
work of an interpreter-bound fuzzy-topology computation, like ``ftop``'s
own.  It runs with the garbage collector off, so that the size of the
heap ``ftop`` leaves behind does not decide when a collection falls into
it, and it is repeated with the median taken, so that one repetition on
a cold cache does not count.
"""

from __future__ import annotations

import gc
import itertools
import statistics
from time import perf_counter

import reference

# The task's time at the reference speed: about the median of its samples
# on the 2-core Xeon KVM guest the benchmark was written on, in the
# cores' fast state.
REFERENCE_S = 0.002
REPEATS = 3
_N, _DEN = 3, 2
_SUBBASIS = [(1, 2, 0), (2, 0, 1), (0, 1, 2)]


def task() -> int:
    space = reference.Space(_N, _DEN, _SUBBASIS)
    for s in itertools.product(range(_DEN + 1), repeat=_N):
        space.verdicts(s)
    return len(space.members)


def sample() -> float:
    """The median time of ``REPEATS`` runs of the task, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            started = perf_counter()
            task()
            times.append(perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
