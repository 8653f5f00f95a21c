"""Host time measured against the machine's speed while it was spent.

On a shared host the same code runs up to twice as slowly for seconds
or minutes at a time, so raw wall time measures the neighbours as much
as the program.  A :class:`Pacer` therefore times the work in short
consecutive steps and, at every step boundary, runs a fixed pure-Python
reference loop (:func:`reference`), which exercises what the simulator
spends its time on: heap pushes and pops, small objects, dicts and a
generator.  A step's *paced* seconds are its raw seconds times
``NOMINAL_REF_S`` over the mean of the reference samples on either side
of it: the time the step would take on a machine that runs the
reference in ``NOMINAL_REF_S``.  A change to the program moves its
steps and not the reference, so it shows in paced time undiluted, while
a slowdown of the whole machine moves both and cancels out.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Callable, Optional

#: Iterations of one reference sample.
REFERENCE_N = 1500
#: Seconds one reference sample takes on an uncontended 2-core x86 VM
#: with Python 3.11.7 (the fastest of 1,000 samples).
NOMINAL_REF_S = 0.0019


class _Item:
    __slots__ = ("when", "key")

    def __init__(self, when: int, key: str):
        self.when = when
        self.key = key


def _counter():
    total = 0
    while True:
        total += (yield total) or 1


def reference(n: int = REFERENCE_N, clock: Callable[[], float] = perf_counter) -> float:
    """Run the reference loop once; return its host seconds.

    The cyclic garbage collector is off meanwhile: its passes scan the
    program's whole heap, so a sample would otherwise grow with the
    program's memory rather than with the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        heap: list = []
        counts: dict = {}
        gen = _counter()
        next(gen)
        for i in range(n):
            item = _Item((i * 7919) % 1009, f"k{i % 97}")
            heapq.heappush(heap, (item.when, i, item))
            counts[item.key] = counts.get(item.key, 0) + gen.send(i & 3)
        while heap:
            _, _, item = heapq.heappop(heap)
            counts[item.key] -= 1
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Raw and paced seconds over consecutive timed steps.

    ``probe`` returns one reference sample's seconds and ``clock`` the
    host time; both are injectable so tests can drive them by hand.
    Steps timed by one pacer must follow each other directly: the sample
    taken after a step is reused as the sample before the next one.
    """

    def __init__(self, probe: Callable[[], float] = reference,
                 nominal_s: float = NOMINAL_REF_S,
                 clock: Callable[[], float] = perf_counter):
        self.probe = probe
        self.nominal_s = nominal_s
        self.clock = clock
        self.raw_s = 0.0
        self.paced_s = 0.0
        self._before: Optional[float] = None

    def step(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` and book its host time; return what it returns."""
        if self._before is None:
            self._before = self.probe()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            after = self.probe()
            self.raw_s += elapsed
            self.paced_s += elapsed * 2.0 * self.nominal_s / (self._before + after)
            self._before = after


def run_sliced(sim, pacer: Pacer, until: float, slice_s: float) -> float:
    """``sim.run(until=until)`` in steps of ``slice_s`` simulated seconds.

    Events are processed in exactly the order one call would process
    them: a step stops before the first event later than its end and the
    next step resumes there.  ``Simulator.run`` is looked up on the class
    at each step, so a tracer's wrapper sees every step.
    """
    while True:
        stop = min(sim.now + slice_s, until)
        pacer.step(type(sim).run, sim, stop)
        if stop >= until:
            return sim.now


def run_until_sliced(sim, pacer: Pacer, event, until: float, slice_s: float) -> float:
    """``sim.run_until(event, until=until)`` in steps of ``slice_s``."""
    while not event.processed and sim.now < until and sim.pending_events:
        pacer.step(type(sim).run_until, sim, event, min(sim.now + slice_s, until))
    return sim.now
