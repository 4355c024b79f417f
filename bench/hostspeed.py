"""Timings scaled to a nominal host speed.

On a shared 2-vCPU VM the same invocation can take 0.53 s in one second and
1.05 s in the next, and a set of runs can be a third slower than the set
before it; CPU time follows wall time, so the slowdown is the host's.  A raw
timing therefore says more about the host than about the program.

``HostClock`` records the raw duration of each piece of program work and,
in between, runs a fixed reference computation written here (a sparse
product of Fraction polynomials, the program's own kind of work).  Each
duration is divided by the host's slowness around it: the mean of the
reference probes just before and just after it, each as reference time over
``REFERENCE_S``, its time on an unloaded host.  The result is the duration
the work would have had on that host.  A change to the program moves the
scaled times; a change in host speed moves the program and the reference
alike and cancels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from time import perf_counter

# One reference chunk takes 57-60 ms on an unloaded 2-vCPU x86-64 VM under
# CPython 3.11, and up to twice that when the host is busy.  An operand of
# 126 terms gives a working set near the program's; a 45-term one tracked
# the host's slowness on contact-reject half as well.
REFERENCE_S = 0.060
# Reference time run per second of program work.
SHARE = 1 / 3

_OPERAND = {e: Fraction(7 * sum(e) + e[0] + 1, e[1] + 2 * e[3] + 3)
            for e in itertools.product(range(6), repeat=4) if sum(e) <= 5}


def reference_chunk() -> dict:
    """Square of a fixed 126-term polynomial in 4 variables."""
    out: dict = {}
    for ea, ca in _OPERAND.items():
        for eb, cb in _OPERAND.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[key] = out.get(key, 0) + ca * cb
    return out


class HostClock:
    """Raw durations of program work, each paired with the host's slowness
    around it (reference time over ``REFERENCE_S``)."""

    def __init__(self):
        self.raw: list[float] = []
        self.slowness: list[float] = []
        self.reference_s = 0.0  # time spent in reference chunks
        self._debt = 0.0
        reference_chunk()  # warm-up: allocate and cache before measuring
        self._last = self._reference()

    def add(self, seconds: float) -> None:
        """Record one piece of program work; probe the host once a chunk's
        worth of reference time is owed."""
        self.raw.append(seconds)
        self._debt += SHARE * seconds
        if self._debt >= REFERENCE_S:
            self._probe()

    def settle(self) -> None:
        """Probe for the work recorded since the last probe."""
        if len(self.slowness) < len(self.raw):
            self._probe()

    def scaled(self) -> list[float]:
        """Each recorded duration as it would be on the nominal host."""
        self.settle()
        return [t / s for t, s in zip(self.raw, self.slowness)]

    def _reference(self) -> float:
        """Reference chunks until the owed time is spent, at least one; the
        host's slowness over them."""
        spent, chunks = 0.0, 0
        while chunks == 0 or spent < self._debt:
            start = perf_counter()
            reference_chunk()
            spent += perf_counter() - start
            chunks += 1
        self._debt = 0.0
        self.reference_s += spent
        return spent / chunks / REFERENCE_S

    def _probe(self) -> None:
        now = self._reference()
        pending = len(self.raw) - len(self.slowness)
        self.slowness += [(self._last + now) / 2] * pending
        self._last = now
