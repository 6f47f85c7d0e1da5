"""Timings in seconds at a reference speed.

A shared virtual machine drifts in speed by up to a factor of two over
tens of seconds (seen on a 2-vCPU Intel Xeon VM), so a raw timing is
comparable with one taken at another time only once scaled by the speed
it ran at.  The speed is probed
with a fixed piece of pure-stdlib work shaped like the package's hot paths
(Fractions, short strings, tuples and dicts), and never with package code,
so no change to the package can move the probe.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Seconds _reference_work takes at the reference speed; every reported
# timing is scaled to a host that fast.
REF_S = 0.0015
TICK_S = 0.1
HALF = Fraction(1, 2)


def _reference_work():
    """Fixed pure-stdlib work shaped like the package's hot paths."""
    acc, seen, out = Fraction(0), {}, []
    for i in range(100):
        w = format(i, "012b")
        q = Fraction(1, 3) if w[0] == "0" else Fraction(2, 3)
        for c in w[:6]:
            q *= Fraction(1, 3) if c == "0" else HALF
        acc += q
        seen[w[:8]] = seen.get(w[:8], 0) + 1
        out.append(tuple(sorted((w[1:], w[:-1]))))
    return acc


def probe(n=3):
    """Mean seconds the reference work takes now: the host's current slowness."""
    t0 = perf_counter()
    for _ in range(n):
        _reference_work()
    return (perf_counter() - t0) / n


class ReferenceClock:
    """Times an operation in seconds at the reference speed.

    The clock probes the speed before and after the operation and, every
    `tick_s` during it, from a SIGALRM handler; each stretch of the
    operation between two probes counts as its length times REF_S over the
    mean of those probes.  Probe time is in no stretch.
    """

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s

    def __enter__(self):
        self.stretches, self.probes = [], [probe()]
        if self.tick_s:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        self.mark = perf_counter()
        return self

    def _tick(self, signum, frame):
        self.stretches.append(perf_counter() - self.mark)
        self.probes.append(probe(1))
        self.mark = perf_counter()

    def __exit__(self, *exc):
        if self.tick_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.stretches.append(perf_counter() - self.mark)
        self.probes.append(probe())
        self.raw = sum(self.stretches)
        self.scaled = sum(
            s * 2 * REF_S / (a + b)
            for s, a, b in zip(self.stretches, self.probes, self.probes[1:])
        )
