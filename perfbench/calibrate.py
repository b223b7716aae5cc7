"""Host-speed probe for normalising times on a shared host.

On the two-vCPU shared-host VM this benchmark was developed on, the speed
of plain interpreter work switches between levels up to 1.9x apart, in
phases of a few to tens of seconds, independently on each core (a fixed
3.5 ms loop read 1.8 ms or 3.5 ms; 20-second window medians spread by 65%
of their median).
Raw seconds therefore move more between two runs of the same code than any
bound of at most 25% allows.

The probe is a few milliseconds of the kinds of work the library does:
Fraction arithmetic, wide-integer bit operations, dict updates and a plain
interpreter loop, on a working set of a few kilobytes.  It never calls the library, so a
change to the library cannot move it.  A SIGALRM timer runs it every
PROBE_EVERY_S in the measuring thread itself, between bytecodes, also in the
middle of a long query.  A timed span's time is its duration less the probes
inside it, scaled by REFERENCE_PROBE_S over the median of the probes that
start within WINDOW_S of it: the time the span would have taken while the
host ran at reference speed.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

# Probe time on a fast phase of the reference host.  Any fixed value works:
# it only sets the scale of the normalised figures.
REFERENCE_PROBE_S = 0.003
PROBE_EVERY_S = 0.2
# Probes starting this close to a timed span also describe its host speed:
# wide enough that a short query is scaled by several probes, narrow enough
# to follow phases lasting a few seconds.
WINDOW_S = 1.0

_rng = random.Random(0)
_WIDE = [_rng.getrandbits(700) for _ in range(37)]


def probe_work() -> int:
    """About 2 ms of work, its parts weighted so that scaled times of four
    typical queries (a curves call, an ω* LP, ω_3 and a transcript) spread
    least over host phases: the plain loop alone over-reacts to a phase
    (time elasticity 1.1-1.4 against the queries' 1), the other parts
    under-react on the bit-set work of clique search."""
    acc = Fraction(0)
    for k in range(1, 73):
        acc += Fraction(k, k + 7) * Fraction(3, 2 * k + 1)
    bits = 0
    for a in _WIDE:
        for b in _WIDE:
            bits += (a & ~b).bit_count()
    table: dict = {}
    for k in range(960):
        table[(k % 37, k % 11)] = table.get((k % 37, k % 11), 0) + k
    loop = 0
    for k in range(14400):
        loop += k * k % 7
    return acc.denominator % 7 + bits + len(table) + loop


class SpeedProbe:
    """Timer-driven probes over a run, and the scaling of timed spans."""

    def __init__(self):
        self.starts: list = []  # perf_counter at each probe's start
        self.values: list = []  # probe durations

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.starts.append(t0)
        self.values.append(time.perf_counter() - t0)

    def __enter__(self):
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        return False

    def span(self, start: float, end: float) -> tuple:
        """(seconds less the probes inside, scale to reference speed)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        net = (end - start) - sum(self.values[lo:hi])
        near = self.values[
            bisect.bisect_left(self.starts, start - WINDOW_S):
            bisect.bisect_left(self.starts, end + WINDOW_S)
        ]
        return net, REFERENCE_PROBE_S / statistics.median(near)

    def scaled(self, start: float, end: float) -> tuple:
        """(seconds less the probes inside, those seconds at reference speed)."""
        net, scale = self.span(start, end)
        return net, net * scale
