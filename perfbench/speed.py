"""Machine-speed probe: reports times at a fixed reference speed.

The vCPU this benchmark runs on changes speed by tens of percent from one
second to the next, and by as much over minutes, because the host is
shared.  Wall times of identical work therefore spread far more than any
change worth detecting.  The probe measures that speed where and when the
work runs: a timer signal interrupts the process every INTERVAL_S, and
the handler times a fixed pure-Python loop that shares no code with
``icodes``.  A measured interval is then scaled by the median probe time
around it::

    reference seconds = wall seconds * NOMINAL_PROBE_S / median probe time

so one reference second is the time in which the probe loop runs
1 / NOMINAL_PROBE_S times.  A change that makes ``icodes`` faster lowers
the reference time just as it lowers the wall time; a slow spell of the
host lowers both the work and the probe, and cancels.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Probe loop length and the probe time that defines one reference second.
PROBE_LOOPS = 400
NOMINAL_PROBE_S = 30e-6
#: The window around a short interval from which its probes are taken.
MIN_WINDOW_S = 1.0


class SpeedProbe:
    """Samples the probe on a timer while entered (main thread only)."""

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        end = clock()
        self.stamps.append(start)
        self.probes.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Median probe time over [start, end], widened to MIN_WINDOW_S,
        relative to NOMINAL_PROBE_S; 1.0 if no probe fell in the window."""
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        lo = bisect.bisect_left(self.stamps, start - pad)
        hi = bisect.bisect_right(self.stamps, end + pad)
        window = self.probes[lo:hi] or self.probes
        return statistics.median(window) / NOMINAL_PROBE_S if window else 1.0

    def reference(self, start: float, end: float) -> float:
        """The interval [start, end] in reference seconds."""
        return (end - start) / self.factor(start, end)
