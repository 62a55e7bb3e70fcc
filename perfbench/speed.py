"""Timings normalised to the host's momentary speed.

The host is shared: the same pure-Python loop runs 20-50% slower for
stretches of seconds to tens of seconds while other tenants are busy, and a
wall-clock median over a whole run moves with them.  A ``SpeedProbe`` runs a
fixed reference loop from a timer signal every ``interval`` seconds.  A
timed interval is then reported as its wall time minus the probes that ran
inside it, scaled by ``NOMINAL_S`` over the mean probe duration around it:
seconds at the speed at which the reference loop takes ``NOMINAL_S``.
The loop depends on nothing in ltlseq, so a change to the package cannot
move it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.008  # reference-loop duration on an idle core of the reference host
_LOOPS = 60_000


def reference_loop() -> int:
    """Interpreter-bound work: arithmetic, a dict, a list and calls."""
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(_LOOPS):
        key = (i * 7) & 255
        total += table.get(key, 1) % 13
        table[key] = total
        if i & 31 == 0:
            items.append(abs(total - i))
    return total + len(items)


class SpeedProbe:
    """Samples the reference loop's duration while the ``with`` block runs."""

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        duration = perf_counter() - start
        self.samples.append((start, duration))
        self.spent += duration

    def clock(self) -> float:
        """A clock that stands still while the probe runs."""
        return perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, start: float, end: float) -> float:
        """Seconds at nominal speed spent in [start, end], probes excluded."""
        inside = [d for s, d in self.samples if start <= s < end]
        around = [
            d for s, d in self.samples if start - self.interval <= s < end + self.interval
        ]
        if not around:
            raise RuntimeError("no speed sample near a timed interval")
        return (end - start - sum(inside)) * NOMINAL_S / statistics.mean(around)
