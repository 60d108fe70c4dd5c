"""A clock that runs at the host's speed: host time at a reference speed.

The benchmark runs on shared hosts whose speed changes by tens of
percent within seconds, as other tenants come and go. Process CPU time
does not help: it slows down with the wall clock, because the core
itself is contended. So the runner times the program with a
:class:`SpeedClock` instead of ``time.perf_counter``.

Every :data:`PROBE_INTERVAL` a timer signal runs a fixed pure-Python
probe kernel (heap, dict, generator and attribute work, the kind of
interpreter work the program does) and times it. The clock advances at
``REFERENCE_PROBE_S / probe time`` seconds per host second, using the
median of the last :data:`PROBE_WINDOW` probes, and stands still while a
probe runs. A duration read from it is the host time the work would have
taken on a host where one probe takes :data:`REFERENCE_PROBE_S`: when
the host slows down the probes slow down with it and the clock slows
down too, while a faster program still takes less host time and so
less reference time.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Iterator

#: Seconds between probes.
PROBE_INTERVAL = 0.02
#: Probes whose median sets the clock's rate.
PROBE_WINDOW = 7
#: Loop steps of one probe (about 0.2 ms on the development host).
PROBE_STEPS = 400
#: The probe time that defines the reference speed: the median probe
#: time on the development host, a shared 2-core x86-64 VM, CPython 3.
REFERENCE_PROBE_S = 2.0e-4


class _State:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0


def _accumulator() -> Iterator[float]:
    total = 0.0
    while True:
        total += yield total


def probe_kernel(steps: int = PROBE_STEPS) -> float:
    """A fixed piece of interpreter work; allocates almost nothing the
    garbage collector tracks, so the program's heap does not change its
    time."""
    heap: list[float] = []
    counts = dict.fromkeys(range(64), 0)
    acc = _accumulator()
    next(acc)
    state = _State()
    for i in range(steps):
        heappush(heap, ((i * 7919) % 613) * 1.5)
        counts[i & 63] += 1
        state.total += acc.send(i * 0.5) * 1e-9
    while heap:
        state.total -= heappop(heap) * 1e-9
    return state.total + counts[7]


class SpeedClock:
    """Reference seconds, advancing at the host's measured speed.

    ``now()`` is a drop-in for ``time.perf_counter`` in the timed code.
    Until the first probe the rate is 1. ``probe`` is injectable so the
    arithmetic can be tested without a timer.
    """

    def __init__(self, probe: Any = probe_kernel) -> None:
        self._probe = probe
        self._window: deque[float] = deque(maxlen=PROBE_WINDOW)
        #: Every probe time so far, in host seconds.
        self.probes: list[float] = []
        # (reference time, host time it was taken at, rate), replaced
        # as one object so a probe between two reads cannot mix them.
        self._state = (0.0, time.perf_counter(), 1.0)

    def now(self) -> float:
        ref, host, rate = self._state
        return ref + (time.perf_counter() - host) * rate

    def tick(self) -> None:
        """Advance to now at the old rate, probe, and take the new rate."""
        ref, host, rate = self._state
        start = time.perf_counter()
        ref += (start - host) * rate
        self._probe()
        end = time.perf_counter()
        self.probes.append(end - start)
        self._window.append(end - start)
        rate = REFERENCE_PROBE_S / statistics.median(self._window)
        self._state = (ref, time.perf_counter(), rate)

    @contextmanager
    def running(self) -> Iterator[SpeedClock]:
        """Probe every :data:`PROBE_INTERVAL` while the block runs (main
        thread only: it uses SIGALRM)."""

        def handler(signum: int, frame: Any) -> None:
            self.tick()

        self.tick()
        previous = signal.signal(signal.SIGALRM, handler)
        timer = signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL,
                                 PROBE_INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, *timer)
            signal.signal(signal.SIGALRM, previous)
