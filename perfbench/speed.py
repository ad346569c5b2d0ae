"""Host-speed probe: wall times scaled to a reference speed.

On a shared host the same work takes up to half as long again from one
minute to the next, and the swing is the host's, not the program's (see
README, Steadiness decisions).  The benchmark therefore times a fixed
probe next to every operation it measures: a little pure-Python heap and
dict work, as the simulator's event loop does, and a little numpy, as
the mappers do.  An operation's wall time is scaled by
``REFERENCE_PROBE_S / probe time``, the probe time taken from the probes
nearest the operation.  A slow minute slows the probe and the operation
alike, so the scaled time holds still while the raw time swings.

Scaled times read in seconds at the reference machine's probe speed.
The probe runs in the benchmark's own process, between operations, never
during one; a program change that left work running between operations
would slow the probe and be scaled away, so look for one when a scaled
time improves but the raw time does not.
"""

from __future__ import annotations

import heapq
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.obs import get_recorder

#: Median probe time on the reference machine in a quiet minute (see README).
REFERENCE_PROBE_S = 0.0030
#: Probe runs per sample; a sample is their median.
PROBE_REPEATS = 3
#: ``SpeedLog.timed`` takes a fresh probe before an operation when the
#: last one is older than this.
STALE_S = 0.5

_VECTOR = np.random.default_rng(0).random(30_000)
_MATRIX = np.random.default_rng(1).random((120, 120))


def _probe_work() -> None:
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    while heap:
        heapq.heappop(heap)
    np.argsort(_VECTOR)
    _MATRIX @ _MATRIX
    np.cumsum(_VECTOR)


def probe_s() -> float:
    """Median wall time of ``PROBE_REPEATS`` runs of the probe."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Timing:
    """One operation's wall time, raw and scaled to the reference speed."""

    raw_s: float = 0.0
    scaled_s: float = 0.0
    #: Reference over measured probe time: ``scaled_s / raw_s``.
    factor: float = 1.0


class SpeedLog:
    """Probe samples of one run, each stamped with when it was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, probe seconds)

    def sample(self) -> float:
        """Run the probe (under a ``bench.probe`` span) and log its time."""
        t0 = time.perf_counter()
        with get_recorder().span("bench.probe"):
            seconds = probe_s()
        self.samples.append(((t0 + time.perf_counter()) / 2, seconds))
        return seconds

    def median_s(self) -> float:
        """Median probe time of the run so far."""
        return statistics.median(s for _, s in self.samples)

    def probe_near(self, t0: float, t1: float, pad: float) -> float:
        """Median probe time within ``pad`` seconds of ``[t0, t1]``.

        The nearest sample when none is that close.
        """
        if not self.samples:
            raise ValueError("no probe samples")
        near = [s for t, s in self.samples if t0 - pad <= t <= t1 + pad]
        if near:
            return statistics.median(near)
        mid = (t0 + t1) / 2
        return min(self.samples, key=lambda sample: abs(sample[0] - mid))[1]

    def scale(self, raw_s: float, t0: float, t1: float, pad: float) -> float:
        """``raw_s``, taken over ``[t0, t1]``, at the reference speed."""
        return raw_s * REFERENCE_PROBE_S / self.probe_near(t0, t1, pad)

    @contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the body, scaled by the mean of the probes just before and after.

        Back-to-back operations share a probe: the one after an operation
        is the one before the next.
        """
        if not self.samples or time.perf_counter() - self.samples[-1][0] > STALE_S:
            self.sample()
        before = self.samples[-1][1]
        timing = Timing()
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.raw_s = time.perf_counter() - t0
            after = self.sample()
            timing.factor = REFERENCE_PROBE_S * 2 / (before + after)
            timing.scaled_s = timing.raw_s * timing.factor
