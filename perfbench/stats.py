"""Summary statistics and process accounting shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence

import numpy as np

#: Candidate tail percentiles, lowest first.
PERCENTILES = (0.5, 0.9, 0.99, 0.999)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Points per rank at which ``harrell_davis`` integrates its weights.
HD_GRID = 32


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (0 < q <= 1)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def harrell_davis(samples: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``samples`` (0 < q < 1).

    A mean of all order statistics, weighted by a Beta(q(n+1), (1-q)(n+1))
    distribution over their ranks, so the weight sits on the few ranks
    around ``q * n``.  Where the samples thin out, as in the upper tail
    of a latency distribution, a single order statistic jumps between
    neighbours far apart from run to run; this estimate moves smoothly.
    The weights are integrated by the midpoint rule, which keeps
    ``scipy.stats`` (and its 50 MB) out of the measured process.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("quantile of no samples")
    a, b = q * (n + 1), (1 - q) * (n + 1)
    x = (np.arange(n * HD_GRID) + 0.5) / (n * HD_GRID)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, HD_GRID).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie past the nearest-rank ``q`` position."""
    return n - max(1, math.ceil(q * n))


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(q, value)`` for the highest percentile with >= 10 samples beyond it.

    The value is the Harrell-Davis estimate.  ``None`` when even the
    median has fewer than 10 samples beyond it (fewer than 20 samples).
    """
    best = None
    for q in PERCENTILES:
        if samples_beyond(len(samples), q) >= MIN_BEYOND:
            best = q
    if best is None:
        return None
    return best, harrell_davis(samples, best)


def tail_or_median(samples: Sequence[float]) -> tuple[str, float]:
    """The reportable tail as ``(label, value)``; the median when none is."""
    found = tail(samples)
    if found is None:
        return "p50", statistics.median(samples)
    q, value = found
    return f"p{q * 100:g}", value


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def waited_children_peak_rss_mb() -> float:
    """Largest peak resident set among waited-for children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    found: list[int] = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            found = [int(tok) for tok in fh.read().split()]
    except (FileNotFoundError, ProcessLookupError):
        pass
    return found


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"
