"""Network timing model for the simulator (the ns-2 substitute).

Transfers are timed with the same alpha-beta model the optimizer reasons
about (Section 3.1): sending n bytes from site k to site l takes
``LT[k, l] + n / BT[k, l]`` seconds.  On top of that, each *directed
cross-site link* is a FIFO resource: concurrent transfers over the same
site pair serialize their bandwidth terms, which is how scarce WAN
bandwidth actually behaves and what makes bad mappings hurt more than the
additive cost model alone predicts.  Intra-site transfers do not contend
(each node drives its own NIC through a non-blocking switch).
"""

from __future__ import annotations

import numpy as np

from ..core.mapping import validate_assignment
from ..core.problem import MappingProblem

__all__ = ["SimNetwork", "UniformNetwork"]


class SimNetwork:
    """Timing + contention model for a mapped application.

    Parameters
    ----------
    problem:
        Supplies LT/BT and capacities (only LT/BT are used here).
    assignment:
        (N,) process -> site mapping; transfers are timed by the sites the
        endpoints live on.
    contention:
        If True (default), serialize cross-site transfers per directed
        site pair; if False, links have infinite parallelism and the model
        reduces to pure alpha-beta.
    collect_stats:
        Accumulate per-directed-site-pair transfer counts, bytes, and
        contention stall time (readable via :meth:`link_stats`).  The
        default ``None`` defers the decision to :meth:`reset`: stats are
        collected exactly when the ambient observability recorder or
        metrics registry is enabled, so plain simulations pay nothing.
    """

    def __init__(
        self,
        problem: MappingProblem,
        assignment: np.ndarray,
        *,
        contention: bool = True,
        collect_stats: bool | None = None,
    ) -> None:
        self.assignment = validate_assignment(problem, assignment)
        self.latency = problem.LT
        self.bandwidth = problem.BT
        self.contention = bool(contention)
        self.collect_stats = collect_stats
        self._link_free: dict[tuple[int, int], float] = {}
        self._stats_on = False
        # Per directed site pair: [transfers, bytes, stall_s].
        self._pair_stats: dict[tuple[int, int], list[float]] = {}

    def reset(self) -> None:
        """Clear link occupancy and stats (e.g. between repeated runs)."""
        self._link_free.clear()
        self._pair_stats.clear()
        if self.collect_stats is None:
            from ..obs import get_metrics, get_recorder

            self._stats_on = get_recorder().enabled or get_metrics().enabled
        else:
            self._stats_on = bool(self.collect_stats)

    def _record(self, key: tuple[int, int], nbytes: int, stall: float) -> None:
        entry = self._pair_stats.get(key)
        if entry is None:
            entry = self._pair_stats[key] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += nbytes
        entry[2] += stall

    def link_stats(self) -> list[dict]:
        """Per-directed-site-pair totals since the last :meth:`reset`.

        Each entry is ``{"src_site", "dst_site", "transfers", "bytes",
        "stall_s"}``; pairs are sorted for deterministic output.  Empty
        unless stats collection was on for the run (see
        ``collect_stats``).
        """
        return [
            {
                "src_site": a,
                "dst_site": b,
                "transfers": int(entry[0]),
                "bytes": int(entry[1]),
                "stall_s": float(entry[2]),
            }
            for (a, b), entry in sorted(self._pair_stats.items())
        ]

    def message_table(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Per-message ``(alpha, busy, link)`` of a recorded stream, and ``stats_on``.

        The vectorised form of :meth:`transfer`'s arithmetic, bit-identical
        to it, for the replay engine (:mod:`repro.simmpi.replay`).
        ``alpha`` is the latency term and ``busy`` the bandwidth term.
        ``link`` is the directed site pair ``p = a * M + b`` when the
        transfer serializes on it, and ``~p`` (negative) when it does not.
        ``stats_on`` tells whether the replay must sum stall time per
        pair for :meth:`adopt_replay` (decided by the last :meth:`reset`).
        """
        m = self.latency.shape[0]
        link = self.assignment[src] * m
        link += self.assignment[dst]
        alpha = self.latency.ravel()[link]
        busy = nbytes / self.bandwidth.ravel()[link]
        # Diagonal pairs a * M + a are the intra-site ones.
        free = link % (m + 1) == 0 if self.contention else slice(None)
        link[free] = ~link[free]
        return alpha, busy, link, self._stats_on

    def adopt_replay(
        self, link: np.ndarray, nbytes: np.ndarray, link_free: list[float], stall: list[float]
    ) -> None:
        """Take on the state a replay of ``(link, nbytes)`` left behind.

        ``link`` comes from :meth:`message_table`; ``link_free`` and
        ``stall`` are indexed by site pair.  Afterwards link occupancy
        and :meth:`link_stats` are what one :meth:`transfer` call per
        message would have left.
        """
        m = self.latency.shape[0]
        used = np.unique(link[link >= 0]).tolist()
        self._link_free = {divmod(p, m): link_free[p] for p in used}
        if not self._stats_on:
            return
        pair = np.where(link >= 0, link, ~link)
        transfers = np.bincount(pair, minlength=m * m)
        volume = np.bincount(pair, weights=nbytes, minlength=m * m)
        self._pair_stats = {
            divmod(p, m): [int(transfers[p]), int(volume[p]), stall[p]]
            for p in np.flatnonzero(transfers).tolist()
        }

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        """Completion time of an ``nbytes`` transfer ready at ``ready``.

        Returns the absolute simulated time at which the receiver holds
        the data.  Updates the link occupancy as a side effect.

        The replay engine (:func:`repro.simmpi.replay._replay`) runs this
        same link step inline over :meth:`message_table`'s columns and
        hands the resulting state back through :meth:`adopt_replay`; a
        change to the timing or contention rule here must be made there
        too.  ``tests/simmpi/test_replay.py`` holds the two bit-identical.
        """
        a, b = int(self.assignment[src]), int(self.assignment[dst])
        alpha = self.latency[a, b]
        busy = nbytes / self.bandwidth[a, b]
        if a == b or not self.contention:
            if self._stats_on:
                self._record((a, b), nbytes, 0.0)
            return ready + alpha + busy
        key = (a, b)
        start = max(ready, self._link_free.get(key, 0.0))
        self._link_free[key] = start + busy
        if self._stats_on:
            self._record(key, nbytes, start - ready)
        return start + alpha + busy


class UniformNetwork:
    """Flat network used for application *profiling*.

    During profiling (the CYPRESS substitute) only the message stream
    matters, not the timing, so all transfers take a constant small time
    and never contend.  This keeps profiling runs independent of any
    particular topology or mapping.
    """

    def __init__(self, transfer_time: float = 1e-6) -> None:
        if transfer_time <= 0:
            raise ValueError(f"transfer_time must be positive, got {transfer_time}")
        self.transfer_time = float(transfer_time)

    def reset(self) -> None:  # interface parity with SimNetwork
        """No state to clear."""

    def transfer(self, src: int, dst: int, nbytes: int, ready: float) -> float:
        return ready + self.transfer_time
