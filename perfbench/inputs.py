"""Seeded input generators.

The benchmark keeps its own copy of the clustered sparse problem
generator instead of importing ``benchmarks/bench_*.py``, so edits to
those scripts cannot change what this benchmark measures.  Every input
is a pure function of the workload seed and a per-input index.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core import MappingProblem


def input_rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one input of one workload seed."""
    return np.random.default_rng([int(seed), *[int(s) for s in stream]])


#: Sites of every generated problem, in ``CLUSTERS`` groups of nearby sites.
SITES = 16
CLUSTERS = 4
#: Sampled communication edges per process.
EDGES_PER_PROC = 8


def sparse_problem(n: int, rng: np.random.Generator, *, slack: float = 0.0) -> MappingProblem:
    """A clustered sparse problem on ``SITES`` sites in ``CLUSTERS`` groups.

    Edges are sampled directly (source, destination, weight), which
    scales to N = 16384 where ``scipy.sparse.random`` would not.
    Capacities are ``ceil(n / SITES) + 2`` per site, raised to
    ``ceil((1 + slack) * n / SITES)`` when ``slack`` asks for more room
    (fault repair needs it to survive a site outage).
    """
    per = SITES // CLUSTERS
    centers = rng.uniform(-60.0, 60.0, size=(CLUSTERS, 2))
    coords = np.concatenate(
        [centers[i] + rng.normal(scale=2.0, size=(per, 2)) for i in range(CLUSTERS)]
    )
    cluster = np.repeat(np.arange(CLUSTERS), per)
    same = cluster[:, None] == cluster[None, :]
    lt = np.where(same, 0.001, 0.08 + rng.random((SITES, SITES)) * 0.1)
    bt = np.where(same, 1e9, 2e7 + rng.random((SITES, SITES)) * 1e7)
    np.fill_diagonal(lt, 0.0005)
    np.fill_diagonal(bt, 5e9)
    cap = max(-(-n // SITES) + 2, int(np.ceil((1.0 + slack) * n / SITES)))
    caps = np.full(SITES, cap)

    k = EDGES_PER_PROC * n
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    w = rng.random(k) * 1e6
    keep = src != dst
    cg = sp.csr_matrix((w[keep], (src[keep], dst[keep])), shape=(n, n))
    cg.sum_duplicates()
    ag = cg.copy()
    ag.data = np.ceil(ag.data / 1e5)
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=caps, coordinates=coords
    )


def reference_assignment(problem: MappingProblem) -> np.ndarray:
    """Processes in index order, filling sites in index order to capacity.

    A fixed yardstick built by the benchmark, not the program: dividing a
    mapping's cost by this assignment's cost compares mappings of
    different problems on one scale.
    """
    slots = np.repeat(np.arange(problem.num_sites), np.asarray(problem.capacities))
    return slots[: problem.num_processes].astype(np.int64)


def poisson_arrivals(
    rng: np.random.Generator, rate: float, seconds: float
) -> list[float]:
    """Due times (s from start) of ``round(rate * seconds)`` Poisson arrivals.

    A Poisson process conditioned on its count is that many uniform
    times, sorted: arrivals stay bursty, but every run offers the same
    number of requests.
    """
    count = round(rate * seconds)
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


def stratified(
    rng: np.random.Generator, count: int, shares: Sequence[tuple[Any, float]]
) -> list[Any]:
    """``count`` labels in the given shares exactly (largest remainder), shuffled."""
    exact = [share * count for _, share in shares]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(shares)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    labels = [label for (label, _), k in zip(shares, counts) for _ in range(k)]
    return [labels[i] for i in rng.permutation(len(labels))]
