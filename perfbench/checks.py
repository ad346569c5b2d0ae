"""Output checks and the attempted/failed tally.

Each ``check_*`` function returns a list of failure messages (empty when
the output is correct).  Checks recompute what they can from the inputs
instead of trusting values the program reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core import MappingProblem, total_cost


@dataclass
class Tally:
    """Operations attempted and failed in one run.

    An operation fails when it raised, was refused, or produced an output
    that failed a check.  Only check failures make the output incorrect.
    """

    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def record(self, failures: Sequence[str] = (), *, error: str | None = None) -> bool:
        """Count one operation; returns True when it succeeded."""
        self.attempted += 1
        self.check_failures.extend(failures)
        if error is not None:
            self.errors.append(error)
        ok = not failures and error is None
        if not ok:
            self.failed += 1
        return ok

    @property
    def correct(self) -> bool:
        return not self.check_failures

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_mapping(
    problem: MappingProblem,
    assignment: Any,
    reported_cost: float,
    where: str,
) -> list[str]:
    """Feasibility (range, capacities, pins) and cost of one mapping."""
    P = np.asarray(assignment)
    n, m = problem.num_processes, problem.num_sites
    if P.shape != (n,) or not np.issubdtype(P.dtype, np.integer):
        return [f"{where}: assignment has shape {P.shape} dtype {P.dtype}, want ({n},) ints"]
    if n and (P.min() < 0 or P.max() >= m):
        return [f"{where}: assignment names a site outside [0, {m})"]
    failures = []
    load = np.bincount(P, minlength=m)
    over = np.flatnonzero(load > np.asarray(problem.capacities))
    if over.size:
        s = int(over[0])
        failures.append(
            f"{where}: site {s} holds {int(load[s])} > capacity {int(problem.capacities[s])}"
        )
    if problem.constraints is not None:
        pins = np.asarray(problem.constraints)
        pinned = pins >= 0
        if np.any(P[pinned] != pins[pinned]):
            failures.append(f"{where}: a pinned process left its site")
    expected = total_cost(problem, P.astype(np.int64))
    if float(reported_cost) != float(expected):
        failures.append(
            f"{where}: reported cost {reported_cost!r} != recomputed {expected!r}"
        )
    return failures


def check_simulation(
    messages: int, nbytes: int, problem: MappingProblem, where: str
) -> list[str]:
    """A simulation moved exactly the profiled message and byte totals."""
    failures = []
    want_messages = int(round(float(problem.AG.sum())))
    want_bytes = int(round(float(problem.CG.sum())))
    if int(messages) != want_messages:
        failures.append(
            f"{where}: simulated {messages} messages, AG.sum() is {want_messages}"
        )
    if int(nbytes) != want_bytes:
        failures.append(f"{where}: simulated {nbytes} bytes, CG.sum() is {want_bytes}")
    return failures


def check_repair(outcome: Any, budget: int, where: str) -> list[str]:
    """A fault repair is feasible, correctly costed, and moved little.

    ``outcome`` is a :class:`repro.faults.FaultRepairOutcome`.
    """
    degraded = outcome.degraded
    result = outcome.result
    failures = check_mapping(
        degraded.problem, result.mapping.assignment, outcome.new_cost, where
    )
    if np.any(degraded.site_map[np.asarray(outcome.assignment)] < 0):
        failures.append(f"{where}: a process was repaired onto a dead site")
    limit = int(result.displaced.shape[0]) + int(budget)
    if outcome.num_migrated > limit:
        failures.append(
            f"{where}: migrated {outcome.num_migrated} > displaced + budget = {limit}"
        )
    return failures


def check_served_repair(
    problem: MappingProblem,
    partial: np.ndarray,
    result: dict[str, Any],
    where: str,
) -> list[str]:
    """A daemon ``repair`` reply: feasible, costed, kept what it could keep.

    The daemon repairs with no extra-move budget, so only the displaced
    processes may move.
    """
    mapping = result.get("mapping") or {}
    assignment = np.asarray(mapping.get("assignment", []))
    failures = check_mapping(problem, assignment, mapping.get("cost", float("nan")), where)
    if failures:
        return failures
    displaced = set(int(i) for i in result.get("displaced", []))
    unplaced = set(int(i) for i in np.flatnonzero(partial < 0))
    if not unplaced <= displaced:
        failures.append(f"{where}: unplaced processes missing from 'displaced'")
    moved = np.flatnonzero((partial < 0) | (assignment != partial))
    if moved.size > len(displaced):
        failures.append(f"{where}: migrated {moved.size} > displaced = {len(displaced)}")
    return failures
