"""Workload ``mapper-scale``: large fresh solves alternating with fault repairs.

Each step is (a) one fresh ``MultilevelMapper(kappa=4).map`` of a new
N=16384, 16-site clustered sparse problem with 8 edges per process, and
(b) one ``repair_after_faults`` at its default budget (N/10 extra moves)
on one of ``BASES`` N=1024, 16-site deployments mapped during set-up,
under one of the five ``standard_fault_suite`` schedules.  Step ``i``
repairs deployment ``i % BASES`` under schedule ``i % 5``, so no solve or
repair repeats within a run, and solves and repairs take comparable
shares of a step.  Both uses share ``CostEvaluator``, so a cost-kernel
change that helps one and costs the other shows in the same step.  A
round is ``ROUND_STEPS`` steps.
Each solve and each repair is timed on its own and scaled to the
reference host speed by the probes on either side of it (``speed.py``).

The seed draws the solve problems.  The repair deployments are the same
for every seed: how long a repair takes depends mostly on how often the
global polish falls back to a swap search, which varies 3x between
deployments (see README), far beyond any usable run-to-run bound.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import GeoDistributedMapper, MappingProblem, MultilevelMapper
from repro.faults import repair_after_faults, standard_fault_suite
from repro.obs import SpanRecorder, get_recorder, using_recorder

from .checks import Tally, check_mapping, check_repair
from .inputs import SITES, input_rng, sparse_problem
from .layers import SpanTotals, overhead_pct
from .result import WorkloadResult
from .speed import SpeedLog
from .stats import self_peak_rss_mb, tail_or_median

SOLVE_N = 16384
REPAIR_N = 1024
KAPPA = 4
#: Spare capacity of the repair deployments, enough to survive an outage.
REPAIR_SLACK = 0.25
#: When the suite's faults strike; repairs run at this simulated time.
FAULT_TIME = 1.0
#: Repair deployments; with the five schedules (coprime) they give
#: ``5 * BASES`` distinct repairs, which caps the steps of one run.
BASES = 6
#: Times the deployments are mapped during set-up; ``setup_s`` is the
#: median time to map all of them.
SETUP_REPEATS = 5
#: Steps (one solve and one repair each) per round.  A round's time is the
#: sum of its steps', so it averages over solve problems and repairs
#: instead of hanging on whichever one lands in the middle.
ROUND_STEPS = 3
#: A round's wall time on the reference machine (see README): a run makes
#: ``seconds / ROUND_NOMINAL_S`` rounds, a count fixed by ``--seconds``.
ROUND_NOMINAL_S = 15.0
#: Rounds every run makes, however short ``--seconds``.
MIN_ROUNDS = 2
#: Generator seed of the repair deployments, the same for every run.
REPAIR_INPUT_SEED = 0


def _solve_problem(seed: int, index: int):
    return sparse_problem(SOLVE_N, input_rng(seed, 2, index))


def _base_problem(index: int):
    return sparse_problem(
        REPAIR_N, input_rng(REPAIR_INPUT_SEED, 3, index), slack=REPAIR_SLACK
    )


@dataclass
class _Base:
    """A repair deployment: its problem and the assignment mapped at set-up."""

    problem: MappingProblem
    assignment: np.ndarray


@dataclass
class _Step:
    """Timings (scaled to the reference speed) and outputs of one step."""

    map_s: float = 0.0
    repair_s: float = 0.0
    raw_s: float = 0.0
    map_cost: float = math.nan
    repair_cost: float = math.nan
    levels: int = 0
    coarsest_n: int = 0
    extra_moves_used: int = 0
    migrated: int = 0

    @property
    def wall(self) -> float:
        return self.map_s + self.repair_s


def _one_step(
    seed: int, index: int, base: _Base, fault: str, schedule, speed: SpeedLog, tally: Tally
) -> _Step:
    out = _Step()
    problem = _solve_problem(seed, index)
    with get_recorder().span("bench.step"):
        error = None
        mapping = None
        try:
            with speed.timed() as solve, get_recorder().span("core.multilevel.map"):
                mapping = MultilevelMapper(kappa=KAPPA).map(problem, seed=index)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            error = f"solve {index}: {type(exc).__name__}: {exc}"
        out.map_s = solve.scaled_s
        failures: list[str] = []
        if mapping is not None:
            failures = check_mapping(
                problem, mapping.assignment, mapping.cost, f"solve {index}"
            )
            out.map_cost = mapping.cost
            levels = mapping.meta.get("levels", [])
            out.levels = len(levels)
            out.coarsest_n = levels[-1]["n"] if levels else 0
        tally.record(failures, error=error)

        error = None
        outcome = None
        try:
            with speed.timed() as repair, get_recorder().span(
                "faults.repair_after_faults", fault=fault
            ):
                outcome = repair_after_faults(
                    base.problem, base.assignment, schedule, at_time=FAULT_TIME
                )
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            error = f"repair {index}/{fault}: {type(exc).__name__}: {exc}"
        out.repair_s = repair.scaled_s
        out.raw_s = solve.raw_s + repair.raw_s
        failures = []
        if outcome is not None:
            budget = base.problem.num_processes // 10
            failures = check_repair(outcome, budget, f"repair {index}/{fault}")
            out.repair_cost = outcome.new_cost
            out.extra_moves_used = int(outcome.result.mapping.meta.get("extra_moves_used", 0))
            out.migrated = outcome.num_migrated
        tally.record(failures, error=error)
    return out


def _round_walls(steps: list[_Step]) -> list[float]:
    """Each round's time: the sum of its ``ROUND_STEPS`` steps'."""
    return [
        sum(step.wall for step in steps[k:k + ROUND_STEPS])
        for k in range(0, len(steps), ROUND_STEPS)
    ]


def _per_layer(totals: SpanTotals, steps: list[_Step]) -> dict[str, float]:
    n = len(steps)  # one solve and one repair per step
    repair_wall = totals.total("faults.repair_after_faults")
    return {
        "core.multilevel.map_s": totals.total("core.multilevel.map") / n,
        "core.multilevel.coarsen_s": totals.total("multilevel.coarsen") / n,
        "core.multilevel.solve_s": totals.total("multilevel.solve") / n,
        "core.multilevel.refine_s": totals.total("multilevel.refine") / n,
        "core.multilevel.levels": statistics.mean(r.levels for r in steps),
        "core.multilevel.coarsest_n": statistics.mean(r.coarsest_n for r in steps),
        "faults.repair_s": repair_wall / n,
        "faults.degrade_s": (repair_wall - totals.total("repair.run")) / n,
        "core.repair.polish_s": totals.total("repair.polish", "repair.global_polish") / n,
        "core.repair.place_s": totals.total("repair.place") / n,
        "core.repair.extra_moves_used": statistics.mean(r.extra_moves_used for r in steps),
        "core.repair.migrated": statistics.mean(r.migrated for r in steps),
    }


def run(seed: int, seconds: float, traced: bool, src: Path) -> WorkloadResult:
    tally = Tally()
    result = WorkloadResult(tally)
    schedules = list(standard_fault_suite(SITES, at_time=FAULT_TIME).items())

    problems = [_base_problem(index) for index in range(BASES)]
    speed = SpeedLog()
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        mappings = []
        setup_s = 0.0
        for index, problem in enumerate(problems):
            with speed.timed() as timing:
                mappings.append(GeoDistributedMapper(kappa=KAPPA).map(problem, seed=index))
            setup_s += timing.scaled_s
        setups.append(setup_s)
    bases: list[_Base] = []
    for index, (problem, mapping) in enumerate(zip(problems, mappings)):
        tally.record(
            check_mapping(problem, mapping.assignment, mapping.cost, f"base {index}")
        )
        bases.append(_Base(problem, mapping.assignment))

    recorder = SpanRecorder()
    plain: list[_Step] = []
    spanned: list[_Step] = []
    rounds = min(
        BASES * len(schedules) // ROUND_STEPS,
        max(MIN_ROUNDS, round(seconds / ROUND_NOMINAL_S)),
    )
    for index in range(rounds * ROUND_STEPS):
        fault, schedule = schedules[index % len(schedules)]
        args = (seed, index, bases[index % BASES], fault, schedule, speed, tally)
        plain.append(_one_step(*args))
        if traced:
            with using_recorder(recorder):
                spanned.append(_one_step(*args))

    map_cost = statistics.mean(r.map_cost for r in plain)
    repair_cost = statistics.mean(r.repair_cost for r in plain)
    walls = _round_walls(plain)
    maps = [r.map_s for r in plain]
    repairs = [r.repair_s for r in plain]
    label, tail = tail_or_median(walls)
    rss = self_peak_rss_mb()
    result.end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "cost_index": map_cost,
        "cost_index_2": repair_cost,
    }
    result.line("setup_s", statistics.median(setups), "s", len(setups))
    result.line("peak_rss_mb", rss, "MB")
    result.line("round_s", statistics.median(walls), "s", len(walls))
    result.line(f"round_s.{label}", tail, "s", len(walls))
    result.line("round_raw_s", statistics.median(
        sum(r.raw_s for r in plain[k:k + ROUND_STEPS]) for k in range(0, len(plain), ROUND_STEPS)
    ), "s", len(walls))
    result.line("probe_ms", speed.median_s() * 1e3, "ms", len(speed.samples))
    result.line("map_p50_s", statistics.median(maps), "s", len(maps))
    result.line("map_cost", map_cost, "cost", len(plain))
    result.line("repair_p50_s", statistics.median(repairs), "s", len(repairs))
    result.line("repair_cost", repair_cost, "cost", len(plain))
    result.line("fail_ratio", tally.fail_ratio, "ratio", tally.attempted)
    if traced:
        totals = SpanTotals(recorder.roots)
        result.per_layer = _per_layer(totals, spanned)
        result.per_layer["obs.trace_overhead_pct"] = overhead_pct(
            _round_walls(spanned), walls
        )
        result.trace_roots = recorder.roots
    return result
