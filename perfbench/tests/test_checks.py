"""Corrupted outputs are caught by the checks and counted as failures."""

import numpy as np

from perfbench.checks import Tally, check_mapping, check_served_repair, check_simulation
from repro.core import MappingProblem, total_cost


def _problem(constraints=None) -> MappingProblem:
    cg = np.array([[0, 5, 1, 0], [5, 0, 0, 1], [1, 0, 0, 5], [0, 1, 5, 0]], float)
    ag = np.where(cg > 0, 1.0, 0.0)
    lt = np.array([[0.001, 0.1], [0.1, 0.001]])
    bt = np.array([[1e9, 1e7], [1e7, 1e9]])
    return MappingProblem(
        CG=cg, AG=ag, LT=lt, BT=bt, capacities=np.array([2, 2]), constraints=constraints
    )


def test_a_correct_mapping_passes():
    problem = _problem()
    assignment = np.array([0, 0, 1, 1])
    assert check_mapping(problem, assignment, total_cost(problem, assignment), "ok") == []


def test_over_capacity_mapping_is_a_counted_failure():
    problem = _problem()
    assignment = np.array([0, 0, 0, 1])
    failures = check_mapping(problem, assignment, total_cost(problem, assignment), "over")
    assert any("capacity" in f for f in failures)
    tally = Tally()
    tally.record([])
    assert not tally.record(failures)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)
    assert tally.fail_ratio == 0.5


def test_misreported_cost_and_moved_pin_fail():
    problem = _problem(constraints=np.array([1, -1, -1, -1]))
    assignment = np.array([0, 0, 1, 1])
    failures = check_mapping(problem, assignment, 1.0, "bad")
    assert any("pinned" in f for f in failures)
    assert any("recomputed" in f for f in failures)


def test_byte_total_mismatch_is_a_failure():
    problem = _problem()
    messages = int(problem.AG.sum())
    nbytes = int(problem.CG.sum())
    assert check_simulation(messages, nbytes, problem, "sim") == []
    failures = check_simulation(messages, nbytes + 1, problem, "sim")
    assert len(failures) == 1 and "CG.sum()" in failures[0]
    tally = Tally()
    tally.record(failures)
    assert tally.failed == 1 and not tally.correct


def test_refusals_count_as_failed_but_not_incorrect():
    tally = Tally()
    tally.record(error="[429] queue full")
    assert (tally.failed, tally.correct) == (1, True)


def test_served_repair_must_keep_kept_processes():
    problem = _problem()
    partial = np.array([0, -1, 1, 1])
    good = np.array([0, 0, 1, 1])
    result = {
        "mapping": {"assignment": good.tolist(), "cost": total_cost(problem, good)},
        "displaced": [1],
    }
    assert check_served_repair(problem, partial, result, "repair") == []
    moved = np.array([1, 0, 0, 1])
    result = {
        "mapping": {"assignment": moved.tolist(), "cost": total_cost(problem, moved)},
        "displaced": [1],
    }
    failures = check_served_repair(problem, partial, result, "repair")
    assert any("migrated" in f for f in failures)


def test_traced_comm_mode_byte_total_mismatch_is_a_failure():
    from perfbench.pipeline import MAPPER_SPANS, _check_traced_simulations
    from repro.obs import Span

    problem = _problem()
    totals = {"total_messages": int(problem.AG.sum()), "total_bytes": int(problem.CG.sum())}
    app = Span(name="bench.app")
    for mode in ("simulate.full", "simulate.comm"):
        for _ in MAPPER_SPANS:
            app.children.append(
                Span(name=mode, children=[Span(name="simulate.run", attrs=dict(totals))])
            )
    assert _check_traced_simulations(app, problem, "app") == []
    app.children[-1].children[0].attrs["total_bytes"] += 1
    failures = _check_traced_simulations(app, problem, "app")
    assert len(failures) == 1 and "CG.sum()" in failures[0]
    del app.children[0]
    assert any("simulations traced" in f for f in _check_traced_simulations(app, problem, "app"))
