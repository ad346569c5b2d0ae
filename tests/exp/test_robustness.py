"""The robustness evaluation harness and its CLI surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import GreedyMapper
from repro.core import GeoDistributedMapper
from repro.exp import evaluate_robustness, robustness_table
from repro.exp.robustness import robustness_scenario


@pytest.fixture(scope="module")
def scenario():
    return robustness_scenario(
        "LU", 16, num_sites=4, slack=2.0, seed=0, iterations=2
    )


@pytest.fixture(scope="module")
def mappers():
    return {"Greedy": GreedyMapper(), "Geo": GeoDistributedMapper()}


class TestRobustnessHarness:
    def test_full_grid(self, scenario, mappers):
        cells = evaluate_robustness(scenario.problem, mappers, seed=0)
        assert len(cells) == 5 * len(mappers)  # 5 faults x mappers
        assert all(c.feasible for c in cells)
        n = scenario.problem.num_processes
        for c in cells:
            assert np.isfinite(c.repaired_cost)
            assert c.num_migrated <= c.num_displaced + n // 10

    def test_scenario_has_slack(self, scenario):
        caps = scenario.problem.capacities
        n = scenario.problem.num_processes
        assert caps.sum() - caps.max() >= n  # any single outage survivable

    def test_infeasible_fault_reported_not_raised(self, mappers):
        # Zero slack: an outage cell must come back infeasible, not crash.
        tight = robustness_scenario(
            "LU", 16, num_sites=4, slack=1.0, seed=0, iterations=2
        )
        cells = evaluate_robustness(tight.problem, mappers, seed=0)
        outage = [c for c in cells if c.fault == "outage"]
        assert outage and all(not c.feasible for c in outage)
        assert all("deficit" in c.error for c in outage)

    def test_table_renders(self, scenario, mappers):
        cells = evaluate_robustness(scenario.problem, mappers, seed=0)
        text = robustness_table(cells)
        assert "fault" in text and "ratio" in text
        assert "outage" in text

    def test_bad_scenario_parameters(self):
        with pytest.raises(ValueError, match="slack"):
            robustness_scenario("LU", 16, slack=0.5)
        with pytest.raises(ValueError, match="num_sites"):
            robustness_scenario("LU", 16, num_sites=99)


def _same_cell(inline: dict, fabric: dict) -> bool:
    """Field-for-field equality where NaN equals NaN."""
    assert inline.keys() == fabric.keys()
    return all(
        a == b
        or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)
        for a, b in ((inline[k], fabric[k]) for k in inline)
    )


class TestRobustnessCli:
    def test_cli_cells_match_inline_and_sweep_grid(self, tmp_path, capsys):
        """`repro robustness` runs on the fabric and computes exactly the
        inline `evaluate_robustness` cells and the `repro sweep --grid
        robustness` payload.  Zero slack makes the outage cells
        infeasible, so the NaN fields are compared too."""
        from repro.cli import main
        from repro.core import get_mapper
        from repro.exp.fabric import load_result, results_equivalent

        names = ["baseline", "greedy", "geo-distributed"]
        params = ["--app", "LU", "--processes", "8", "--sites", "2",
                  "--slack", "1.0", "--seed", "3"]
        cli_dir, sweep_dir = tmp_path / "cli", tmp_path / "sweep"
        assert main(["robustness", *params, "--checkpoint", str(cli_dir)]) == 0
        assert main(
            ["sweep", "--sweep-dir", str(sweep_dir), "--grid", "robustness",
             *params, "--mappers", *names]
        ) == 0
        capsys.readouterr()
        cli_rows = {r["key"]: r for r in load_result(cli_dir)}
        sweep_rows = {r["key"]: r for r in load_result(sweep_dir)}
        assert cli_rows.keys() == sweep_rows.keys()
        assert results_equivalent(
            [cli_rows[k] for k in sorted(cli_rows)],
            [sweep_rows[k] for k in sorted(sweep_rows)],
        )

        scenario = robustness_scenario(
            "LU", 8, num_sites=2, slack=1.0, seed=3
        )
        cells = evaluate_robustness(
            scenario.problem, {n: get_mapper(n) for n in names}, seed=3
        )
        assert len(cells) == len(cli_rows) == 5 * len(names)
        assert any(not c.feasible for c in cells)
        for c in cells:
            row = cli_rows[f"robustness/{c.fault}/{c.mapper}"]
            assert row["status"] == "ok"
            assert _same_cell(c.to_dict(), row["result"]), (c, row)

    def test_cli_limit_then_resume(self, tmp_path, capsys):
        from repro.cli import main

        ck = str(tmp_path / "sweep.json")
        base = [
            "robustness", "--app", "LU", "--processes", "16",
            "--sites", "4", "--faults", "outage", "brownout",
            "--checkpoint", ck,
        ]
        assert main(base + ["--limit", "2"]) == 0
        first = capsys.readouterr().out
        assert "2 cells, 0 from checkpoint" in first

        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "2 from checkpoint" in second
        assert "0 failed" in second

    def test_cli_rejects_unknown_fault(self, capsys):
        from repro.cli import main

        assert main(
            ["robustness", "--processes", "16", "--faults", "earthquake"]
        ) == 2
        assert "unknown faults" in capsys.readouterr().err

    def test_cli_resume_requires_checkpoint(self, capsys):
        from repro.cli import main

        assert main(["robustness", "--resume"]) == 2
