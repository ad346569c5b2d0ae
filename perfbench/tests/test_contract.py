"""BENCHMARK.json agrees with the metric catalogue; the command refuses without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import layers
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_complete_per_layer_fills_unused_layers_with_zero():
    filled = layers.complete_per_layer({"apps.profile_s": 1.5})
    assert list(filled) == list(layers.PER_LAYER)
    assert filled["apps.profile_s"] == 1.5
    assert filled["serve.hit_ms"] == 0.0


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
