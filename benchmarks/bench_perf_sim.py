"""Perf bench: the simulator, recorded once and replayed per mapping.

Every record runs LU on the paper's EC2 deployment (4 regions of
m4.xlarge instances, one rank per instance, constraint ratio 0.2):

* ``sim_des_full`` / ``sim_des_comm`` (n=64) — the generator engine
  (``Simulator.run``) under the Geo-distributed mapping, with compute
  phases and communication only;
* ``sim_replay_full`` / ``sim_replay_comm`` (n=64) — the same
  simulations replayed from the recorded op stream
  (``repro.simmpi.replay``), checked bit-identical to the generator
  engine before anything is timed;
* ``e2e_compare_lu`` (n=32 and n=128) — the paper pipeline end to end
  from a fresh app: profile, map with the four default mappers, record
  the op stream and simulate each mapping in full and comm mode.
  The record's ``layers`` field holds the self-time per span name of
  one traced run, so a change in the total names the layer that moved.

``cost`` is the Geo-distributed mapping's simulated time in seconds, a
deterministic cross-check.  Timings land in ``BENCH_perf.json`` (schema
v2, keyed by ``(bench, n, m)``; redirect with ``REPRO_BENCH_JSON``).
Run directly::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py [--quick]

``--quick`` times the same sizes with fewer repeats.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit, median_time, update_bench_json  # noqa: E402

from repro.apps import make_paper_app  # noqa: E402
from repro.cloud import PAPER_EC2_REGIONS, CloudTopology  # noqa: E402
from repro.core import GeoDistributedMapper  # noqa: E402
from repro.exp import build_problem, default_mappers, run_comparison  # noqa: E402
from repro.obs import SpanRecorder, aggregate_trace, using_recorder  # noqa: E402
from repro.simmpi import SimNetwork, Simulator, replay  # noqa: E402

SITES = len(PAPER_EC2_REGIONS)
SEED = 0


def deployment(ranks: int) -> CloudTopology:
    return CloudTopology.from_regions(
        PAPER_EC2_REGIONS, ranks // SITES, instance_type="m4.xlarge", seed=SEED
    )


def bench_engines(repeats: int) -> list[dict]:
    """Generator engine vs replay for LU-64, full and comm mode."""
    app = make_paper_app("LU", 64)
    problem = build_problem(app, deployment(64), constraint_ratio=0.2, seed=SEED)
    assignment = GeoDistributedMapper(kappa=4).map(problem, seed=SEED).assignment
    stream = app.op_stream()
    records = []
    for mode, scale in (("full", 1.0), ("comm", 0.0)):

        def des(scale=scale):
            network = SimNetwork(problem, assignment)
            return Simulator(64, app.program, network, compute_scale=scale).run()

        def rep(scale=scale):
            return replay(stream, SimNetwork(problem, assignment), compute_scale=scale)

        t_des, r_des = median_time(des, warmup=0, repeats=repeats)
        t_rep, r_rep = median_time(rep, warmup=1, repeats=repeats)
        if r_des.makespan_s != r_rep.makespan_s or not np.array_equal(
            r_des.rank_times_s, r_rep.rank_times_s
        ):
            raise SystemExit(f"replay differs from the generator engine in {mode} mode")
        for name, seconds in ((f"sim_des_{mode}", t_des), (f"sim_replay_{mode}", t_rep)):
            records.append(
                {"bench": name, "n": 64, "m": SITES, "seconds": seconds, "cost": r_des.makespan_s}
            )
    return records


def compare_once(ranks: int, topology: CloudTopology):
    app = make_paper_app("LU", ranks)
    problem = build_problem(app, topology, constraint_ratio=0.2, seed=SEED)
    return run_comparison(app, problem, default_mappers(), seed=SEED)


def bench_e2e(ranks: int, repeats: int) -> dict:
    """Profile, map and simulate LU at ``ranks`` from a fresh app."""
    topology = deployment(ranks)
    seconds, results = median_time(
        lambda: compare_once(ranks, topology), warmup=0, repeats=repeats
    )
    recorder = SpanRecorder()
    with using_recorder(recorder):
        compare_once(ranks, topology)
    self_s = aggregate_trace(recorder.roots).counters["span_self_seconds_total"]
    layers = {dict(labels)["span"]: round(value, 6) for labels, value in self_s.items()}
    return {
        "bench": "e2e_compare_lu",
        "n": ranks,
        "m": SITES,
        "seconds": seconds,
        "cost": results["Geo-distributed"].total_time_s,
        "layers": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke: fewer repeats")
    args = parser.parse_args(argv)
    repeats = 2 if args.quick else 3

    records = bench_engines(repeats)
    records += [bench_e2e(ranks, repeats) for ranks in (32, 128)]

    by_name = {(r["bench"], r["n"]): r["seconds"] for r in records}
    lines = ["bench                  n      m    seconds"]
    lines += [f"{r['bench']:<20} {r['n']:>4} {r['m']:>6} {r['seconds']:>10.4f}" for r in records]
    for mode in ("full", "comm"):
        speedup = by_name[(f"sim_des_{mode}", 64)] / by_name[(f"sim_replay_{mode}", 64)]
        lines.append(f"replay vs generator engine, {mode} mode: {speedup:.1f}x")
    for r in records[-2:]:
        top = ", ".join(f"{k} {v:.3f}s" for k, v in list(r["layers"].items())[:4])
        lines.append(f"e2e_compare_lu n={r['n']} top self-time: {top}")
    path = update_bench_json(records)
    emit("bench_perf_sim", "\n".join(lines))
    print(f"[BENCH_perf.json updated at {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
