"""Workload ``paper-pipeline``: the paper's Fig. 5 EC2 experiment, end to end.

One pass profiles LU, K-means and DNN at 64 ranks on the 4-region x 16
m4.xlarge deployment (constraint ratio 0.2) with ``build_problem``, then
runs ``run_comparison`` with the paper's four mappers, each simulated in
full and in comm mode.  LU is message-heavy and simulation-bound;
K-means and DNN send few large messages and are mapper-bound, so a
simulator change and a mapper change each show, in different apps.

A pass's time is the sum of its profiling and comparison steps, each
scaled to the reference host speed by the probes on either side of it
(``speed.py``).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps import make_paper_app
from repro.cloud import PAPER_EC2_REGIONS, CloudTopology
from repro.exp import build_problem, default_mappers, run_comparison
from repro.obs import Span, SpanRecorder, get_recorder, using_recorder

from .checks import Tally, check_mapping, check_simulation
from .inputs import input_rng
from .layers import SpannedMapper, SpanTotals, overhead_pct
from .result import WorkloadResult
from .speed import SpeedLog
from .stats import self_peak_rss_mb, tail_or_median, waited_children_peak_rss_mb

APPS = ("LU", "K-means", "DNN")
RANKS = 64
CONSTRAINT_RATIO = 0.2
SETUP_REPEATS = 9
#: A pass's wall time on the reference machine (see README): a run makes
#: ``seconds / PASS_NOMINAL_S`` passes, a count fixed by ``--seconds`` so
#: that runs never differ in how many passes their median covers.
PASS_NOMINAL_S = 7.5
#: Passes every run makes, however short ``--seconds``.
MIN_PASSES = 2
#: Generator seed of the pinnings, the same for every run.
PINNING_SEED = 0

#: Benchmark span around each mapper's ``map``, by ``default_mappers`` key.
MAPPER_SPANS = {
    "Baseline": "baselines.random.map",
    "Greedy": "baselines.greedy.map",
    "MPIPP": "baselines.mpipp.map",
    "Geo-distributed": "core.geodist.map",
}

#: Set-up as a fresh process pays it: the imports, then the topology.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
from repro.apps import make_paper_app
from repro.cloud import PAPER_EC2_REGIONS, CloudTopology
from repro.exp import build_problem, default_mappers, run_comparison
CloudTopology.from_regions(PAPER_EC2_REGIONS, 16, instance_type="m4.xlarge", seed=int(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def _setup_once(src: Path, seed: int, speed: SpeedLog) -> float:
    """One fresh process's set-up time, scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with speed.timed() as timing:
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(seed)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
    return float(out.stdout.strip().splitlines()[-1]) * timing.factor


def _app_seed(pass_index: int, app_index: int) -> int:
    """Constraint and mapper seed of one app in one pass.

    Each pass draws its own, so a run's median pass averages over several
    pinnings instead of timing one pinning several times.  They are the
    same for every workload seed (which draws the topology's jitter): the
    pinning moves the Geo-distributed comm-mode time by 9% and its mapping
    cost by 7% across seeds (see README), beyond the costs' bound.
    """
    return int(input_rng(PINNING_SEED, 1, pass_index, app_index).integers(2**31))


@dataclass
class _Pass:
    """One pass's wall time, raw and scaled, and Geo-distributed's outcome."""

    raw_s: float = 0.0
    scaled_s: float = 0.0
    #: Geo-distributed's simulated seconds in full and in comm mode,
    #: each summed over the apps.
    geo: tuple[float, float] = (0.0, 0.0)


def _one_pass(topology, pass_index: int, speed: SpeedLog, tally: Tally) -> _Pass:
    """Run one pass.

    ``run_comparison`` is called once per mapper, in ``default_mappers``
    order with one shared generator, which maps and simulates exactly as
    one call with all four would; between calls the host-speed probe runs.
    """
    out = _Pass()
    geo_full = geo_comm = 0.0
    with get_recorder().span("bench.pass"):
        for index, name in enumerate(APPS):
            app_seed = _app_seed(pass_index, index)
            app = make_paper_app(name, RANKS)
            mappers = {
                key: SpannedMapper(mapper, MAPPER_SPANS[key])
                for key, mapper in default_mappers().items()
            }
            error = None
            results = {}
            timings = []
            try:
                with get_recorder().span("bench.app", app=name) as app_span:
                    with speed.timed() as timing, get_recorder().span("apps.build_problem"):
                        timings.append(timing)
                        problem = build_problem(
                            app, topology, constraint_ratio=CONSTRAINT_RATIO, seed=app_seed
                        )
                    rng = np.random.default_rng(app_seed)
                    for key, mapper in mappers.items():
                        with speed.timed() as timing, get_recorder().span("exp.run_comparison"):
                            timings.append(timing)
                            results.update(
                                run_comparison(app, problem, {key: mapper}, seed=rng)
                            )
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                error = f"{name}: {type(exc).__name__}: {exc}"
            out.raw_s += sum(t.raw_s for t in timings)
            out.scaled_s += sum(t.scaled_s for t in timings)
            failures: list[str] = []
            for key, res in results.items():
                where = f"{name}/{key}"
                failures += check_mapping(
                    problem, res.mapping.assignment, res.mapping.cost, where
                )
                failures += check_simulation(
                    res.sim.total_messages, res.sim.total_bytes, problem, where
                )
            if results and isinstance(app_span, Span):
                failures += _check_traced_simulations(app_span, problem, name)
            if results and "Geo-distributed" in results:
                geo_full += results["Geo-distributed"].total_time_s
                geo_comm += results["Geo-distributed"].comm_time_s
            tally.record(failures, error=error)
    out.geo = (geo_full, geo_comm)
    return out


def _check_traced_simulations(app_span: Span, problem, where: str) -> list[str]:
    """Message and byte totals of every simulation of a traced app.

    ``run_comparison`` returns only the full-mode ``SimResult``; the
    ``simulate.run`` spans also carry the comm-mode runs' totals.
    """
    sims = [
        child
        for span in app_span.iter()
        if span.name in ("simulate.full", "simulate.comm")
        for child in span.children
        if child.name == "simulate.run"
    ]
    want = 2 * len(MAPPER_SPANS)  # each mapper in full and in comm mode
    failures = [] if len(sims) == want else [
        f"{where}: {len(sims)} simulations traced, want {want}"
    ]
    for k, span in enumerate(sims):
        failures += check_simulation(
            span.attrs.get("total_messages", -1),
            span.attrs.get("total_bytes", -1),
            problem,
            f"{where}/simulation {k}",
        )
    return failures


def _per_layer(totals: SpanTotals, passes: int) -> dict[str, float]:
    sims = [
        child
        for name in ("simulate.full", "simulate.comm")
        for span in totals.find_all(name)
        for child in span.children
        if child.name == "simulate.run"
    ]
    messages = sum(float(s.attrs.get("total_messages", 0)) for s in sims)
    simulate_s = totals.total("simulate.full", "simulate.comm")
    mapper_s = totals.total(*MAPPER_SPANS.values())
    profile_s = totals.total("apps.build_problem")
    # Memo accounting as GeoDistributedMapper reports it per group order.
    hits = misses = 0.0
    for span in totals.find_all("geodist.order"):
        hits += float(span.attrs.get("resumed_depth", 0))
        misses += float(span.attrs.get("groups_filled", 0))
    residual = (
        totals.total("bench.app") - totals.total("bench.probe")
        - profile_s - simulate_s - mapper_s
    )
    return {
        "apps.profile_s": profile_s / passes,
        "simmpi.simulate_s": simulate_s / passes,
        "simmpi.messages": messages / passes,
        "simmpi.us_per_message": simulate_s / messages * 1e6 if messages else 0.0,
        "baselines.mpipp_s": totals.total("baselines.mpipp.map") / passes,
        "baselines.greedy_s": totals.total("baselines.greedy.map") / passes,
        "core.geodist_s": totals.total("core.geodist.map") / passes,
        "core.geodist.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exp.residual_s": residual / passes,
    }


def run(seed: int, seconds: float, traced: bool, src: Path) -> WorkloadResult:
    tally = Tally()
    result = WorkloadResult(tally)
    speed = SpeedLog()
    setups = [_setup_once(src, seed, speed) for _ in range(SETUP_REPEATS)]
    topology = CloudTopology.from_regions(
        PAPER_EC2_REGIONS, 16, instance_type="m4.xlarge", seed=seed
    )
    recorder = SpanRecorder()
    passes: list[_Pass] = []
    spanned: list[_Pass] = []
    for index in range(max(MIN_PASSES, round(seconds / PASS_NOMINAL_S))):
        passes.append(_one_pass(topology, index, speed, tally))
        if traced:
            with using_recorder(recorder):
                spanned.append(_one_pass(topology, index, speed, tally))
            if spanned[-1].geo != passes[-1].geo:
                tally.check_failures.append(
                    f"pass {index}: simulated time differs between identical "
                    f"traced and untraced passes ({spanned[-1].geo} vs {passes[-1].geo})"
                )

    plain = [p.scaled_s for p in passes]
    geo_times = [p.geo for p in passes]
    label, tail = tail_or_median(plain)
    rss = self_peak_rss_mb() + waited_children_peak_rss_mb()
    result.end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "latency_p50_s": statistics.median(plain),
        "latency_tail_s": tail,
        "cost_index": statistics.mean(full for full, _ in geo_times),
        "cost_index_2": statistics.mean(comm for _, comm in geo_times),
    }
    result.line("setup_s", statistics.median(setups), "s", len(setups))
    result.line("peak_rss_mb", rss, "MB")
    result.line("pipeline_s", statistics.median(plain), "s", len(plain))
    result.line(f"pipeline_s.{label}", tail, "s", len(plain))
    result.line("pipeline_raw_s", statistics.median(p.raw_s for p in passes), "s", len(passes))
    result.line("probe_ms", speed.median_s() * 1e3, "ms", len(speed.samples))
    result.line("geo_sim_time_s", result.end_to_end["cost_index"], "simulated_s", len(geo_times))
    result.line(
        "geo_comm_time_s", result.end_to_end["cost_index_2"], "simulated_s", len(geo_times)
    )
    result.line("fail_ratio", tally.fail_ratio, "ratio", tally.attempted)
    if traced:
        totals = SpanTotals(recorder.roots)
        result.per_layer = _per_layer(totals, len(spanned))
        result.per_layer["obs.trace_overhead_pct"] = overhead_pct(
            [p.scaled_s for p in spanned], plain
        )
        result.trace_roots = recorder.roots
    return result
