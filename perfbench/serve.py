"""Workload ``serve-mix``: open-loop traffic against ``python -m repro serve``.

A daemon subprocess (one pool worker) receives Poisson arrivals at
``RATE`` requests per second from this one process over two unix-socket
connections: one for N=512 cache hits, one for all other requests.  Exactly 90% of requests target N=512 sparse problems and
10% N=4096; within each size 70% repeat a hot (problem, seed) key, 20%
are cold ``map``s (a fresh seed, the daemon's default geo-distributed
mapper) and 10% ``repair`` a hot mapping with one site's processes
unassigned.  Cache hits (mostly JSON work on the event loop) sit beside
pool solves and repairs, so a wire-format change shows in the hit
latency and a solver change in the cold and repair latency.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import MappingProblem, total_cost, warm_mapper
from repro.obs import (
    MetricsSnapshot,
    Span,
    SpanRecorder,
    TraceContext,
    TraceSchemaError,
    new_trace_id,
    shift_spans,
    trace_anchor,
    validate_trace,
)
from repro.serve.protocol import encode_problem

from .checks import Tally, check_mapping, check_served_repair
from .inputs import (
    SITES,
    input_rng,
    poisson_arrivals,
    reference_assignment,
    sparse_problem,
    stratified,
)
from .layers import SpanTotals, overhead_pct
from .loadgen import Connection, Request, Sample, run_open_loop
from .result import WorkloadResult
from .speed import SpeedLog
from .stats import (
    child_pids,
    percentile,
    pid_alive,
    self_peak_rss_mb,
    tail_or_median,
    vm_hwm_mb,
)

#: Offered load, requests per second: a third of the ~12 req/s at which
#: this mix saturates the daemon (see README).
RATE = 4.0
SMALL, LARGE = 512, 4096
#: Connection of each request: N=512 cache hits go on connection 0, all
#: other requests (N=4096 hits, cold maps, repairs) on connection 1, as
#: a client re-reading hot placements and a client submitting new work
#: would.  The daemon answers a connection's requests in order, so this
#: keeps a pool solve from queueing hits behind it on the client side;
#: both kinds still share the daemon's event loop.
FAST_LANE, WORK_LANE = 0, 1
LARGE_SHARE = 0.1
#: Hot keys: problems x seeds per size (32 at N=512, 4 at N=4096).
HOT = {SMALL: (8, 4), LARGE: (2, 2)}
CLASS_SHARES = (("hit", 0.7), ("cold", 0.2), ("repair", 0.1))
#: A reply counts toward goodput only within this many seconds of due.
LATENCY_LIMIT_S = 1.0
#: Daemon boots measured for ``setup_s``; the last one serves the run.
BOOTS = 3
#: Cache hits re-solved in-process and compared bit for bit, per size.
IDENTITY_SAMPLES = {SMALL: 3, LARGE: 1}
MAPPER = "geo-distributed"
WARM_SEED = 999
COLD_SEED_BASE = 1000
#: Generator seed of the arrival times and of the (size, class) order,
#: the same for every run: with two connections, whether slow N=4096
#: solves happen to collide decides the tail, and a seed-drawn timeline
#: made p90 spread by 84% across seeds (see README).  The workload seed
#: draws everything else: problems, keys, cold seeds, repaired sites.
SCHEDULE_SEED = 0
SHUTDOWN_TIMEOUT_S = 60.0
#: A request's latency is scaled by the median host-speed probe within
#: this many seconds of it.  The fast lane probes while it waits for its
#: next request (about 2.5 times a second), so the window holds about ten.
PROBE_WINDOW_S = 2.0


@dataclass
class _Problem:
    size: int
    problem: MappingProblem
    wire: str  # the problem's JSON text, as a client sends it
    encode_s: float
    #: Cost of the benchmark's own ``reference_assignment``: the yardstick
    #: of ``cost_index``, which the program's placements cannot move.
    reference_cost: float


@dataclass
class _Op:
    """Bookkeeping for one request: its class, its target, its trace identity."""

    klass: str
    size: int
    problem_index: int
    seed: int = 0
    partial: np.ndarray | None = None
    traced: bool = False
    span_id: str | None = None
    trace_id: str | None = None


def _make_problems(seed: int) -> dict[int, list[_Problem]]:
    problems: dict[int, list[_Problem]] = {}
    for size, (count, _) in HOT.items():
        problems[size] = []
        for index in range(count):
            problem = sparse_problem(size, input_rng(seed, 4, size, index))
            t0 = time.perf_counter()
            wire = json.dumps(encode_problem(problem))
            encode_s = time.perf_counter() - t0
            reference = total_cost(problem, reference_assignment(problem))
            problems[size].append(_Problem(size, problem, wire, encode_s, reference))
    return problems


def _line(op: dict[str, Any], problem: _Problem) -> bytes:
    head = json.dumps(op)
    return (head[:-1] + ', "problem": ' + problem.wire + "}\n").encode()


def _map_line(request_id: int, problem: _Problem, seed: int, traceparent: str | None) -> bytes:
    op: dict[str, Any] = {"op": "map", "id": request_id, "seed": seed}
    if traceparent is not None:
        op["traceparent"] = traceparent
    return _line(op, problem)


def _repair_line(
    request_id: int, problem: _Problem, partial: np.ndarray, traceparent: str | None
) -> bytes:
    op: dict[str, Any] = {"op": "repair", "id": request_id, "partial": partial.tolist()}
    if traceparent is not None:
        op["traceparent"] = traceparent
    return _line(op, problem)


class _Daemon:
    """``python -m repro serve`` in a private directory of the checkout."""

    def __init__(self, src: Path, rundir: Path) -> None:
        self.src = src
        self.rundir = rundir
        sock = rundir / "placement.sock"
        rel = os.path.relpath(sock)
        self.socket_path = rel if len(rel) < len(str(sock)) else str(sock)
        self.proc: subprocess.Popen[bytes] | None = None
        self.workers: list[int] = []
        self._log: Any = None

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        env.pop("REPRO_STORE", None)  # keep the daemon's telemetry off disk
        self._log = open(self.rundir / "daemon.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", "placement.sock",
             "--pool-workers", "1"],
            cwd=self.rundir,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} at start")
            try:
                with Connection(self.socket_path, 10.0) as conn:
                    reply = conn.call({"op": "health", "id": 0})
                if reply.get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not answer health in time")
            time.sleep(0.01)

    def note_workers(self) -> None:
        if self.proc is not None:
            self.workers = child_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        if self.proc is None:
            return 0.0
        self.note_workers()
        return vm_hwm_mb(self.proc.pid) + sum(vm_hwm_mb(pid) for pid in self.workers)

    def shutdown(self) -> list[str]:
        """Stop via the ``shutdown`` op; failures if it does not stop cleanly."""
        if self.proc is None:
            return []
        self.note_workers()
        failures = []
        try:
            with Connection(self.socket_path, 10.0) as conn:
                conn.call({"op": "shutdown", "id": 0})
            code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
            if code != 0:
                failures.append(f"daemon exited with code {code}")
        except (OSError, subprocess.TimeoutExpired) as exc:
            failures.append(f"daemon did not shut down: {type(exc).__name__}: {exc}")
        deadline = time.monotonic() + 5.0
        while any(pid_alive(p) for p in self.workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [p for p in self.workers if pid_alive(p)]
        if left:
            failures.append(f"pool workers {left} outlived the daemon")
        self.kill()
        return failures

    def kill(self) -> None:
        """Last-resort cleanup: no process of ours survives the run."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pid in self.workers:
            if pid_alive(pid):
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass
        self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


def _parse(sample: Sample) -> tuple[dict[str, Any] | None, str | None]:
    if sample.error is not None:
        return None, sample.error
    try:
        response = json.loads(sample.reply or b"")
    except json.JSONDecodeError as exc:
        return None, f"bad reply: {exc}"
    if not response.get("ok"):
        return response, f"[{response.get('code')}] {response.get('error')}"
    return response, None


def _build_schedule(
    seed: int, seconds: float, problems: dict[int, list[_Problem]],
    hot_maps: dict[tuple[int, int, int], np.ndarray], traced: bool,
) -> list[Request]:
    timeline = input_rng(SCHEDULE_SEED, 5)
    due = poisson_arrivals(timeline, RATE, seconds)
    mix = stratified(timeline, len(due), [
        ((size, klass), size_share * class_share)
        for size, size_share in ((SMALL, 1.0 - LARGE_SHARE), (LARGE, LARGE_SHARE))
        for klass, class_share in CLASS_SHARES
    ])
    rng = input_rng(seed, 6)
    requests: list[Request] = []
    cold_seed = COLD_SEED_BASE
    used_repairs: set[tuple[int, int, int, int]] = set()
    for i, (t, (size, klass)) in enumerate(zip(due, mix)):
        count, seeds = HOT[size]
        index = int(rng.integers(count))
        op = _Op(klass, size, index, traced=traced and i % 2 == 1)
        if op.traced:
            op.trace_id = new_trace_id()
            op.span_id = secrets.token_hex(8)
        traceparent = (
            TraceContext(trace_id=op.trace_id, span_id=op.span_id).to_traceparent()
            if op.traced else None
        )
        problem = problems[size][index]
        if klass == "hit":
            op.seed = int(rng.integers(seeds))
            line = _map_line(i + 1, problem, op.seed, traceparent)
        elif klass == "cold":
            op.seed = cold_seed
            cold_seed += 1
            line = _map_line(i + 1, problem, op.seed, traceparent)
        else:
            while True:
                op.seed = int(rng.integers(seeds))
                site = int(rng.integers(SITES))
                if (size, index, op.seed, site) not in used_repairs:
                    break
            used_repairs.add((size, index, op.seed, site))
            hot = hot_maps[(size, index, op.seed)]
            op.partial = np.where(hot == site, -1, hot)
            line = _repair_line(i + 1, problem, op.partial, traceparent)
        lane = FAST_LANE if (size, klass) == (SMALL, "hit") else WORK_LANE
        requests.append(Request(t, line, tag=op, lane=lane))
    return requests


def _check_reply(op: _Op, problem: _Problem, response: dict[str, Any], where: str) -> list[str]:
    result = response.get("result") or {}
    if op.klass == "repair":
        return check_served_repair(problem.problem, op.partial, result, where)
    return check_mapping(
        problem.problem, result.get("assignment", []), result.get("cost", float("nan")), where
    )


def _metrics(conn: Connection) -> MetricsSnapshot:
    reply = conn.call({"op": "metrics", "id": 0})
    return MetricsSnapshot.from_dict(reply["result"]["json"])


def _solve_requests(snap: MetricsSnapshot) -> float:
    series = snap.counters.get("serve_requests_total", {})
    return sum(v for labels, v in series.items() if dict(labels).get("op") in ("map", "repair"))


def _histogram(snap: MetricsSnapshot, name: str) -> tuple[float, int]:
    total, count = 0.0, 0
    for hv in snap.histograms.get(name, {}).values():
        total += hv.sum
        count += hv.count
    return total, count


def _daemon_layers(before: MetricsSnapshot, after: MetricsSnapshot) -> dict[str, float]:
    def delta(name: str) -> float:
        return after.counter_total(name) - before.counter_total(name)

    requests = _solve_requests(after) - _solve_requests(before)
    size_sum, size_n = (a - b for a, b in zip(
        _histogram(after, "serve_batch_size"), _histogram(before, "serve_batch_size")))
    batch_sum, batch_n = (a - b for a, b in zip(
        _histogram(after, "serve_batch_seconds"), _histogram(before, "serve_batch_seconds")))
    return {
        "serve.cache_hit_ratio": delta("serve_cache_hits_total") / requests if requests else 0.0,
        "serve.coalesced": delta("serve_coalesced_total"),
        "serve.rejected": delta("serve_rejected_total"),
        "serve.batch_size_mean": size_sum / size_n if size_n else 0.0,
        "serve.batch_ms": batch_sum / batch_n * 1e3 if batch_n else 0.0,
    }


def _fetch_traces(
    conn: Connection, samples: list[Sample], tally: Tally
) -> tuple[list[Span], int]:
    """Client spans of the traced requests, with the daemon's spans beneath.

    Also returns how many request traces the daemon no longer held.
    """
    anchor = SpanRecorder().anchor
    roots: list[Span] = []
    missing = 0
    for sample in samples:
        op: _Op = sample.request.tag
        if not op.traced:
            continue
        root = Span(
            name=f"serve.client.{op.klass}",
            t_start=sample.sent,
            t_end=sample.done,
            attrs={"size": op.size},
            span_id=op.span_id,
        )
        reply = conn.call({"op": "trace", "id": 0, "trace_id": op.trace_id})
        if reply.get("ok"):
            try:
                spans = validate_trace(reply["result"])
                doc_anchor = trace_anchor(reply["result"])
            except TraceSchemaError as exc:
                tally.check_failures.append(f"daemon trace {op.trace_id} invalid: {exc}")
                spans, doc_anchor = [], None
            if doc_anchor is not None:
                shift_spans(spans, doc_anchor.offset_to(anchor))
            root.children.extend(spans)
        else:
            missing += 1
        roots.append(root)
    return roots, missing


def run(seed: int, seconds: float, traced: bool, src: Path) -> WorkloadResult:
    tally = Tally()
    result = WorkloadResult(tally)
    problems = _make_problems(seed)
    rundir = Path(src).parent / ".perfbench_tmp" / f"serve-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    daemon = _Daemon(src, rundir)
    try:
        return _run(seed, seconds, traced, problems, daemon, tally, result)
    finally:
        daemon.kill()
        shutil.rmtree(rundir, ignore_errors=True)


def _run(seed, seconds, traced, problems, daemon: _Daemon, tally: Tally,
         result: WorkloadResult) -> WorkloadResult:
    # ---- set-up: boot (-> health -> one warm solve) BOOTS times, keep the last.
    speed = SpeedLog()
    boots: list[float] = []
    warm_problem = problems[SMALL][0]
    for boot in range(BOOTS):
        with speed.timed() as timing:
            daemon.start()
            with Connection(daemon.socket_path, 60.0) as conn:
                reply = json.loads(conn.exchange(_map_line(0, warm_problem, WARM_SEED, None)))
        boots.append(timing.scaled_s)
        failures = []
        if reply.get("ok"):
            failures = check_mapping(
                warm_problem.problem, reply["result"]["assignment"],
                reply["result"]["cost"], f"boot {boot} warm solve",
            )
        tally.record(failures, error=None if reply.get("ok") else str(reply.get("error")))
        if boot < BOOTS - 1:
            tally.record(daemon.shutdown())

    # The hot set is warmed one request at a time, each scaled by the
    # probes on either side of it: warmed as one batch, the set-up time
    # rode whatever phase the host was in for those few seconds.
    warm_requests = [
        Request(0.0, _map_line(0, problems[size][index], s, None), tag=(size, index, s))
        for size, (count, seeds) in HOT.items()
        for index in range(count)
        for s in range(seeds)
    ]
    warm: list[Sample] = []
    warm_s = 0.0
    for request in warm_requests:
        with speed.timed() as timing:
            warm += run_open_loop(daemon.socket_path, [request])
        warm_s += timing.scaled_s
    hot_maps: dict[tuple[int, int, int], np.ndarray] = {}
    for sample in warm:
        key = sample.request.tag
        response, error = _parse(sample)
        failures = []
        if response is not None and error is None:
            res = response["result"]
            failures = check_mapping(
                problems[key[0]][key[1]].problem, res["assignment"], res["cost"],
                f"warm-up {key}",
            )
            hot_maps[key] = np.asarray(res["assignment"], dtype=np.int64)
        tally.record(failures, error=error)
    if len(hot_maps) != len(warm_requests):
        raise RuntimeError("hot-set warm-up failed; see the errors above")

    # ---- the measured open-loop run.
    requests = _build_schedule(seed, seconds, problems, hot_maps, traced)
    with Connection(daemon.socket_path, 60.0) as conn:
        before = _metrics(conn)
    samples = run_open_loop(
        daemon.socket_path, requests, idle=speed.sample, idle_lane=FAST_LANE
    )
    with Connection(daemon.socket_path, 60.0) as conn:
        after = _metrics(conn)
        trace_roots, missing = _fetch_traces(conn, samples, tally) if traced else ([], 0)
    rss = self_peak_rss_mb() + daemon.peak_rss_mb()

    # ---- checks (outside the measured window).
    ok: list[Sample] = []
    within_limit = 0
    hit_not_cached = 0
    ratios: dict[str, list[float]] = {"cold": [], "repair": []}
    solve_ms: list[float] = []
    identity_pool: dict[int, list[tuple[_Op, dict[str, Any]]]] = {SMALL: [], LARGE: []}
    for sample in samples:
        op: _Op = sample.request.tag
        response, error = _parse(sample)
        problem = problems[op.size][op.problem_index]
        failures = []
        if error is None and response is not None:
            failures = _check_reply(op, problem, response, f"{op.klass} N={op.size}")
            res = response["result"]
            mapping = res["mapping"] if op.klass == "repair" else res
            if op.klass == "hit":
                if response.get("cache_hit"):
                    identity_pool[op.size].append((op, res))
                else:
                    hit_not_cached += 1
            else:
                solve_ms.append(float(mapping.get("elapsed_s", 0.0)) * 1e3)
                ratios[op.klass].append(float(mapping["cost"]) / problem.reference_cost)
        if tally.record(failures, error=error):
            ok.append(sample)
            if sample.latency <= LATENCY_LIMIT_S:
                within_limit += 1

    pick = input_rng(seed, 7)
    for size, pool in identity_pool.items():
        if not pool:
            continue
        chosen = pick.choice(len(pool), size=min(IDENTITY_SAMPLES[size], len(pool)), replace=False)
        for k in chosen:
            op, res = pool[int(k)]
            direct = warm_mapper(MAPPER).map(problems[size][op.problem_index].problem, seed=op.seed)
            same = (
                direct.assignment.tolist() == res["assignment"]
                and float(direct.cost) == float(res["cost"])
            )
            tally.record(
                [] if same else [f"cache hit N={size} seed={op.seed} differs from Mapper.map"]
            )
    tally.record(daemon.shutdown())

    if not ok:
        raise RuntimeError("no request succeeded")

    def scaled(sample: Sample) -> float:
        due = sample.start + sample.request.due
        return speed.scale(sample.latency, due, sample.done, PROBE_WINDOW_S)

    latencies = [scaled(s) for s in ok]
    # The headline median is that of N=512 cache hits, the typical request
    # (63% of them).  The median over all requests sits where the hit
    # cluster ends and the solve cluster begins, so a few delayed hits
    # move it by half; it is printed below as serve_p50_ms.
    fast = [s for s in ok if (s.request.tag.size, s.request.tag.klass) == (SMALL, "hit")]
    hits = [scaled(s) for s in fast]
    label, tail = tail_or_median(latencies)
    setup = statistics.median(boots) + warm_s
    goodput = within_limit / seconds
    lags = [s.lag for s in samples]
    result.end_to_end = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "latency_p50_s": statistics.median(hits),
        "latency_tail_s": tail,
        "cost_index": statistics.mean(ratios["cold"]) if ratios["cold"] else math.nan,
        "cost_index_2": statistics.mean(ratios["repair"]) if ratios["repair"] else math.nan,
    }
    result.line("setup_s", setup, "s", len(boots))
    result.line("setup.boot_s", statistics.median(boots), "s", len(boots))
    result.line("setup.warmup_s", warm_s, "s", len(warm_requests))
    result.line("peak_rss_mb", rss, "MB")
    result.line("offered_rps", len(samples) / seconds, "req/s", len(samples))
    result.line("serve_p50_ms", statistics.median(latencies) * 1e3, "ms", len(latencies))
    result.line("serve_hit_p50_ms", statistics.median(hits) * 1e3, "ms", len(hits))
    result.line(f"serve_{label}_ms", tail * 1e3, "ms", len(latencies))
    result.line(
        "serve_hit_p50_raw_ms", statistics.median(s.latency for s in fast) * 1e3, "ms", len(fast)
    )
    result.line(
        f"serve_{label}_raw_ms", tail_or_median([s.latency for s in ok])[1] * 1e3, "ms", len(ok)
    )
    result.line("probe_ms", speed.median_s() * 1e3, "ms", len(speed.samples))
    result.line("serve_goodput_rps", goodput, "req/s", within_limit)
    for name, klass in (("cost_index", "cold"), ("cost_index_2", "repair")):
        result.line(
            f"{klass}_cost_vs_reference", result.end_to_end[name], "ratio", len(ratios[klass])
        )
    result.line("loadgen.lag_p90_ms", percentile(lags, 0.9) * 1e3, "ms", len(lags))
    result.line("fail_ratio", tally.fail_ratio, "ratio", tally.attempted)
    if missing:
        result.notes.append(f"{missing} traced requests aged out of the daemon's trace map")
    if hit_not_cached:
        result.notes.append(f"{hit_not_cached} hot-key requests missed the cache")

    if traced:
        by_class: dict[str, list[float]] = {"hit": [], "cold": [], "repair": []}
        for s in ok:
            by_class[s.request.tag.klass].append(s.round_trip * 1e3)
        totals = SpanTotals(trace_roots)
        requests_traced = totals.count("serve.request")
        per_layer = {
            "serve.hit_ms": statistics.median(by_class["hit"]) if by_class["hit"] else 0.0,
            "serve.cold_ms": statistics.median(by_class["cold"]) if by_class["cold"] else 0.0,
            "serve.repair_ms": statistics.median(by_class["repair"]) if by_class["repair"] else 0.0,
            "serve.solve_ms": statistics.median(solve_ms) if solve_ms else 0.0,
            "serve.encode_ms.n512": statistics.median(p.encode_s for p in problems[SMALL]) * 1e3,
            "serve.encode_ms.n4096": statistics.median(p.encode_s for p in problems[LARGE]) * 1e3,
            "serve.request_kb": statistics.mean(len(r.line) for r in requests) / 1024.0,
            "serve.daemon_self_ms": (
                totals.self_time("serve.request") / requests_traced * 1e3
                if requests_traced else 0.0
            ),
            "loadgen.lag_p90_ms": percentile(lags, 0.9) * 1e3,
            "obs.trace_overhead_pct": overhead_pct(
                [scaled(s) for s in fast if s.request.tag.traced],
                [scaled(s) for s in fast if not s.request.tag.traced],
            ),
        }
        per_layer.update(_daemon_layers(before, after))
        result.per_layer = per_layer
        result.trace_roots = trace_roots
    return result
