"""Metric catalogue and span bookkeeping for the traced run.

``END_TO_END`` and ``PER_LAYER`` map every metric name the benchmark
prints to its unit; ``BENCHMARK.json`` lists the same names.  Every
workload reports every end-to-end metric (untraced run) and every
per-layer metric (traced run); a layer the workload does not exercise
reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Sequence

from repro.obs import Span, aggregate_trace, get_recorder

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cost_index": "cost",
    "cost_index_2": "cost",
}

PER_LAYER: dict[str, str] = {
    # paper-pipeline (per pass)
    "apps.profile_s": "s",
    "simmpi.simulate_s": "s",
    "simmpi.messages": "count",
    "simmpi.us_per_message": "us",
    "baselines.mpipp_s": "s",
    "baselines.greedy_s": "s",
    "core.geodist_s": "s",
    "core.geodist.memo_hit_ratio": "ratio",
    "exp.residual_s": "s",
    # mapper-scale (per solve / per repair)
    "core.multilevel.map_s": "s",
    "core.multilevel.coarsen_s": "s",
    "core.multilevel.solve_s": "s",
    "core.multilevel.refine_s": "s",
    "core.multilevel.levels": "count",
    "core.multilevel.coarsest_n": "count",
    "faults.repair_s": "s",
    "faults.degrade_s": "s",
    "core.repair.polish_s": "s",
    "core.repair.place_s": "s",
    "core.repair.extra_moves_used": "count",
    "core.repair.migrated": "count",
    # serve-mix (per request)
    "serve.hit_ms": "ms",
    "serve.cold_ms": "ms",
    "serve.repair_ms": "ms",
    "serve.solve_ms": "ms",
    "serve.encode_ms.n512": "ms",
    "serve.encode_ms.n4096": "ms",
    "serve.request_kb": "KB",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.rejected": "count",
    "serve.batch_size_mean": "count",
    "serve.batch_ms": "ms",
    "serve.daemon_self_ms": "ms",
    "loadgen.lag_p90_ms": "ms",
    # every workload
    "obs.trace_overhead_pct": "%",
}


class SpannedMapper:
    """A mapper whose ``map`` calls open a benchmark span.

    ``run_comparison`` calls each mapper's ``map`` itself; handing it
    these wrappers puts a span around every call into the mapper layer.
    """

    def __init__(self, inner: Any, span_name: str) -> None:
        self.inner = inner
        self.name = inner.name
        self.span_name = span_name

    def map(self, problem: Any, seed: Any = None) -> Any:
        with get_recorder().span(self.span_name):
            return self.inner.map(problem, seed=seed)


class SpanTotals:
    """Total and self seconds per span name over a forest of traces."""

    def __init__(self, roots: Sequence[Span]) -> None:
        self._snap = aggregate_trace(roots)
        self.roots = list(roots)

    def total(self, *names: str) -> float:
        return sum(
            self._snap.counter_value("span_seconds_total", span=name) for name in names
        )

    def self_time(self, *names: str) -> float:
        return sum(
            self._snap.counter_value("span_self_seconds_total", span=name)
            for name in names
        )

    def count(self, name: str) -> int:
        return int(self._snap.counter_value("trace_spans_total", span=name))

    def find_all(self, name: str) -> list[Span]:
        return [s for root in self.roots for s in root.iter() if s.name == name]


def complete_per_layer(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, 0 for layers this workload did not use."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Traced vs untraced median, as a percentage of the untraced one."""
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base * 100.0
