"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload under a span recorder, writes the trace to
``.perfbench_out/<workload>-seed<seed>.trace.json``, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("paper-pipeline", "mapper-scale", "serve-mix")

# One BLAS thread per process, here and in the daemon and pool worker that
# inherit this environment: on two cores, BLAS threads waiting on each
# other time the host's scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _write_trace(result, workload: str, seed: int) -> None:
    from repro.obs import TraceSchemaError, load_trace, write_trace

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    write_trace(path, result.trace_roots)
    try:
        spans = load_trace(path)
    except TraceSchemaError as exc:
        result.tally.check_failures.append(f"trace {path.name} is invalid: {exc}")
        return
    print(f"trace: {path.relative_to(ROOT)} ({sum(1 for r in spans for _ in r.iter())} spans)")


def main(argv: list[str] | None = None) -> int:
    # A terminated run unwinds like an interrupted one, so the serve
    # workload's ``finally`` still stops the daemon and its pool worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    _import_program()
    from perfbench import layers, pipeline, scale, serve

    runner = {
        "paper-pipeline": pipeline.run,
        "mapper-scale": scale.run,
        "serve-mix": serve.run,
    }[args.workload]
    traced = bool(args.trace)
    t0 = time.perf_counter()
    result = runner(args.seed, args.seconds, traced, SRC)
    if traced:
        _write_trace(result, args.workload, args.seed)
        metrics = layers.complete_per_layer(result.per_layer)
        units = layers.PER_LAYER
    else:
        metrics = {name: result.end_to_end[name] for name in layers.END_TO_END}
        units = layers.END_TO_END
    tally = result.tally
    for name, value in metrics.items():
        if not math.isfinite(value):
            tally.check_failures.append(f"metric {name} is {value}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.perf_counter() - t0:.1f} s wall")
    for line in result.lines:
        print(line.render())
    for note in result.notes:
        print(f"  note: {note}")
    for failure in tally.check_failures[:20]:
        print(f"  CHECK FAILED: {failure}")
    for error in tally.errors[:20]:
        print(f"  ERROR: {error}")
    print(f"{'per-layer' if traced else 'end-to-end'} metrics:")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
