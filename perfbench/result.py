"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .checks import Tally


@dataclass
class Line:
    """One human-readable metric line: name, value, unit, sample count."""

    name: str
    value: float
    unit: str
    samples: int | None = None

    def render(self) -> str:
        n = "" if self.samples is None else f"  (n={self.samples})"
        return f"  {self.name:<34} {self.value:>16.6g} {self.unit}{n}"


@dataclass
class WorkloadResult:
    tally: Tally
    #: Every ``layers.END_TO_END`` metric (untraced run).
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced run only).
    per_layer: dict[str, float] = field(default_factory=dict)
    #: The workload's own named metrics, printed for people.
    lines: list[Line] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Root spans of the traced run, written out and validated by ``run.py``.
    trace_roots: list[Any] = field(default_factory=list)

    def line(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.lines.append(Line(name, float(value), unit, samples))
