"""Application interface for simulated workloads.

An :class:`Application` owns a rank count and emits, per rank, the
generator of simulator operations that *is* the application (its
communication skeleton plus :class:`~repro.simmpi.ops.Compute` phases).
Profiling an application — the CYPRESS substitute — runs it once on the
uniform network with a trace recorder and returns its CG/AG matrices.
An application that is simulated also records its operation stream
once (:func:`repro.simmpi.replay.record`), which is replayed for every
mapping.
"""

from __future__ import annotations

import abc
from typing import Generator

import numpy as np
import scipy.sparse as sp

from .._validation import check_positive_int
from ..simmpi.engine import RankContext, Simulator
from ..simmpi.network import UniformNetwork
from ..simmpi.ops import Operation
from ..simmpi.replay import OpStream, record
from ..simmpi.tracing import TraceRecorder

__all__ = ["Application", "grid_shape"]


def grid_shape(num_ranks: int) -> tuple[int, int]:
    """Most-square 2-D factorization of a rank count (rows, cols).

    NPB-style grid codes decompose their domain over a near-square process
    grid; 64 -> (8, 8), 32 -> (4, 8), 13 -> (1, 13).
    """
    check_positive_int(num_ranks, "num_ranks")
    rows = int(np.sqrt(num_ranks))
    while rows > 1 and num_ranks % rows != 0:
        rows -= 1
    return rows, num_ranks // rows


class Application(abc.ABC):
    """A simulated parallel application.

    Subclasses define :attr:`name`, set ``num_ranks`` in ``__init__`` and
    implement :meth:`program`.  The base class provides profiling and
    caches the resulting communication matrices, and the recorded
    operation stream once something simulates the application.
    """

    #: Display / registry name, overridden by subclasses.
    name: str = "abstract"

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = check_positive_int(num_ranks, "num_ranks")
        self._profile_cache: tuple | None = None
        self._stream_cache: OpStream | None = None

    @abc.abstractmethod
    def program(self, ctx: RankContext) -> Generator[Operation, None, None]:
        """The operation stream executed by rank ``ctx.rank``."""

    # ------------------------------------------------------------- profiling

    def profile(
        self, *, keep_events: bool = False, dense_limit: int | None = None
    ) -> tuple["np.ndarray | sp.csr_matrix", "np.ndarray | sp.csr_matrix", TraceRecorder]:
        """Run once on the uniform network and record (CG, AG, recorder)."""
        recorder = TraceRecorder(self.num_ranks, keep_events=keep_events)
        Simulator(
            self.num_ranks,
            self.program,
            UniformNetwork(),
            compute_scale=0.0,
            tracer=recorder,
        ).run()
        kwargs = {} if dense_limit is None else {"dense_limit": dense_limit}
        cg, ag = recorder.communication_matrices(**kwargs)
        return cg, ag, recorder

    def op_stream(self) -> OpStream:
        """The program's operation stream, recorded on first use and cached.

        Recorded apart from profiling, so that an application that is
        profiled and never simulated holds only its CG/AG.
        """
        if self._stream_cache is None:
            self._stream_cache = record(self.num_ranks, self.program)
        return self._stream_cache

    def communication_matrices(
        self,
    ) -> tuple["np.ndarray | sp.csr_matrix", "np.ndarray | sp.csr_matrix"]:
        """(CG, AG) for this application, profiled once and cached."""
        if self._profile_cache is None:
            cg, ag, _ = self.profile()
            self._profile_cache = (cg, ag)
        return self._profile_cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, num_ranks={self.num_ranks})"
