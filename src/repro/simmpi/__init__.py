"""Discrete-event MPI simulator: the reproduction's substitute for the
paper's real EC2 runs and ns-2 simulations, plus the CYPRESS-style
profiling and trace-compression substrate.  Programs are recorded once
(:func:`record`) and replayed per mapping (:func:`replay`); the
generator :class:`Simulator` is the recorder and the test oracle.
"""

from .collectives import (
    allgather_ring,
    allreduce_recursive_doubling,
    allreduce_ring,
    alltoall,
    barrier_dissemination,
    bcast,
    reduce,
)
from .compression import (
    Loop,
    compress,
    compressed_size,
    compression_ratio,
    decompress,
    expanded_length,
    iter_with_multiplicity,
)
from .engine import DeadlockError, Program, RankContext, SimResult, Simulator
from .mpi_adapter import MPIRunResult, run_with_mpi
from .network import SimNetwork, UniformNetwork
from .ops import Barrier, Compute, Operation, Recv, Send
from .replay import OpStream, record, replay
from .tracing import DENSE_LIMIT, TraceRecorder

__all__ = [
    "allgather_ring",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "alltoall",
    "barrier_dissemination",
    "bcast",
    "reduce",
    "Loop",
    "compress",
    "compressed_size",
    "compression_ratio",
    "decompress",
    "expanded_length",
    "iter_with_multiplicity",
    "DeadlockError",
    "Program",
    "RankContext",
    "SimResult",
    "Simulator",
    "MPIRunResult",
    "run_with_mpi",
    "SimNetwork",
    "UniformNetwork",
    "Barrier",
    "Compute",
    "Operation",
    "Recv",
    "Send",
    "OpStream",
    "record",
    "replay",
    "DENSE_LIMIT",
    "TraceRecorder",
]
