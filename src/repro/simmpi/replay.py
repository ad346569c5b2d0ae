"""Record a program's operation stream once, replay it under any network.

A rank program gets no timing feedback and there are no wildcard
receives (see :mod:`repro.simmpi.ops`), so the operations each rank
yields, and which send every receive matches (FIFO per ``(src, dst,
tag)`` channel), are the same under every network and mapping.  Only
the transfer timings change.  :func:`record` therefore runs the
generator :class:`~repro.simmpi.engine.Simulator` once and keeps what
the ranks yielded as an :class:`OpStream` of flat typed arrays.
:func:`replay` then re-runs the engine's state machine over those
integers for any network: the same worklist, the same barrier rule and
the same ``(ready, seq)`` transfer heap, so ties break and links are
claimed in exactly the generator engine's order and every result is
bit-identical to :meth:`Simulator.run <repro.simmpi.engine.Simulator.run>`.

For a plain :class:`~repro.simmpi.network.SimNetwork` the per-message
latency, bandwidth term and link are computed once per replay with
numpy, and links serialize inline; any other network (a
:class:`~repro.faults.FaultyNetwork`, the profiling
:class:`~repro.simmpi.network.UniformNetwork`) is asked through its
``transfer`` method, once per message, as the generator engine does.

A program that fails while recording (an invalid operation, a deadlock,
the operation budget) raises the generator engine's error and yields no
stream.  The generator engine stays as the bit-for-bit test oracle.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .engine import Program, RankContext, SimResult, Simulator, observed_run
from .network import SimNetwork, UniformNetwork
from .ops import Barrier, Compute, Operation, Recv, Send

__all__ = ["OpStream", "record", "replay"]

# Op codes, stored as ``arg << 2 | code`` in OpStream.ops.
_COMPUTE = 0  # arg: index into compute_s
_SEND = 1  # arg: message id
_RECV = 2  # arg: id of the message this receive matches
_BARRIER = 3


@dataclass(frozen=True, eq=False)
class OpStream:
    """What every rank of a program yielded, as flat typed arrays.

    Attributes
    ----------
    num_ranks:
        N.
    ops:
        Per rank, its operations in program order, each encoded as
        ``arg << 2 | code``: a compute (code 0, ``arg`` indexes
        ``compute_s``), a send (1, ``arg`` is the message id), a receive
        (2, ``arg`` is the id of the message it matches) or a barrier (3).
    compute_s:
        Seconds of every compute operation.
    src / dst / nbytes:
        Per message, in the order the generator engine interpreted the
        sends.
    """

    num_ranks: int
    ops: tuple[array, ...]
    compute_s: array
    src: array
    dst: array
    nbytes: array

    @property
    def num_messages(self) -> int:
        return len(self.src)

    @property
    def num_ops(self) -> int:
        return sum(len(rank_ops) for rank_ops in self.ops)

    @property
    def total_bytes(self) -> int:
        return int(np.frombuffer(self.nbytes, dtype=np.int64).sum())


class _Recording:
    """Per-rank op arrays and the message tables, filled as ranks yield."""

    def __init__(self, num_ranks: int) -> None:
        self.ops = [array("q") for _ in range(num_ranks)]
        self.compute_s = array("d")
        self.src = array("q")
        self.dst = array("q")
        self.nbytes = array("q")
        # Channel -> ids of sent messages no receive has matched yet.
        self.queued: dict[tuple, deque[int]] = {}
        # Channel -> position in ops[dst] of a receive posted before its send.
        self.pending: dict[tuple, int] = {}
        self.unrecordable: list[Operation] = []

    def wrap(self, program: Program) -> Program:
        """``program`` with every yielded operation recorded on the way out.

        The wrapper sees each operation right before the engine interprets
        it, so it matches sends to receives in the engine's own order.
        """

        compute_s, src = self.compute_s, self.src
        add_compute, add_src = compute_s.append, src.append
        add_dst, add_nbytes = self.dst.append, self.nbytes.append
        queued, pending, rank_ops = self.queued, self.pending, self.ops
        unrecordable = self.unrecordable

        def recorded(ctx: RankContext) -> Generator[Operation, None, None]:
            rank = ctx.rank
            ops = rank_ops[rank]
            add_op = ops.append
            for op in program(ctx):
                try:
                    if isinstance(op, Compute):
                        add_op(len(compute_s) << 2 | _COMPUTE)
                        add_compute(op.seconds)
                    elif isinstance(op, Send):
                        msg = len(src)
                        add_src(rank)
                        add_dst(op.dst)
                        add_nbytes(op.nbytes)
                        add_op(msg << 2 | _SEND)
                        key = (rank, op.dst, op.tag)
                        at = pending.pop(key, None)
                        if at is not None:
                            rank_ops[op.dst][at] = msg << 2 | _RECV
                        elif key in queued:
                            queued[key].append(msg)
                        else:
                            queued[key] = deque((msg,))
                    elif isinstance(op, Recv):
                        key = (op.src, rank, op.tag)
                        queue = queued.get(key)
                        if queue:
                            add_op(queue.popleft() << 2 | _RECV)
                        else:
                            pending[key] = len(ops)
                            add_op(-1 << 2 | _RECV)
                    elif isinstance(op, Barrier):
                        add_op(_BARRIER)
                except (TypeError, OverflowError):
                    # A field the typed arrays cannot hold.  Yield the op
                    # anyway: the engine rejects most such ops with its own
                    # error, and record() reports the rest.
                    unrecordable.append(op)
                yield op

        return recorded

    def stream(self) -> OpStream:
        return OpStream(
            num_ranks=len(self.ops),
            ops=tuple(self.ops),
            compute_s=self.compute_s,
            src=self.src,
            dst=self.dst,
            nbytes=self.nbytes,
        )


def record(num_ranks: int, program: Program) -> OpStream:
    """Run ``program`` once on the generator engine and keep its op stream.

    The run uses the uniform profiling network with compute scaled to
    zero, under a ``simulate.record`` span carrying the stream's size.
    Errors of the run (``ValueError``, ``TypeError``, the operation
    budget, :class:`~repro.simmpi.engine.DeadlockError`) propagate
    unchanged.  A run that succeeds but yielded an operation the typed
    arrays cannot hold (say a float byte count or one beyond 64 bits)
    raises ``TypeError``.
    """
    from ..obs import get_recorder

    with get_recorder().span("simulate.record", num_ranks=num_ranks) as span:
        recording = _Recording(num_ranks)
        # _run, not run: recording is no simulation and opens no simulate.run.
        Simulator(
            num_ranks,
            recording.wrap(program),
            UniformNetwork(),
            compute_scale=0.0,
        )._run()
        if recording.unrecordable:
            raise TypeError(
                f"cannot record {recording.unrecordable[0]!r}: ranks and byte "
                "counts must be 64-bit integers and compute seconds floats"
            )
        stream = recording.stream()
        span.set(
            ops=stream.num_ops,
            messages=stream.num_messages,
            bytes=stream.total_bytes,
        )
    return stream


def replay(stream: OpStream, network, *, compute_scale: float = 1.0) -> SimResult:
    """Simulate a recorded stream on ``network``.

    Equivalent to ``Simulator(stream.num_ranks, program, network,
    compute_scale=compute_scale).run()`` for the program ``stream`` was
    recorded from, bit for bit, including the network's link state and
    :meth:`~repro.simmpi.network.SimNetwork.link_stats` afterwards.
    Runs under a ``simulate.run`` span with ``engine="replay"``.
    """
    if compute_scale < 0:
        raise ValueError(f"compute_scale must be >= 0, got {compute_scale}")
    return observed_run(
        "replay",
        stream.num_ranks,
        float(compute_scale),
        network,
        lambda: _replay(stream, network, float(compute_scale)),
    )


def _replay(stream: OpStream, network, scale: float) -> SimResult:
    """The generator engine's ``_run`` over the recorded integers."""
    n = stream.num_ranks
    rank_ops = stream.ops
    compute_s = stream.compute_s
    msg_src = stream.src
    msg_dst = stream.dst
    msg_nbytes = stream.nbytes
    network.reset()
    inline = type(network) is SimNetwork
    if inline:
        nbytes_np = np.frombuffer(msg_nbytes, dtype=np.int64)
        *tables, stats = network.message_table(
            np.frombuffer(msg_src, dtype=np.int64),
            np.frombuffer(msg_dst, dtype=np.int64),
            nbytes_np,
        )
        # Item access through a memoryview yields plain Python numbers.
        alpha, busy, link = (memoryview(np.ascontiguousarray(t)) for t in tables)
        num_pairs = network.latency.size
        link_free = [0.0] * num_pairs
        stall = [0.0] * num_pairs
    else:
        transfer = network.transfer

    pos = [0] * n
    time = [0.0] * n
    comm_wait = [0.0] * n
    finished = [False] * n
    # Message a blocked rank waits for whose send is not posted yet.
    waiting = [-1] * n
    # Send post time of each message; -1.0 (never a simulated time) while
    # not posted yet or already consumed.
    posted = array("d", [-1.0]) * len(msg_src)
    # Matched transfers: (ready, seq, message, dst, recv_post_time).
    transfers: list[tuple[float, int, int, int, float]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0
    barrier_waiting: list[int] = []
    runnable = deque(range(n))
    unfinished = n
    barriers = 0

    while True:
        # Phase 1: drain the worklist (the generator engine's advance()).
        while runnable:
            rank = runnable.popleft()
            if finished[rank]:
                continue
            ops = rank_ops[rank]
            p = pos[rank]
            stop = len(ops)
            t = time[rank]
            while True:
                if p == stop:
                    finished[rank] = True
                    unfinished -= 1
                    break
                v = ops[p]
                p += 1
                code = v & 3
                if code == _COMPUTE:
                    t += compute_s[v >> 2] * scale
                elif code == _SEND:
                    msg = v >> 2
                    dst = msg_dst[msg]
                    if waiting[dst] == msg:
                        td = time[dst]
                        heappush(transfers, (td if td > t else t, seq, msg, dst, td))
                        seq += 1
                        waiting[dst] = -1
                    else:
                        posted[msg] = t
                elif code == _RECV:
                    msg = v >> 2
                    post = posted[msg]
                    if post != -1.0:
                        posted[msg] = -1.0
                        heappush(transfers, (t if t > post else post, seq, msg, rank, t))
                        seq += 1
                    else:
                        waiting[rank] = msg
                    break
                else:
                    barrier_waiting.append(rank)
                    break
            time[rank] = t
            pos[rank] = p

        # Phase 2: release a full barrier.
        if barrier_waiting and not transfers and len(barrier_waiting) == unfinished:
            sync_time = max(time[r] for r in barrier_waiting)
            for r in barrier_waiting:
                time[r] = sync_time
                runnable.append(r)
            barrier_waiting.clear()
            barriers += 1
            continue

        # Phase 3: execute the earliest-ready matched transfer.
        if transfers:
            ready, _, msg, dst, recv_post = heappop(transfers)
            if inline:
                # SimNetwork.transfer's link step over message_table's columns.
                lk = link[msg]
                if lk < 0:
                    completion = ready + alpha[msg] + busy[msg]
                else:
                    free = link_free[lk]
                    begin = free if free > ready else ready
                    b = busy[msg]
                    link_free[lk] = begin + b
                    completion = begin + alpha[msg] + b
                    if stats:
                        stall[lk] += begin - ready
            else:
                completion = transfer(msg_src[msg], dst, msg_nbytes[msg], ready)
            comm_wait[dst] += completion - recv_post
            time[dst] = completion
            runnable.append(dst)
            continue

        break

    if unfinished:
        # A stream from record() always completes; a hand-built one may not.
        raise RuntimeError(f"replay left {unfinished} ranks blocked")
    if inline:
        network.adopt_replay(tables[2], nbytes_np, link_free, stall)
    rank_times = np.array(time)
    return SimResult(
        makespan_s=float(rank_times.max()),
        rank_times_s=rank_times,
        total_messages=stream.num_messages,
        total_bytes=stream.total_bytes,
        comm_wait_s=float(sum(comm_wait)),
        barriers=barriers,
    )
