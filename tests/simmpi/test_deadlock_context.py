"""DeadlockError carries a structured per-rank post-mortem."""

from __future__ import annotations

import pytest

from repro.simmpi.engine import DeadlockError, RankBlockState, Simulator
from repro.simmpi.network import UniformNetwork
from repro.simmpi.ops import Barrier, Recv, Send


def run_expecting_deadlock(n, program):
    with pytest.raises(DeadlockError) as exc_info:
        Simulator(n, program, UniformNetwork()).run()
    return exc_info.value


def recv_wait_program(ctx):
    if ctx.rank == 0:
        yield Send(dst=1, nbytes=1234, tag=5)
        yield Recv(src=1, tag=9)  # never answered
    else:
        yield Recv(src=0, tag=5)


def outstanding_bytes_program(ctx):
    if ctx.rank == 0:
        # Two sends nobody receives, then a blocking recv.
        yield Send(dst=1, nbytes=1000, tag=3)
        yield Send(dst=1, nbytes=500, tag=3)
        yield Recv(src=1, tag=4)
    else:
        yield Recv(src=0, tag=99)  # wrong tag: never matches


def barrier_program(ctx):
    if ctx.rank == 0:
        yield Barrier()
    else:
        yield Recv(src=0, tag=1)  # blocks forever, barrier never full


def crossed_recv_program(ctx):
    yield Recv(src=1 - ctx.rank, tag=7)


#: Every deadlocking program here, as (num_ranks, program); the replay
#: engine's tests check each one raises the same error there.
DEADLOCK_PROGRAMS = {
    "recv-wait": (2, recv_wait_program),
    "outstanding-bytes": (2, outstanding_bytes_program),
    "barrier": (2, barrier_program),
    "crossed-recv": (2, crossed_recv_program),
}


def test_recv_wait_state():
    err = run_expecting_deadlock(2, recv_wait_program)
    state = err.rank_states[0]
    assert isinstance(state, RankBlockState)
    assert state.reason == "recv"
    assert state.peer == 1
    assert state.tag == 9
    assert "Recv" in state.last_op


def test_outstanding_bytes_counted():
    err = run_expecting_deadlock(2, outstanding_bytes_program)
    assert err.rank_states[0].bytes_outstanding == 1500
    assert err.rank_states[1].bytes_outstanding == 0


def test_barrier_state():
    err = run_expecting_deadlock(2, barrier_program)
    assert err.rank_states[0].reason == "barrier"
    assert err.rank_states[0].peer is None
    assert err.rank_states[1].reason == "recv"


def test_message_is_actionable():
    err = run_expecting_deadlock(2, crossed_recv_program)
    text = str(err)
    assert "cannot progress" in text
    assert "recv from 1 tag 7" in text
    assert "last op" in text


def test_plain_construction_backward_compatible():
    err = DeadlockError("boom")
    assert err.rank_states == {}
