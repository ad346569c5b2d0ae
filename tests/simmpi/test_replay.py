"""Replay of a recorded op stream against the generator engine (the oracle).

Every replay must equal ``Simulator.run`` on the same program and network
bit for bit: makespan, per-rank times, communication wait, barriers,
message totals, the network's link state and ``link_stats()``, and the
errors either engine raises.
"""

from __future__ import annotations

import importlib
from functools import partial

import numpy as np
import pytest

from repro.apps import (
    PAPER_APPS,
    RandomSparseApp,
    RingApp,
    StencilApp,
    UniformApp,
    make_paper_app,
)
from repro.cloud import CloudTopology, paper_topology
from repro.core import MappingProblem
from repro.exp import build_problem, simulate_mapping
from repro.faults import FaultyNetwork, SiteDownError, standard_fault_suite
from repro.obs import MetricsRegistry, SpanRecorder, using_metrics, using_recorder
from repro.simmpi import (
    Barrier,
    Compute,
    DeadlockError,
    Recv,
    Send,
    SimNetwork,
    Simulator,
    UniformNetwork,
    allreduce_recursive_doubling,
    record,
    replay,
)

from .test_deadlock_context import DEADLOCK_PROGRAMS

SETTINGS = [
    pytest.param(scale, contention, id=f"{mode}-{'contended' if contention else 'free'}")
    for scale, mode in ((1.0, "full"), (0.0, "comm"))
    for contention in (True, False)
]


def assert_same_result(des, rep):
    assert des.makespan_s.hex() == rep.makespan_s.hex()
    assert des.rank_times_s.dtype == rep.rank_times_s.dtype
    assert des.rank_times_s.tobytes() == rep.rank_times_s.tobytes()
    assert des.comm_wait_s.hex() == rep.comm_wait_s.hex()
    assert des.barriers == rep.barriers
    assert des.total_messages == rep.total_messages
    assert des.total_bytes == rep.total_bytes


def assert_same_network(des_net, rep_net):
    assert des_net.link_stats() == rep_net.link_stats()
    assert des_net._link_free == rep_net._link_free


def run_both(num_ranks, program, make_network, scale):
    """(oracle result, replay result, oracle network, replay network)."""
    des_net, rep_net = make_network(), make_network()
    des = Simulator(num_ranks, program, des_net, compute_scale=scale).run()
    rep = replay(record(num_ranks, program), rep_net, compute_scale=scale)
    return des, rep, des_net, rep_net


@pytest.fixture(scope="module")
def topology():
    return paper_topology(seed=0)


def problem_for(app, topology, seed=0):
    return build_problem(app, topology, constraint_ratio=0.0, seed=seed)


def random_assignment(problem, seed):
    """A seeded random assignment within the site capacities."""
    slots = np.repeat(np.arange(problem.num_sites), problem.capacities)
    return np.random.default_rng(seed).permutation(slots)[: problem.num_processes]


# ------------------------------------------------------------ SimNetwork


#: BT and SP run fewer iterations than their defaults to keep the matrix
#: quick; LU (the paper pipeline's message-heavy app), K-means and DNN run
#: as the paper pipeline runs them.
SHORT_RUNS = {"BT": {"iterations": 20}, "SP": {"iterations": 20}}

PAPER_CASES = [
    pytest.param(name, ranks, id=f"{name}-{ranks}")
    for name in PAPER_APPS
    for ranks in (16, 64)
]


@pytest.mark.parametrize("name,ranks", PAPER_CASES)
def test_paper_apps_replay_bit_identical(name, ranks, topology):
    app = make_paper_app(name, ranks, **SHORT_RUNS.get(name, {}))
    problem = problem_for(app, topology)
    assignment = random_assignment(problem, seed=ranks)
    stream = app.op_stream()
    for scale, contention in ((1.0, True), (1.0, False), (0.0, True), (0.0, False)):
        des_net = SimNetwork(problem, assignment, contention=contention, collect_stats=True)
        rep_net = SimNetwork(problem, assignment, contention=contention, collect_stats=True)
        des = Simulator(ranks, app.program, des_net, compute_scale=scale).run()
        rep = replay(stream, rep_net, compute_scale=scale)
        assert_same_result(des, rep)
        assert_same_network(des_net, rep_net)


SYNTHETIC_APPS = [
    pytest.param(lambda: RingApp(12, iterations=4, compute=0.01), id="ring"),
    pytest.param(lambda: StencilApp(16, iterations=3, compute=0.002), id="stencil"),
    pytest.param(lambda: RandomSparseApp(20, iterations=3, degree=3, seed=4), id="random-sparse"),
    pytest.param(lambda: UniformApp(9, iterations=2), id="uniform"),
]


@pytest.mark.parametrize("make_app", SYNTHETIC_APPS)
@pytest.mark.parametrize("scale,contention", SETTINGS)
def test_synthetic_apps_replay_bit_identical(make_app, scale, contention, topology):
    app = make_app()
    problem = problem_for(app, topology)
    assignment = random_assignment(problem, seed=7)
    des, rep, des_net, rep_net = run_both(
        app.num_ranks,
        app.program,
        lambda: SimNetwork(problem, assignment, contention=contention, collect_stats=True),
        scale,
    )
    assert_same_result(des, rep)
    assert_same_network(des_net, rep_net)


def barrier_program(ctx):
    """Barriers, uneven compute, collectives and a late-posted receive."""
    yield Compute(0.001 * (ctx.rank + 1))
    yield Barrier()
    if ctx.rank == 0:
        yield Compute(0.5)
        yield Send(dst=1, nbytes=10_000, tag=3)
    elif ctx.rank == 1:
        yield Recv(src=0, tag=3)
    yield from allreduce_recursive_doubling(ctx, 4096, tag=9)
    yield Barrier()
    yield Compute(0.002)


def two_site_problem(n):
    lt = np.array([[1e-4, 0.05], [0.05, 1e-4]])
    bt = np.array([[1e9, 1e6], [1e6, 1e9]])
    cg = np.ones((n, n)) - np.eye(n)
    return MappingProblem(CG=cg, AG=cg.copy(), LT=lt, BT=bt, capacities=[n, n])


@pytest.mark.parametrize("scale,contention", SETTINGS)
def test_barriers_and_collectives_replay_bit_identical(scale, contention):
    problem = two_site_problem(6)
    assignment = np.array([0, 1, 0, 1, 1, 0])
    des, rep, des_net, rep_net = run_both(
        6,
        barrier_program,
        lambda: SimNetwork(problem, assignment, contention=contention, collect_stats=True),
        scale,
    )
    assert des.barriers == 2
    assert_same_result(des, rep)
    assert_same_network(des_net, rep_net)


def test_uniform_network_goes_through_transfer():
    des, rep, _, _ = run_both(6, barrier_program, UniformNetwork, 1.0)
    assert_same_result(des, rep)


def test_replay_repeats_on_one_network(topology):
    app = make_paper_app("K-means", 16)
    problem = problem_for(app, topology)
    network = SimNetwork(problem, random_assignment(problem, 1), collect_stats=True)
    first = replay(app.op_stream(), network)
    stats = network.link_stats()
    second = replay(app.op_stream(), network)
    assert_same_result(first, second)
    assert network.link_stats() == stats


# ---------------------------------------------------------- FaultyNetwork


FAULT_APPS = [
    pytest.param(lambda: make_paper_app("LU", 16, iterations=20), id="LU-16"),
    pytest.param(lambda: make_paper_app("K-means", 16), id="K-means-16"),
    pytest.param(lambda: StencilApp(16, iterations=3, compute=0.05), id="stencil"),
]


def outcome(run):
    """A run's result, or the type and text of the error it raised."""
    try:
        return run()
    except SiteDownError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("make_app", FAULT_APPS)
@pytest.mark.parametrize("scale,contention", SETTINGS)
def test_faulty_network_replay_bit_identical(make_app, scale, contention, topology):
    app = make_app()
    problem = problem_for(app, topology)
    assignment = random_assignment(problem, seed=3)
    healthy = Simulator(
        app.num_ranks, app.program, SimNetwork(problem, assignment), compute_scale=scale
    ).run()
    # Faults strike mid-run, so the outage really interrupts a transfer.
    suite = standard_fault_suite(problem.num_sites, at_time=healthy.makespan_s / 2)
    raised = 0
    for name, schedule in suite.items():
        des_net = FaultyNetwork(problem, assignment, schedule, contention=contention)
        rep_net = FaultyNetwork(problem, assignment, schedule, contention=contention)
        des = outcome(
            lambda: Simulator(app.num_ranks, app.program, des_net, compute_scale=scale).run()
        )
        rep = outcome(lambda: replay(app.op_stream(), rep_net, compute_scale=scale))
        if isinstance(des, tuple):
            raised += 1
            assert rep == des, name
        else:
            assert_same_result(des, rep)
        assert des_net._link_free == rep_net._link_free, name
    assert raised == 1  # the permanent outage


# ------------------------------------------------------------ error parity


@pytest.mark.parametrize("case", sorted(DEADLOCK_PROGRAMS))
def test_deadlocks_replay_to_identical_error(case):
    num_ranks, program = DEADLOCK_PROGRAMS[case]
    problem = two_site_problem(num_ranks)
    network = SimNetwork(problem, np.arange(num_ranks) % 2)
    with pytest.raises(DeadlockError) as des:
        Simulator(num_ranks, program, network).run()
    with pytest.raises(DeadlockError) as rep:
        replay(record(num_ranks, program), network)
    assert str(rep.value) == str(des.value)
    assert rep.value.rank_states == des.value.rank_states


def bad_program(kind):
    def program(ctx):
        yield Compute(0.1)
        if ctx.rank == 1:
            if kind == "self":
                yield Send(dst=1, nbytes=8)
            elif kind == "range":
                yield Send(dst=5, nbytes=8)
            elif kind == "recv-range":
                yield Recv(src=7)
            else:
                yield "not an op"
        else:
            yield Compute(0.1)

    return program


@pytest.mark.parametrize(
    "kind,error",
    [("self", ValueError), ("range", ValueError), ("recv-range", ValueError), ("yield", TypeError)],
)
def test_invalid_ops_raise_the_oracle_error(kind, error):
    program = bad_program(kind)
    problem = two_site_problem(2)
    with pytest.raises(error) as des:
        Simulator(2, program, SimNetwork(problem, np.array([0, 1]))).run()
    with pytest.raises(error) as rep:
        record(2, program)
    assert str(rep.value) == str(des.value)


def test_peer_beyond_64_bits_raises_the_oracle_error():
    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=2**70, nbytes=8)

    network = UniformNetwork()
    with pytest.raises(ValueError) as des:
        Simulator(2, program, network).run()
    with pytest.raises(ValueError) as rep:
        record(2, program)
    assert str(rep.value) == str(des.value)


def test_ops_the_stream_cannot_hold_fail_to_record():
    def program(ctx):
        if ctx.rank == 0:
            yield Send(dst=1, nbytes=2**70)
        else:
            yield Recv(src=0)

    Simulator(2, program, UniformNetwork()).run()
    with pytest.raises(TypeError, match="cannot record Send"):
        record(2, program)


def test_operation_budget_error_comes_from_recording(monkeypatch):
    def program(ctx):
        while True:
            yield Compute(0.0)

    # record() runs the engine with its default budget; shrink it here.
    replay_module = importlib.import_module("repro.simmpi.replay")
    monkeypatch.setattr(replay_module, "Simulator", partial(Simulator, max_ops=100))
    with pytest.raises(RuntimeError, match="budget") as rep:
        record(1, program)
    with pytest.raises(RuntimeError) as des:
        Simulator(1, program, UniformNetwork(), max_ops=100).run()
    assert str(rep.value) == str(des.value)


def test_replay_validates_arguments():
    stream = record(2, RingApp(2).program)
    with pytest.raises(ValueError, match="compute_scale"):
        replay(stream, UniformNetwork(), compute_scale=-1.0)


def test_stream_that_cannot_complete_is_rejected():
    from array import array

    from repro.simmpi import OpStream

    # Rank 0 receives message 0, which no rank ever sends.
    stream = OpStream(
        num_ranks=2,
        ops=(array("q", [0 << 2 | 2]), array("q")),
        compute_s=array("d"),
        src=array("q", [1]),
        dst=array("q", [0]),
        nbytes=array("q", [8]),
    )
    with pytest.raises(RuntimeError, match="1 ranks blocked"):
        replay(stream, UniformNetwork())


# ------------------------------------------------------------------ caching


def test_profiling_records_no_stream():
    app = RingApp(4, iterations=2)
    app.communication_matrices()
    assert app._stream_cache is None


def test_stream_is_recorded_once_per_app(topology):
    app = RingApp(4, iterations=2)
    problem = problem_for(app, topology)
    assignment = random_assignment(problem, seed=1)
    with using_recorder(SpanRecorder()) as rec:
        for mode in ("full", "comm", "full"):
            simulate_mapping(app, problem, assignment, mode=mode)
    records = [s for root in rec.roots for s in root.find_all("simulate.record")]
    assert len(records) == 1
    assert RingApp(4, iterations=2).op_stream() is not app.op_stream()


# ----------------------------------------------------------- observability


def test_traced_replay_spans_and_metrics_match_oracle(topology):
    app = make_paper_app("LU", 16, iterations=10)
    problem = problem_for(app, topology)
    assignment = random_assignment(problem, seed=5)
    app.op_stream()

    def traced(run):
        recorder, metrics = SpanRecorder(), MetricsRegistry()
        with using_recorder(recorder), using_metrics(metrics):
            run()
        (span,) = [s for root in recorder.roots for s in root.find_all("simulate.run")]
        return span, metrics.snapshot()

    des_span, des_metrics = traced(
        lambda: Simulator(16, app.program, SimNetwork(problem, assignment)).run()
    )
    rep_span, rep_metrics = traced(
        lambda: simulate_mapping(app, problem, assignment, mode="full")
    )
    assert des_span.attrs.pop("engine") == "des"
    assert rep_span.attrs.pop("engine") == "replay"
    assert rep_span.attrs == des_span.attrs
    links = [e.attrs for e in rep_span.events if e.name == "network.link"]
    assert links and links == [e.attrs for e in des_span.events if e.name == "network.link"]
    assert any(link["stall_s"] > 0 for link in links)
    assert rep_metrics.to_dict() == des_metrics.to_dict()


def test_record_span_carries_stream_size():
    app = UniformApp(5, iterations=2, nbytes=100)
    with using_recorder(SpanRecorder()) as rec:
        stream = app.op_stream()
    (span,) = rec.roots
    assert span.name == "simulate.record"
    assert span.attrs["num_ranks"] == 5
    assert span.attrs["messages"] == stream.num_messages == 5 * 4 * 2
    assert span.attrs["bytes"] == stream.total_bytes == 5 * 4 * 2 * 100
    assert span.attrs["ops"] == 2 * stream.num_messages


def test_simulate_mapping_matches_generator_engine():
    topo = CloudTopology.from_regions(
        ["us-east-1", "eu-west-1"], 8, instance_type="m4.xlarge", seed=2
    )
    app = make_paper_app("LU", 16, iterations=5)
    problem = problem_for(app, topo)
    assignment = random_assignment(problem, seed=9)
    for mode, scale in (("full", 1.0), ("comm", 0.0)):
        got = simulate_mapping(app, problem, assignment, mode=mode)
        want = Simulator(
            16, app.program, SimNetwork(problem, assignment), compute_scale=scale
        ).run()
        assert_same_result(want, got)
