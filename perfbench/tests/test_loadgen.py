"""Due-time accounting of the open-loop generator against a stalling server."""

import os
import socket
import tempfile
import threading
import time

import pytest

from perfbench.loadgen import Request, run_open_loop
from perfbench.stats import percentile

STALL_S = 0.5


class _LineServer:
    """Echoes each line; sleeps ``STALL_S`` first on lines containing ``stall``."""

    def __init__(self) -> None:
        self._dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self._dir.name, "s.sock")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen()
        self._threads: list[threading.Thread] = []
        self._accept = threading.Thread(target=self._serve, daemon=True)
        self._accept.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._handle, args=(conn,), daemon=True)
            thread.start()
            self._threads.append(thread)

    @staticmethod
    def _handle(conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as rfile:
            for line in rfile:
                if b"stall" in line:
                    time.sleep(STALL_S)
                conn.sendall(line)

    def close(self) -> None:
        self._sock.close()
        for thread in self._threads:
            thread.join(timeout=5)
        self._dir.cleanup()


@pytest.fixture
def server():
    srv = _LineServer()
    yield srv
    srv.close()


def _schedule(stall_at: int | None, count: int = 40, gap: float = 0.02, lanes: int = 1):
    return [
        Request(
            i * gap,
            (b"stall %d\n" if i == stall_at else b"go %d\n") % i,
            tag=i,
            lane=i % lanes,
        )
        for i in range(count)
    ]


def test_every_request_answered_in_due_order(server):
    samples = run_open_loop(server.path, _schedule(None, lanes=2), timeout=5)
    assert [s.request.tag for s in samples] == list(range(40))
    assert all(s.error is None and s.reply == s.request.line for s in samples)
    assert all(s.latency >= s.round_trip - 1e-9 for s in samples)


def test_a_stall_inflates_later_latency_and_lag(server):
    calm = run_open_loop(server.path, _schedule(None), timeout=5)
    stalled = run_open_loop(server.path, _schedule(5), timeout=5)
    calm_lag = percentile([s.lag for s in calm], 0.9)
    stalled_lag = percentile([s.lag for s in stalled], 0.9)
    assert stalled_lag > calm_lag + 0.1
    # Request 6 was due 20 ms after the stalled one but could only go out
    # once the stall ended: its latency, timed from when it was due,
    # carries nearly the whole stall although its own round trip is short.
    after = stalled[6]
    assert after.round_trip < 0.1
    assert after.latency > STALL_S - 0.1
    assert after.lag > STALL_S - 0.1


def test_a_stall_holds_up_only_its_own_lane(server):
    samples = run_open_loop(server.path, _schedule(5, lanes=2), timeout=5)
    other_lane = [s for s in samples if s.request.lane == 0 and 6 <= s.request.tag < 20]
    assert max(s.lag for s in other_lane) < 0.1
    same_lane = [s for s in samples if s.request.lane == 1 and 6 <= s.request.tag < 20]
    assert max(s.lag for s in same_lane) > STALL_S - 0.2


def test_refused_connection_is_an_error_sample():
    with tempfile.TemporaryDirectory() as tmp:
        samples = run_open_loop(os.path.join(tmp, "absent.sock"), _schedule(None, count=3))
    assert len(samples) == 3
    assert all(s.error is not None and s.reply is None for s in samples)


def test_idle_runs_only_on_its_lane_and_only_in_long_gaps(server):
    calls: list[tuple[str, float]] = []

    def idle() -> None:
        calls.append((threading.current_thread().name, time.perf_counter()))

    schedule = [Request(0.1 * i, b"go %d\n" % i, tag=i, lane=i % 2) for i in range(8)]
    schedule += [Request(0.7 + 0.001 * i, b"late %d\n" % i, tag=8 + i, lane=1) for i in range(3)]
    samples = run_open_loop(server.path, schedule, timeout=5, idle=idle, idle_lane=1)
    assert all(s.error is None for s in samples)
    # Lane 1 (requests 1, 3, 5, 7, 8-10) waits > 50 ms before 1, 3, 5 and 7;
    # requests 8-10 are due 1 ms apart, right behind request 7.
    assert len(calls) == 4
    assert len({name for name, _ in calls}) == 1
