"""Open-loop load over the placement daemon's line-JSON unix socket.

Requests are due on a fixed schedule, whatever the server does.  Each
request names a lane; each lane is one blocking connection driven by
its own thread, which sleeps until the lane's next request is due,
sends it and waits for the reply.  The daemon answers a connection's
requests one at a time, so a slow reply delays the requests queued
behind it on its lane: latency is timed from when a request was *due*,
and ``lag`` records how late it went out.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence


#: Shortest wait for a due time in which ``run_open_loop`` calls ``idle``.
IDLE_MIN_S = 0.05


@dataclass
class Request:
    """One request line (with its newline), due ``due`` seconds after start."""

    due: float
    line: bytes
    tag: Any = None
    #: The connection that carries it.
    lane: int = 0


@dataclass
class Sample:
    """What happened to one request; times are ``perf_counter`` readings."""

    request: Request
    start: float
    sent: float
    done: float
    reply: bytes | None
    error: str | None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its reply arrived."""
        return self.done - (self.start + self.request.due)

    @property
    def lag(self) -> float:
        """Seconds the request went out after it was due."""
        return self.sent - (self.start + self.request.due)

    @property
    def round_trip(self) -> float:
        return self.done - self.sent


class Connection:
    """One blocking line-JSON connection."""

    def __init__(self, socket_path: str, timeout: float) -> None:
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile: Any = None

    def _open(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def exchange(self, line: bytes) -> bytes:
        """Send one line, return the reply line; reconnects after a failure."""
        if self._sock is None:
            self._open()
        try:
            self._sock.sendall(line)
            reply = self._rfile.readline()
        except OSError:
            self.close()
            raise
        if not reply:
            self.close()
            raise ConnectionError("daemon closed the connection")
        return reply

    def call(self, payload: dict[str, Any]) -> dict[str, Any]:
        return json.loads(self.exchange(json.dumps(payload).encode() + b"\n"))

    def close(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._rfile = None

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_open_loop(
    socket_path: str,
    requests: Sequence[Request],
    *,
    timeout: float = 30.0,
    idle: Callable[[], object] | None = None,
    idle_lane: int = 0,
) -> list[Sample]:
    """Send ``requests`` on their schedule, one connection per lane.

    While lane ``idle_lane`` waits more than ``IDLE_MIN_S`` for its next
    request to fall due, it calls ``idle`` once first (which must return
    well within ``IDLE_MIN_S``).  Returns one :class:`Sample` per request,
    in due order.
    """
    lanes: dict[int, deque[Request]] = {}
    for request in sorted(requests, key=lambda r: r.due):
        lanes.setdefault(request.lane, deque()).append(request)
    lock = threading.Lock()
    samples: list[Sample] = []
    start = time.perf_counter()

    def drive(lane: int, pending: deque[Request]) -> None:
        with Connection(socket_path, timeout) as conn:
            while pending:
                request = pending.popleft()
                delay = start + request.due - time.perf_counter()
                if idle is not None and lane == idle_lane and delay > IDLE_MIN_S:
                    idle()
                    delay = start + request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                reply: bytes | None = None
                error: str | None = None
                try:
                    reply = conn.exchange(request.line)
                except (OSError, ConnectionError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                with lock:
                    samples.append(Sample(request, start, sent, done, reply, error))

    queues = list(lanes.items())
    helpers = [threading.Thread(target=drive, args=q) for q in queues[1:]]
    for thread in helpers:
        thread.start()
    try:
        if queues:
            drive(*queues[0])
    finally:
        for thread in helpers:
            thread.join()
    samples.sort(key=lambda s: s.request.due)
    return samples
