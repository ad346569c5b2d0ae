"""Recorders: where instrumented code sends its spans.

Instrumented layers never hold a recorder — they fetch the ambient one
with :func:`get_recorder` at each entry point:

.. code-block:: python

    obs = get_recorder()
    with obs.span("mapper.map", mapper=self.name) as sp:
        ...
        sp.set(cost=cost)

The default ambient recorder is :data:`NULL_RECORDER`, whose ``span()``
hands back one shared no-op object — the disabled path costs a context
variable read, one method call, and a ``with`` block, nothing else.
Installing a :class:`SpanRecorder` (via :func:`using_recorder` or
:func:`recording`) turns the same call sites into a trace tree.

The ambient recorder and the current open span both live in
:mod:`contextvars` context variables, so concurrent runs in different
threads or tasks do not interleave their trees — *provided* the context
propagates.  Threads started by hand begin with an empty context; code
that fans work out to a pool should run each task under
:func:`contextvars.copy_context` if it wants child spans parented
correctly.  :class:`SpanRecorder`
serializes tree mutation with a lock, so worker-thread spans are safe
either way.

Asyncio gets this right by construction: each task copies the context it
was created in, so concurrent handler tasks opening spans see their own
``_CURRENT_SPAN`` and build disjoint trees on the shared recorder — the
placement daemon leans on exactly this.  Executor callbacks are the trap
(fresh context → :data:`NULL_RECORDER`); hold the recorder object if you
need it there.  Long-lived processes should also bound the forest with
:meth:`SpanRecorder.trim` — roots otherwise accumulate for the life of
the recorder.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from itertools import count
from types import TracebackType
from typing import Callable, Iterator, Protocol, runtime_checkable

from .spans import JSONValue, Span, SpanEvent
from .tracectx import ClockAnchor, TraceContext

__all__ = [
    "Recorder",
    "NullRecorder",
    "NullSpan",
    "SpanRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "using_recorder",
    "recording",
    "current_trace_context",
]


class NullSpan:
    """The shared no-op span handle the disabled path hands out.

    Mirrors the mutating surface of :class:`~repro.obs.spans.Span`
    (``set`` / ``add``) and the context-manager protocol, doing nothing.
    A single instance is reused for every disabled span, so the fast
    path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False

    def set(self, **attrs: JSONValue) -> "NullSpan":
        return self

    def add(self, name: str, value: float = 1) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


@runtime_checkable
class Recorder(Protocol):
    """What instrumented code may ask of the ambient recorder."""

    @property
    def enabled(self) -> bool:
        """False only for the no-op recorder; hot paths may gate on it."""
        ...

    def span(
        self, name: str, **attrs: JSONValue
    ) -> "_OpenSpan | NullSpan":
        """Context manager opening a child span of the current span."""
        ...

    def counter(self, name: str, value: float = 1) -> None:
        """Bump a counter on the current span."""
        ...

    def event(self, name: str, **attrs: JSONValue) -> None:
        """Record a point-in-time event on the current span."""
        ...


class NullRecorder:
    """The default ambient recorder: records nothing, costs ~nothing."""

    __slots__ = ()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs: JSONValue) -> NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value: float = 1) -> None:
        return None

    def event(self, name: str, **attrs: JSONValue) -> None:
        return None


NULL_RECORDER = NullRecorder()

#: The span new child spans attach to (per execution context).
_CURRENT_SPAN: ContextVar[Span | None] = ContextVar(
    "repro_obs_current_span", default=None
)


class _OpenSpan:
    """Context manager materializing one span on enter/exit.

    On enter it stamps ``t_start``, attaches the span to the current
    span's children (or the recorder's roots) under the recorder lock,
    and makes it current for the enclosed block.  On exit it stamps
    ``t_end``, tags the span with the exception type if the block
    raised, and restores the previous current span.
    """

    __slots__ = ("_recorder", "_span", "_token")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span
        self._token: Token[Span | None] | None = None

    def __enter__(self) -> Span:
        rec = self._recorder
        span = self._span
        span.t_start = rec.clock()
        parent = _CURRENT_SPAN.get()
        # Causal identity: in-process children parent under the current
        # span; roots parent under whatever remote span the recorder's
        # trace context names (None for a locally minted trace).
        span.parent_span_id = (
            parent.span_id if parent is not None else rec.context.span_id
        )
        with rec._lock:
            (parent.children if parent is not None else rec.roots).append(span)
        self._token = _CURRENT_SPAN.set(span)
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        span = self._span
        span.t_end = self._recorder.clock()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        return False


class SpanRecorder:
    """Collects spans into a forest of trace trees.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonic seconds.  Defaults to
        :func:`time.perf_counter`; tests inject a fake for deterministic
        timings.
    context:
        The :class:`~repro.obs.tracectx.TraceContext` this recorder's
        spans belong to.  Pass the context extracted from an incoming
        request/task so local roots parent under the remote caller's
        span; omitted, a fresh local context is minted.
    wall_clock:
        Wall-clock source paired with ``clock`` to capture the
        recorder's :class:`~repro.obs.tracectx.ClockAnchor` (the handle
        that lets another process rebase these spans onto its clock).

    Every span gets a 16-hex ``span_id`` — a random 64-bit base plus a
    counter, so id generation costs an increment rather than an entropy
    read per span (``bench_obs`` guards recorder overhead).
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        context: TraceContext | None = None,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        self.clock = clock
        self.context = context if context is not None else TraceContext.new()
        self._wall_clock = wall_clock
        self._anchor: ClockAnchor | None = None
        #: Top-level spans, in creation order.
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._id_base = int.from_bytes(os.urandom(8), "big")
        self._id_seq = count()

    @property
    def anchor(self) -> ClockAnchor:
        """This recorder's clock anchor, captured lazily on first use.

        Lazy so constructing a recorder does not consume a reading from
        an injected deterministic clock; the offset between two anchors
        is constant regardless of *when* each pair is captured.
        """
        if self._anchor is None:
            self._anchor = ClockAnchor.now(self.clock, self._wall_clock)
        return self._anchor

    @property
    def enabled(self) -> bool:
        return True

    @property
    def trace_id(self) -> str:
        """The 32-hex id of the trace this recorder is building."""
        return self.context.trace_id

    def next_span_id(self) -> str:
        """A fresh 16-hex span id unique within this recorder."""
        value = (self._id_base + next(self._id_seq)) & 0xFFFFFFFFFFFFFFFF
        return format(value or 1, "016x")

    def current_span(self) -> Span | None:
        """The open span in the calling execution context, if any."""
        return _CURRENT_SPAN.get()

    def span(self, name: str, **attrs: JSONValue) -> _OpenSpan:
        return _OpenSpan(
            self, Span(name=name, attrs=dict(attrs), span_id=self.next_span_id())
        )

    def trim(self, keep: int) -> int:
        """Drop the oldest root spans beyond ``keep``; returns how many.

        Long-lived processes (the placement daemon above all) call this
        after each request so the trace forest stays bounded instead of
        growing for the recorder's lifetime.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with self._lock:
            excess = len(self.roots) - keep
            if excess > 0:
                del self.roots[:excess]
                return excess
        return 0

    def counter(self, name: str, value: float = 1) -> None:
        current = _CURRENT_SPAN.get()
        if current is not None:
            with self._lock:
                current.counters[name] = current.counters.get(name, 0) + value

    def event(self, name: str, **attrs: JSONValue) -> None:
        current = _CURRENT_SPAN.get()
        if current is not None:
            ev = SpanEvent(name=name, t=self.clock(), attrs=dict(attrs))
            with self._lock:
                current.events.append(ev)


#: The ambient recorder for the current execution context.
_RECORDER: ContextVar[Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def get_recorder() -> Recorder:
    """The ambient recorder (the no-op one unless something installed)."""
    return _RECORDER.get()


def set_recorder(recorder: Recorder) -> None:
    """Install ``recorder`` as the ambient recorder for this context.

    Prefer the scoped :func:`using_recorder` unless the surrounding
    lifetime genuinely is the whole program (e.g. the CLI).
    """
    _RECORDER.set(recorder)


@contextmanager
def using_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Scope ``recorder`` as the ambient recorder for a ``with`` block."""
    token = _RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _RECORDER.reset(token)


@contextmanager
def recording(
    *,
    clock: Callable[[], float] = time.perf_counter,
    context: TraceContext | None = None,
) -> Iterator[SpanRecorder]:
    """Install a fresh :class:`SpanRecorder` for a ``with`` block.

    .. code-block:: python

        with recording() as rec:
            mapper.map(problem)
        print(render_trace(rec.roots))
    """
    recorder = SpanRecorder(clock=clock, context=context)
    with using_recorder(recorder):
        yield recorder


def current_trace_context() -> TraceContext | None:
    """The context to propagate downstream from this execution context.

    ``None`` unless the ambient recorder is a :class:`SpanRecorder`.
    When a span is open, the returned context names it as the parent —
    inject it into an outgoing request and the remote process's spans
    slot under the span that issued the call.
    """
    recorder = _RECORDER.get()
    if not isinstance(recorder, SpanRecorder):
        return None
    current = _CURRENT_SPAN.get()
    if current is not None and current.span_id is not None:
        return recorder.context.child(current.span_id)
    return recorder.context
