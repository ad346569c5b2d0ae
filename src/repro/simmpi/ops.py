"""Operations a simulated process can yield.

A simulated MPI program is a Python generator that yields these operation
objects; the simulator interprets them against the network model.  The
semantics are deliberately simple and deterministic:

* :class:`Send` is **eager/buffered** — the sender deposits the message
  and continues immediately (no rendezvous), so symmetric neighbor
  exchanges cannot deadlock.
* :class:`Recv` blocks until the matching message (same source and tag,
  FIFO per channel) has been transferred; the transfer is timed with the
  alpha-beta link model, including cross-site link serialization.
* :class:`Compute` advances the local clock by a given amount of work
  time; the comm-only simulation mode scales these to zero (that is how
  we mirror the paper's "simulation focuses on communication time").
* :class:`Barrier` is an ideal synchronization: all ranks resume at the
  maximum of their arrival times.  Realistic barriers built from messages
  live in :mod:`repro.simmpi.collectives`.

**A program's op stream must not depend on simulated time.**  The engine
sends nothing into the generator and there are no wildcard receives, so
a program cannot observe the clock or the network through the
simulator.  It must not observe them any other way either, for example
through state a network model mutates.  Then the operations each rank
yields, and which send every receive matches, are the same under every
network and mapping, which is what lets :mod:`repro.simmpi.replay`
record a program once and replay its stream for every mapping.
Ranks, byte counts and tags are integers, compute times floats.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Send", "Recv", "Compute", "Barrier", "Operation"]


@dataclass(frozen=True, slots=True)
class Send:
    """Deposit ``nbytes`` for ``dst`` under ``tag`` and continue."""

    dst: int
    nbytes: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.dst < 0:
            raise ValueError(f"dst must be >= 0, got {self.dst}")
        if self.nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {self.nbytes}")


@dataclass(frozen=True, slots=True)
class Recv:
    """Block until the next message from ``src`` with ``tag`` arrives."""

    src: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.src < 0:
            raise ValueError(f"src must be >= 0, got {self.src}")


@dataclass(frozen=True, slots=True)
class Compute:
    """Local computation taking ``seconds`` of simulated time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True, slots=True)
class Barrier:
    """Ideal global synchronization point."""


Operation = Send | Recv | Compute | Barrier
