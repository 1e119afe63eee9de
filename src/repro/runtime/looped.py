"""Looped (run-length / loop-nest) schedule representation.

SDF compilers never store schedules as flat firing lists — a steady-state
schedule is a *loop nest* like ``(16 (4 A) (2 B C))`` meaning "16 times: A
four times, then twice (B then C)".  Our generated schedules are extremely
repetitive (a partitioned batch schedule is literally
``batches × components × M × sweep``), so the flat lists the schedulers
build can run to hundreds of thousands of entries.  This module provides:

* :class:`Loop` — a loop-nest node: ``count`` repetitions of a body whose
  elements are module names or nested loops;
* :class:`LoopedSchedule` — a drop-in companion to
  :class:`~repro.runtime.schedule.Schedule`: same label/capacities, lazy
  iteration (:meth:`firings_iter`) so the executor can run it without
  materializing, and exact expansion for validation.

The executor accepts either representation (`Executor.run` iterates, it
never indexes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.errors import ScheduleError
from repro.runtime.schedule import Schedule

__all__ = ["Loop", "LoopedSchedule"]

Element = Union[str, "Loop"]


@dataclass(frozen=True)
class Loop:
    """``count`` repetitions of ``body`` (module names and nested loops)."""

    count: int
    body: Tuple[Element, ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ScheduleError(f"loop count must be >= 1, got {self.count}")
        if not self.body:
            raise ScheduleError("loop body must be non-empty")

    def __len__(self) -> int:
        """Number of firings the loop expands to."""
        inner = sum(len(e) if isinstance(e, Loop) else 1 for e in self.body)
        return self.count * inner

    def firings_iter(self) -> Iterator[str]:
        for _ in range(self.count):
            for e in self.body:
                if isinstance(e, Loop):
                    yield from e.firings_iter()
                else:
                    yield e

    def render(self) -> str:
        parts = " ".join(e.render() if isinstance(e, Loop) else e for e in self.body)
        return f"({self.count} {parts})"


@dataclass
class LoopedSchedule:
    """A schedule stored as a loop nest.

    Mirrors :class:`Schedule`'s interface where it matters (``label``,
    ``capacities``, ``__len__``, iteration) and expands to one
    (:meth:`to_flat`).
    """

    loops: Tuple[Element, ...]
    capacities: Optional[Dict[int, int]] = None
    label: str = "looped"

    def __len__(self) -> int:
        return sum(len(e) if isinstance(e, Loop) else 1 for e in self.loops)

    def firings_iter(self) -> Iterator[str]:
        for e in self.loops:
            if isinstance(e, Loop):
                yield from e.firings_iter()
            else:
                yield e

    def to_flat(self) -> Schedule:
        return Schedule(list(self.firings_iter()), capacities=self.capacities, label=self.label)

    def render(self) -> str:
        return " ".join(e.render() if isinstance(e, Loop) else e for e in self.loops)
