"""Minimal cycle/event simulation core.

The cycle tier's pipeline is self-clocked, but cross-component
experiments (runtime Slice querying counters over the interface network
while client virtual cores execute) need a shared notion of time.  This
module provides it: a :class:`SimulationClock` that steps registered
:class:`Clocked` components cycle by cycle and a deadline-ordered event
queue for one-shot callbacks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Protocol


class Clocked(Protocol):
    """A component advanced once per cycle."""

    def tick(self, cycle: int) -> None:
        """Advance to ``cycle``."""


@dataclass(order=True)
class _Event:
    fire_at: int
    sequence: int
    action: Callable[[int], None] = field(compare=False)


class SimulationClock:
    """Steps components and fires scheduled events in cycle order."""

    def __init__(self) -> None:
        self._cycle = 0
        self._components: List[Clocked] = []
        self._events: List[_Event] = []
        self._sequence = 0

    @property
    def now(self) -> int:
        return self._cycle

    def register(self, component: Clocked) -> None:
        self._components.append(component)

    def schedule(self, delay: int, action: Callable[[int], None]) -> None:
        """Run ``action(cycle)`` after ``delay`` cycles."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._sequence += 1
        heapq.heappush(
            self._events,
            _Event(fire_at=self._cycle + delay, sequence=self._sequence,
                   action=action),
        )

    def step(self, cycles: int = 1) -> int:
        """Advance the clock; returns the new cycle count."""
        if cycles <= 0:
            raise ValueError(f"cycles must be positive, got {cycles}")
        for _ in range(cycles):
            self._cycle += 1
            while self._events and self._events[0].fire_at <= self._cycle:
                event = heapq.heappop(self._events)
                event.action(self._cycle)
            for component in self._components:
                component.tick(self._cycle)
        return self._cycle

    def run_until(self, predicate: Callable[[], bool], limit: int = 10**7) -> int:
        """Step until ``predicate()`` is true; returns the cycle."""
        steps = 0
        while not predicate():
            self.step()
            steps += 1
            if steps > limit:
                raise RuntimeError(
                    f"predicate not satisfied within {limit} cycles"
                )
        return self._cycle
