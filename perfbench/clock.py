"""Host-speed probes: times in reference-host seconds.

On a shared host the speed of this program drifts by a third over tens
of seconds as other tenants' work comes and goes on the same cores:
the ``allocators`` grid took 4.9–8.2 s in fresh processes minutes
apart, and the three repetitions inside one 27-second run were often
all slow together.  A fixed probe — a pure-Python loop and numpy
gathers from a fabric-sized matrix — slows down with it, in about the
same proportion as each workload.  Over 150 s of small allocator,
service, provider and cycle-tier grids run round-robin with probes
between them, dividing each grid's time by the probe time next to it
cut the spread of 12-second windows (quartile distance over median)
from 0.10–0.16 to 0.03–0.07; the grids' times moved as the probe time
to a power of 0.8–1.2.  A probe of interpreter work alone (a loop, dict
and attribute work, small numpy calls) overcorrected: powers of
0.6–0.8, and 0.10–0.14 left after dividing.

:class:`Probe` wraps ``stats.run_cell`` and a few tick entry points.
Around a cell it runs :func:`probe_ns` at the cell's start and end and
at the first tick at least :data:`PERIOD_NS` after the previous probe,
and after each cell appends the cell's time net of probes and the
probe durations to ``probes-<pid>.txt`` in its directory; pool workers
inherit the wrappers by fork and write their own files.  :func:`scale`
turns a measured time into reference-host seconds, and
:func:`grid_seconds` a whole grid's wall time.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

import spans

REFERENCE_PROBE_NS = 3_000_000
"""About what :func:`probe_ns` takes on the reference host at its
fastest (2.6–2.9 ms on a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7):
reference-host seconds are measured seconds times this over the probe
time measured next to them."""

PERIOD_NS = 200_000_000
"""Cell time between probes; the probes add about 2% and are taken out
again by :func:`grid_seconds`."""

TICKS: Tuple[spans.EntryPoint, ...] = (
    spans.EntryPoint("tick", "repro.experiments.harness", "_PhaseWalker", "run_cycles"),
    spans.EntryPoint("tick", "repro.arch.fabric", "Fabric", "allocate"),
    spans.EntryPoint("tick", "repro.arch.fabric", "Fabric", "defragment"),
    spans.EntryPoint("tick", "repro.sim.trace", "TraceGenerator", "generate_arrays"),
)
"""Methods each workload calls often enough to probe between."""


def _loop() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


_SIDE = 576
"""Tiles of the service workload's 24x24 fabric, whose all-pairs
distance matrix ``Fabric.allocate`` gathers from."""
_MATRIX = (np.arange(_SIDE * _SIDE, dtype=float) % 97.0).reshape(_SIDE, _SIDE)
_ROWS = np.arange(2000) * 7919 % _SIDE


def _gather() -> float:
    total = 0.0
    for k in range(20):
        total += float(_MATRIX[_ROWS[k::20]][:, _ROWS[:100]].min())
    return total


def probe_ns() -> int:
    """Duration of one fixed probe, about 3 ms."""
    start = time.monotonic_ns()
    _loop()
    _gather()
    return time.monotonic_ns() - start


def scale(seconds: float, probes_ns: List[int]) -> float:
    """``seconds`` measured next to ``probes_ns``, in reference-host seconds."""
    return seconds * REFERENCE_PROBE_NS / statistics.median(probes_ns)


class Probe:
    """Runs :func:`probe_ns` inside every cell while installed."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._durations: List[int] = []
        self._next = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _probe(self) -> None:
        self._durations.append(probe_ns())
        self._next = time.monotonic_ns() + PERIOD_NS

    def _tick(self, func: Callable) -> Callable:
        clock = time.monotonic_ns

        @wraps(func)
        def wrapper(*args, **kwargs):
            if clock() >= self._next:
                self._probe()
            return func(*args, **kwargs)

        return wrapper

    def _cell(self, func: Callable) -> Callable:
        clock = time.monotonic_ns

        @wraps(func)
        def wrapper(spec):
            self._durations = []
            self._probe()
            start = clock()
            try:
                return func(spec)
            finally:
                busy = clock() - start - sum(self._durations[1:])
                self._probe()
                path = self.directory / f"probes-{os.getpid()}.txt"
                with open(path, "a") as out:
                    out.write(" ".join(map(str, [busy, *self._durations])) + "\n")

        return wrapper

    def install(self) -> None:
        from repro.experiments import stats

        for entry in TICKS:
            owner = getattr(importlib.import_module(entry.module), entry.owner)
            self._patch(owner, entry.attribute, self._tick(owner.__dict__[entry.attribute]))
        self._patch(stats, "run_cell", self._cell(stats.run_cell))

    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def read(self) -> List["Worker"]:
        """What every process of this run recorded, one per process."""
        workers = []
        for path in sorted(self.directory.glob("probes-*.txt")):
            busy, probes = 0, []
            for line in path.read_text().splitlines():
                cell_busy, *durations = map(int, line.split())
                busy += cell_busy
                probes += durations
            workers.append(Worker(busy, probes))
        return workers


@dataclass(frozen=True)
class Worker:
    busy_ns: int
    """Time in cells, probes excluded."""
    probes_ns: List[int]


def grid_seconds(wall_ns: int, workers: Sequence[Worker]) -> Tuple[float, float]:
    """``(net, reference)`` seconds of a grid that took ``wall_ns``.

    The busiest process (the only one for a serial grid, the last pool
    worker to finish for a pool) sets the wall: its time in cells and its
    probes, plus the time outside it (pool start-up and shut-down, the
    grid's own bookkeeping).  *net* drops the probes.  *reference*
    scales each process's cell time by its own probes, takes the
    longest, and adds the outside time scaled by all the probes.
    """
    critical = max(workers, key=lambda worker: worker.busy_ns + sum(worker.probes_ns))
    outside = wall_ns - critical.busy_ns - sum(critical.probes_ns)
    every_probe = [value for worker in workers for value in worker.probes_ns]
    longest = max(scale(worker.busy_ns / 1e9, worker.probes_ns) for worker in workers)
    return (
        (outside + critical.busy_ns) / 1e9,
        scale(outside / 1e9, every_probe) + longest,
    )
