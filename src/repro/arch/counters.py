"""Timestamped performance counters (Section III-B2).

The CASH architecture has no fixed cores, so performance counters live
per Slice and are queried remotely over the CASH Runtime Interface
Network.  Every sample carries the cycle timestamp at which it was
taken, which lets the runtime synthesize a coherent virtual-core-level
reading out of per-Slice samples taken at slightly different times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.analysis.units import (
    CycleCount,
    InstructionCount,
    InstructionsPerCycle,
)


class CounterKind(enum.Enum):
    """Counter classes exposed by a Slice."""

    INSTRUCTIONS_COMMITTED = "instructions_committed"
    CYCLES = "cycles"
    L1_MISSES = "l1_misses"
    L2_MISSES = "l2_misses"
    L2_ACCESSES = "l2_accesses"
    BRANCH_MISPREDICTS = "branch_mispredicts"
    BRANCHES = "branches"


@dataclass(frozen=True)
class CounterSample:
    """One timestamped counter reading from one Slice."""

    slice_id: int
    kind: CounterKind
    value: int
    timestamp: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"counter value must be non-negative, got {self.value}")
        if self.timestamp < 0:
            raise ValueError(
                f"timestamp must be non-negative, got {self.timestamp}"
            )


class PerformanceCounters:
    """The counter block of a single Slice."""

    def __init__(self, slice_id: int) -> None:
        self.slice_id = slice_id
        self._values: Dict[CounterKind, int] = {kind: 0 for kind in CounterKind}

    def increment(self, kind: CounterKind, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        self._values[kind] += amount

    def read(self, kind: CounterKind, timestamp: int) -> CounterSample:
        return CounterSample(
            slice_id=self.slice_id,
            kind=kind,
            value=self._values[kind],
            timestamp=timestamp,
        )

    def value(self, kind: CounterKind) -> int:
        return self._values[kind]

    def reset(self) -> None:
        for kind in self._values:
            self._values[kind] = 0


@dataclass(frozen=True)
class VCoreReading:
    """A synthesized virtual-core-level performance reading."""

    instructions: InstructionCount
    cycles: CycleCount
    ipc: InstructionsPerCycle
    l2_miss_rate: float
    branch_mispredict_rate: float
    window_start: CycleCount
    window_end: CycleCount


def synthesize_vcore_reading(
    samples: Iterable[CounterSample],
    previous: Optional[Iterable[CounterSample]] = None,
) -> VCoreReading:
    """Combine per-Slice samples into one virtual-core reading.

    ``samples`` are the current readings, one or more per Slice;
    ``previous`` (if given) are readings from the prior interval, whose
    values are subtracted to obtain a windowed rate.  The window is the
    span of the timestamps involved; the IPC divides total committed
    instructions by the *widest* per-slice cycle delta so that skewed
    sample times never overstate performance.
    """
    current = list(samples)
    if not current:
        raise ValueError("need at least one counter sample")
    baseline: Dict[tuple, int] = {}
    min_ts = min(sample.timestamp for sample in current)
    if previous is not None:
        for sample in previous:
            baseline[(sample.slice_id, sample.kind)] = sample.value
            min_ts = min(min_ts, sample.timestamp)

    def windowed(sample: CounterSample) -> int:
        start = baseline.get((sample.slice_id, sample.kind), 0)
        delta = sample.value - start
        if delta < 0:
            raise ValueError(
                f"counter {sample.kind.value} on slice {sample.slice_id} "
                "went backwards"
            )
        return delta

    totals: Dict[CounterKind, int] = {kind: 0 for kind in CounterKind}
    per_slice_cycles: Dict[int, int] = {}
    for sample in current:
        value = windowed(sample)
        totals[sample.kind] += value
        if sample.kind is CounterKind.CYCLES:
            per_slice_cycles[sample.slice_id] = max(
                per_slice_cycles.get(sample.slice_id, 0), value
            )

    cycles = max(per_slice_cycles.values(), default=0)
    instructions = totals[CounterKind.INSTRUCTIONS_COMMITTED]
    l2_accesses = totals[CounterKind.L2_ACCESSES]
    branches = totals[CounterKind.BRANCHES]
    return VCoreReading(
        instructions=instructions,
        cycles=cycles,
        ipc=instructions / cycles if cycles else 0.0,
        l2_miss_rate=(
            totals[CounterKind.L2_MISSES] / l2_accesses if l2_accesses else 0.0
        ),
        branch_mispredict_rate=(
            totals[CounterKind.BRANCH_MISPREDICTS] / branches if branches else 0.0
        ),
        window_start=min_ts,
        window_end=max(sample.timestamp for sample in current),
    )
