"""The oracle: true minimal cost for any QoS target (Section V-C).

The paper constructs its oracle by running every application in every
configuration, manually identifying phases, and brute-forcing the
lowest-cost resource combination for each performance goal.  Here the
oracle is granted the same perfect knowledge: the true per-phase
operating points (from the fast SSim tier) and the current phase.  It
solves Eqn. 5 exactly on the true points — the lower convex envelope —
so no allocator can beat it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, DEFAULT_CONFIG_SPACE
from repro.runtime.optimizer import (
    ConfigPoint,
    Schedule,
    ScheduleEntry,
    lower_envelope_cost,
)
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel
from repro.workloads.phase import Phase, PhasedApplication


@dataclass(frozen=True)
class OracleEntry:
    """Optimal schedule and cost rate for one phase at one QoS goal."""

    phase_name: str
    schedule: Schedule
    cost_rate: float


def phase_points(
    phase: Phase,
    model: PerformanceModel,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> OperatingPointTable:
    """True (QoS, cost) operating points of every configuration.

    The phase's operating-point table: memoized with its envelope when
    the fast paths are on, built by the scalar loop when they are off
    (:func:`~repro.sim.optables.operating_point_table` decides).
    """
    return operating_point_table(phase, model, space, cost_model)


def build_oracle_table(
    app: PhasedApplication,
    qos_goal: float,
    model: PerformanceModel,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Dict[str, OracleEntry]:
    """Per-phase optimal schedules for a throughput QoS goal."""
    if qos_goal <= 0:
        raise ValueError(f"qos_goal must be positive, got {qos_goal}")
    table: Dict[str, OracleEntry] = {}
    for phase in app.phases:
        points = phase_points(phase, model, space, cost_model)
        cost, schedule = lower_envelope_cost(points, qos_goal)
        table[phase.name] = OracleEntry(
            phase_name=phase.name, schedule=schedule, cost_rate=cost
        )
    return table


class OracleAllocator:
    """Allocator with perfect knowledge of the current operating points.

    Each interval the harness hands it the *true* configuration points
    for the present phase (and, for server workloads, the present
    request rate); it returns the exact LP optimum.  This is the
    idealized reference every other allocator is normalized against.

    On the fast path the optimum is remembered per
    :class:`~repro.sim.optables.OperatingPointTable`: tables are sealed
    and immutable and the goal is fixed, so a throughput phase's
    schedule — the unreachable-goal fallback included — is solved once
    and handed out again on every interval spent in the phase.  Latency
    point views and plain lists depend on the interval's request rate
    and are solved every call.
    """

    name = "Optimal"

    def __init__(self, qos_goal: float) -> None:
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        self.qos_goal = qos_goal
        self._solved: Dict[OperatingPointTable, Schedule] = {}

    def decide(
        self,
        measurement: Optional[object],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        if perf.FAST and isinstance(true_points, OperatingPointTable):
            schedule = self._solved.get(true_points)
            if schedule is None:
                schedule = self._solve(true_points)
                self._solved[true_points] = schedule
            return schedule
        return self._solve(true_points)

    def _solve(self, true_points: Sequence[ConfigPoint]) -> Schedule:
        try:
            _, schedule = lower_envelope_cost(true_points, self.qos_goal)
        except ValueError:
            # Goal unreachable this interval even for the oracle: run
            # the fastest configuration flat out.
            fastest = max(true_points, key=lambda p: p.speedup)
            schedule = Schedule(
                entries=(ScheduleEntry(fastest, 1.0),), saturated=True
            )
        return schedule
