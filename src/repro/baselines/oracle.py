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
from repro.sim.optables import operating_point_table
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
) -> Sequence[ConfigPoint]:
    """True (QoS, cost) operating points of every configuration.

    Served from the process-global memoized table (with its cached
    envelope) when the fast paths are on; the points are bit-identical
    to the scalar construction either way.
    """
    if perf.FAST:
        return operating_point_table(phase, model, space, cost_model)
    return [
        ConfigPoint(
            config=config,
            speedup=model.ipc(phase, config),
            cost_rate=config.cost_rate(cost_model),
        )
        for config in space
    ]


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
    """

    name = "Optimal"

    def __init__(self, qos_goal: float) -> None:
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        self.qos_goal = qos_goal

    def decide(
        self,
        measurement: Optional[object],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
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
