"""Convex-optimization feedback control (Sections II-B, VI-C).

This baseline uses a feedback control system to meet the QoS
requirement — the same deadbeat law as CASH's controller — but relies
on a *single convex model* that captures the application's average-case
behaviour over its whole execution.  It neither estimates base speed
online (no Kalman filter) nor learns per-configuration speedups
(no Q-learning).  Its two failure modes, visible in Figs. 2, 7 and 8:

* the convex model cannot represent local optima, so in phases where
  the true surface is non-convex it picks points that miss QoS or
  overpay;
* the fixed base-speed gain makes the controller sluggish (or
  oscillatory) after a phase change, so it lingers in expensive
  configurations (Fig. 8's 54–144 Mcycle plateau).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.controller import DeadbeatController
from repro.runtime.cash import QoSMeasurement
from repro.runtime.optimizer import (
    ConfigPoint,
    Schedule,
    ScheduleEntry,
    lower_envelope_cost,
)
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel
from repro.workloads.phase import PhasedApplication


def average_points(
    app: PhasedApplication,
    model: PerformanceModel,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    candidates: Optional[Sequence[VCoreConfig]] = None,
) -> Sequence[ConfigPoint]:
    """Average-case (QoS, cost) points, instruction-weighted over phases.

    This is the offline profile the convex baseline is built from: one
    number per configuration for the *whole* application, hiding all
    phase structure.
    """
    pool = list(candidates) if candidates is not None else list(space)
    total_instructions = app.total_instructions
    if perf.FAST:
        # Same per-(phase, config) IPC values (the tables are built from
        # the bit-identical vectorized kernel), same summation order.
        tables = [
            operating_point_table(phase, model, space, cost_model)
            for phase in app.phases
        ]

        def ipc_of(phase_index: int, config: VCoreConfig) -> float:
            ipc = tables[phase_index].get_ipc(config)
            if ipc is not None:
                return ipc
            return model.ipc(app.phases[phase_index], config)

    else:

        def ipc_of(phase_index: int, config: VCoreConfig) -> float:
            return model.ipc(app.phases[phase_index], config)

    points = []
    for config in pool:
        # Instruction-weighted harmonic mean: total work over total time.
        # Added left to right in a loop, not with builtin ``sum()``,
        # which compensates float rounding from CPython 3.12 on: the
        # profile is then the same on every supported interpreter.
        cycles = 0.0
        for index, phase in enumerate(app.phases):
            cycles += phase.instructions / ipc_of(index, config)
        points.append(
            ConfigPoint(
                config=config,
                speedup=total_instructions / cycles,
                cost_rate=config.cost_rate(cost_model),
            )
        )
    # The average-case profile is static for the allocator's lifetime;
    # as an OperatingPointTable its lower envelope is computed once
    # instead of once per control interval (fast paths only — the
    # reference path ignores the memoized envelope).
    return OperatingPointTable(tuple(points))


class ConvexOptimizationAllocator:
    """Deadbeat feedback over a static convex average-case model."""

    name = "Convex Optimization"

    def __init__(
        self,
        app: PhasedApplication,
        qos_goal: float,
        model: PerformanceModel,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        candidates: Optional[Sequence[VCoreConfig]] = None,
        base_config: Optional[VCoreConfig] = None,
    ) -> None:
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        self.qos_goal = qos_goal
        self.points = average_points(app, model, space, cost_model, candidates)
        if base_config is None:
            base_config = min(
                (p.config for p in self.points), key=lambda c: (c.slices, c.l2_kb)
            )
        base_point = next(p for p in self.points if p.config == base_config)
        # The convex baseline's base speed is fixed at the average-case
        # value for the whole run — this is precisely its handicap.
        self._base_qos = base_point.speedup
        self.controller = DeadbeatController(
            qos_goal=qos_goal, base_qos=self._base_qos
        )
        self._max_average_qos = max(p.speedup for p in self.points)

    def decide(
        self,
        measurement: Optional[QoSMeasurement],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        if measurement is not None:
            self.controller.update(measurement.overall_qos)
        # The controller may demand more than the model's maximum when
        # reality underdelivers (integral windup against model error) —
        # this is how the convex baseline ends up both violating QoS
        # *and* overpaying in non-convex phases (Section VI-C).
        demand_qos = min(
            self.controller.speedup * self._base_qos,
            1.5 * self._max_average_qos,
        )
        try:
            _, schedule = lower_envelope_cost(self.points, demand_qos)
        except ValueError:
            fastest = max(self.points, key=lambda p: p.speedup)
            schedule = Schedule(
                entries=(ScheduleEntry(fastest, 1.0),), saturated=True
            )
        return schedule
