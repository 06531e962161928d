"""Closed-loop evaluation harness on the fast SSim tier.

The harness advances an application interval by interval.  Each
interval it asks the allocator for a schedule (one or two configuration
legs plus idle), executes the legs against the analytic performance
model — crossing phase boundaries exactly, charging reconfiguration
stalls, and accruing rental cost — then reports the measured QoS (with
measurement noise) back to the allocator.  This mirrors the paper's
methodology of sampling performance 1000 times per application and
recording total cost and QoS violations (Section VI-C).

Cost convention: the paper's "Cost ($)" magnitudes (Table III, Figs. 7
and 10) correspond to one hour of sustained execution at the measured
average $/hour rate, so :attr:`RunResult.cost_dollars` is the
time-weighted mean cost rate × 1 hour.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro import native, perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.reconfig import ReconfigCostModel, DEFAULT_RECONFIG_COSTS
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.cash import (
    CASHRuntime,
    LegObservation,
    QoSMeasurement,
)
from repro.runtime.optimizer import (
    IDLE_POINT,
    ConfigPoint,
    Schedule,
    _build_envelope,
)
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase, PhasedApplication
from repro.workloads.requests import OscillatingLoad, RequestTrace


class Allocator(Protocol):
    """What the harness requires of a resource allocator."""

    name: str

    def decide(
        self,
        measurement: Optional[QoSMeasurement],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        """Return the schedule for the next interval.

        ``measurement`` is the previous interval's observed QoS (None on
        the first interval).  ``true_points`` are the ground-truth
        operating points for the *current* conditions; only omniscient
        allocators (oracle, race-to-idle) may use them — feedback
        allocators must rely on ``measurement`` alone.
        """


def qos_target_for(
    app: PhasedApplication,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    margin: float = 0.88,
) -> float:
    """The paper's throughput QoS rule (Section VI-C).

    "The highest worst case IPC": the largest IPC achievable in every
    phase — i.e. the worst phase's best IPC — backed off by ``margin``
    so that a non-trivial set of configurations can meet it.
    """
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    if perf.FAST:
        # max_qos over the memoized table is the same set of floats the
        # scalar double loop maximizes (the vectorized kernel is
        # bit-identical), so the target is unchanged.
        worst_case_best = min(
            operating_point_table(phase, model, space).max_qos
            for phase in app.phases
        )
    else:
        worst_case_best = min(
            max(model.ipc(phase, config) for config in space)
            for phase in app.phases
        )
    return worst_case_best * margin


@dataclass(frozen=True)
class IntervalRecord:
    """Everything observed in one control interval."""

    index: int
    start_cycle: float
    phase_name: str
    schedule: Schedule
    true_qos: float
    measured_qos: float
    active_qos: float
    cost_rate: float
    violated: bool
    reconfig_cycles: int
    cycles: float = 0.0
    request_rate: float = 0.0

    @property
    def configs(self) -> List[VCoreConfig]:
        return self.schedule.configs()


@dataclass
class RunResult:
    """Aggregate outcome of one allocator on one application."""

    app_name: str
    allocator_name: str
    qos_goal: float
    interval_cycles: float
    records: List[IntervalRecord]

    @property
    def num_intervals(self) -> int:
        return len(self.records)

    @property
    def mean_cost_rate(self) -> float:
        """Time-weighted average $/hour over the run."""
        if not self.records:
            return 0.0
        return sum(r.cost_rate for r in self.records) / len(self.records)

    @property
    def cost_dollars(self) -> float:
        """Cost of one hour of sustained execution (paper's convention)."""
        return self.mean_cost_rate

    @property
    def violation_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.violated for r in self.records) / len(self.records)

    @property
    def violation_percent(self) -> float:
        return 100.0 * self.violation_rate

    def cost_rate_series(self) -> List[float]:
        return [r.cost_rate for r in self.records]

    def normalized_performance_series(self) -> List[float]:
        """Delivered QoS normalized to the goal, per interval.

        Race-to-idle intervals report their *active* (busy-time) QoS,
        matching how Fig. 2 plots race-to-idle above the QoS line.
        """
        return [
            (r.active_qos if r.active_qos > 0 else r.true_qos) / self.qos_goal
            for r in self.records
        ]

    def time_axis_mcycles(self) -> List[float]:
        return [r.start_cycle / 1e6 for r in self.records]


class _PhaseWalker:
    """Advances an application's instruction stream through its phases.

    ``offset`` is a plain attribute: :meth:`run_cycles` advances it, and
    the latency loop writes it directly.  :meth:`current_phase`
    remembers its last answer together with the offset object it
    answered for, and returns the answer again while ``offset`` is
    still that same object.  The test is identity, not float equality:
    arithmetic binds a new float object on every write (the memo holds
    a reference to the old one, so its id cannot come back), and a
    write that stores the very same object stores the same value.  An
    interval's decision and its first leg read the same offset, so the
    second read costs no scan.
    """

    def __init__(self, app: PhasedApplication) -> None:
        self.app = app
        self.offset = 0.0  # instructions into the (wrapping) app
        self._answered_offset: Optional[float] = None  # nothing answered yet
        self._answer: Tuple[int, Phase] = (0, app.phases[0])
        # Cumulative phase end offsets, accumulated in the same
        # left-to-right order as the scalar scan so the bisect fast path
        # sees bit-identical boundary values.
        ends: List[float] = []
        cursor = 0.0
        for phase in app.phases:
            ends.append(cursor + phase.instructions)
            cursor += phase.instructions
        self._phase_ends = ends
        self._total = app.total_instructions

    def current_phase(self) -> Tuple[int, Phase]:
        offset = self.offset
        if offset is not self._answered_offset:
            self._answer = self.app.phase_at_instruction(offset)
            self._answered_offset = offset
        return self._answer

    def run_cycles(
        self,
        cycles: float,
        ipc_of: Callable[[Phase], float],
        stop_at_boundary: bool = False,
    ) -> Tuple[float, float, bool]:
        """Execute up to ``cycles``; returns (instructions, cycles_used,
        crossed_boundary).

        Crosses phase boundaries exactly: within a phase the IPC is
        constant, so the walker advances to whichever comes first — the
        end of the leg or the end of the phase.  With
        ``stop_at_boundary`` the walker returns at the first phase
        boundary, letting the harness end the control interval there
        (so no sampling interval mixes two phases).
        """
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        executed = 0.0
        used = 0.0
        remaining = cycles
        guard = 0
        while remaining > 1e-9:
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise RuntimeError("phase walker failed to converge")
            _, phase = self.current_phase()
            ipc = ipc_of(phase)
            if ipc <= 0:
                used += remaining
                remaining = 0.0
                break
            instructions_left = self._instructions_left_in_phase()
            cycles_to_boundary = instructions_left / ipc
            # min(remaining, cycles_to_boundary), without the call.
            step = (
                cycles_to_boundary if cycles_to_boundary < remaining else remaining
            )
            progress = ipc * step
            self.offset += progress
            executed += progress
            used += step
            remaining -= step
            if stop_at_boundary and step == cycles_to_boundary:
                # Nudge across the boundary so the next query sees the
                # new phase, then report the crossing.
                self.offset += 1e-6
                return executed, used, True
        return executed, used, False

    def _instructions_left_in_phase(self) -> float:
        offset = self.offset % self._total
        if perf.FAST:
            index = bisect_right(self._phase_ends, offset)
            if index < len(self._phase_ends):
                return self._phase_ends[index] - offset
            return self.app.phases[-1].instructions
        cursor = 0.0
        for phase in self.app.phases:
            if offset < cursor + phase.instructions:
                return cursor + phase.instructions - offset
            cursor += phase.instructions
        return self.app.phases[-1].instructions


def _measured(
    qos: float,
    phase: Phase,
    gauss: Optional[Callable[[float, float], float]],
    std: float,
) -> Tuple[float, Tuple[float, float, float]]:
    """An interval's measured QoS and its phase's counter signature.

    The signature is the configuration-independent fingerprint of the
    phase: cache-miss and branch-mispredict rates per committed
    instruction, which the runtime reads on any Slice over the Runtime
    Interface Network (Section III-B2) to recognize *which* phase is
    executing.  Each value carries the same measurement noise, drawn
    from ``gauss`` in this order, QoS first; None draws nothing.
    """
    if gauss is None:
        counters = (phase.mem_refs_per_inst, phase.l1_miss_rate, phase.mispredict_rate)
        return qos, counters
    return (
        max(qos * (1.0 + gauss(0.0, std)), 0.0),
        (
            max(phase.mem_refs_per_inst * (1.0 + gauss(0.0, std)), 0.0),
            max(phase.l1_miss_rate * (1.0 + gauss(0.0, std)), 0.0),
            max(phase.mispredict_rate * (1.0 + gauss(0.0, std)), 0.0),
        ),
    )


class _StallMemo(dict):
    """``transition_cycles(old, new)`` memoized per ``(old, new)`` pair.

    The cost model and both configurations are frozen values, so the
    memo is exact: each simulator pays for a distinct transition once.
    """

    def __init__(self, costs: ReconfigCostModel) -> None:
        super().__init__()
        self.costs = costs

    def __missing__(self, key: Tuple[VCoreConfig, VCoreConfig]) -> int:
        stall = self.costs.transition_cycles(*key)
        self[key] = stall
        return stall


class _LegTerms(dict):
    """``config -> (cost rate, phase -> IPC)``, built on a config's first leg.

    A configuration's cost rate is fixed, so it is computed once.  Its
    IPC lookup answers for the phase it is handed — the walker passes
    the phase it is in, and rounding can carry a leg's end past a
    phase boundary — from that phase's table, remembered per phase
    name on the fast path; the scalar twin asks the model every call.
    ``table_of(phase)`` is the owner's per-phase table handle (a
    simulator's, or a service tenant's admission-time tables); it is
    called only on the fast path, and only an
    :class:`OperatingPointTable` it returns is read.
    """

    def __init__(
        self,
        cost_model: CostModel,
        model: PerformanceModel,
        table_of: Callable[[Phase], object],
    ) -> None:
        super().__init__()
        self.cost_model = cost_model
        self.model = model
        self.table_of = table_of

    def __missing__(
        self, config: VCoreConfig
    ) -> Tuple[float, Callable[[Phase], float]]:
        terms = (config.cost_rate(self.cost_model), self._ipc_lookup(config))
        self[config] = terms
        return terms

    def _ipc_lookup(self, config: VCoreConfig) -> Callable[[Phase], float]:
        model, table_of = self.model, self.table_of
        by_phase: Dict[str, float] = {}

        def ipc_of(phase: Phase) -> float:
            if perf.FAST:
                ipc = by_phase.get(phase.name)
                if ipc is None:
                    table = table_of(phase)
                    if isinstance(table, OperatingPointTable):
                        ipc = table.get_ipc(config)
                    if ipc is None:
                        ipc = model.ipc(phase, config)
                    by_phase[phase.name] = ipc
                return ipc
            return model.ipc(phase, config)

        return ipc_of


class ThroughputSimulator:
    """Closed-loop simulation for throughput-QoS applications."""

    def __init__(
        self,
        app: PhasedApplication,
        qos_goal: float,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        reconfig_costs: ReconfigCostModel = DEFAULT_RECONFIG_COSTS,
        interval_cycles: float = 1.0e6,
        noise_std_frac: float = 0.02,
        violation_margin: float = 0.03,
        seed: int = 0,
    ) -> None:
        if app.qos_kind != "throughput":
            raise ValueError(
                f"{app.name} is a {app.qos_kind} application; use "
                "LatencySimulator"
            )
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        if interval_cycles <= 0:
            raise ValueError(
                f"interval_cycles must be positive, got {interval_cycles}"
            )
        if noise_std_frac < 0:
            raise ValueError(
                f"noise_std_frac must be non-negative, got {noise_std_frac}"
            )
        if not 0.0 <= violation_margin < 1.0:
            raise ValueError(
                f"violation_margin must be in [0, 1), got {violation_margin}"
            )
        self.app = app
        self.qos_goal = qos_goal
        self.model = model
        self.space = space
        self.cost_model = cost_model
        self.reconfig_costs = reconfig_costs
        self.interval_cycles = interval_cycles
        self.noise_std_frac = noise_std_frac
        self.violation_margin = violation_margin
        self.seed = seed
        self._points_cache: Dict[str, Sequence[ConfigPoint]] = {}
        self._stalls = _StallMemo(reconfig_costs)
        self._terms = _LegTerms(cost_model, model, self.true_points)

    def true_points(self, phase: Phase) -> Sequence[ConfigPoint]:
        cached = self._points_cache.get(phase.name)
        if cached is not None:
            return cached
        if perf.FAST:
            # The shared table carries the same points (bit-identical
            # speedups, same order) plus O(1) IPC lookup and a memoized
            # envelope for the oracle's per-interval LP.
            points: Sequence[ConfigPoint] = operating_point_table(
                phase, self.model, self.space, self.cost_model
            )
        else:
            points = [
                ConfigPoint(
                    config=config,
                    speedup=self.model.ipc(phase, config),
                    cost_rate=config.cost_rate(self.cost_model),
                )
                for config in self.space
            ]
        self._points_cache[phase.name] = points
        return points

    def run(
        self,
        allocator: Allocator,
        intervals: int = 1000,
        warmup_intervals: int = 0,
    ) -> RunResult:
        """Run ``intervals`` recorded samples, after an optional warmup.

        Warmup intervals execute identically (the allocator sees them
        and learns from them) but are not recorded — the paper's
        1000-sample measurements describe steady-state operation, after
        the runtime has seen the application's phases at least once.

        Each interval pays only for what differs between intervals: the
        walker remembers its phase, :meth:`_execute` reads each
        configuration's cost rate and IPC lookup from a per-config memo,
        and noise is drawn straight from the run's ``rng.gauss`` with the
        standard deviation read once (a non-positive one draws nothing).
        Draws keep their order: each executed leg in schedule order,
        then the measured QoS, then the three signature counters.
        """
        if intervals <= 0:
            raise ValueError(f"intervals must be positive, got {intervals}")
        if warmup_intervals < 0:
            raise ValueError(
                f"warmup_intervals must be non-negative, got {warmup_intervals}"
            )
        std = self.noise_std_frac
        gauss = None if std <= 0.0 else random.Random(self.seed).gauss
        walker = _PhaseWalker(self.app)
        floor = self.qos_goal * (1.0 - self.violation_margin)
        records: List[IntervalRecord] = []
        measurement: Optional[QoSMeasurement] = None
        current_config: Optional[VCoreConfig] = None
        cycle = 0.0
        for index in range(-warmup_intervals, intervals):
            _, phase = walker.current_phase()
            schedule = allocator.decide(measurement, self.true_points(phase))
            (
                true_qos,
                active_qos,
                cost_rate,
                legs,
                reconfig_cycles,
                current_config,
                actual_cycles,
            ) = self._execute(schedule, walker, current_config, gauss)
            measured, signature = _measured(true_qos, phase, gauss, std)
            if index >= 0:
                # Positional, in IntervalRecord's field order.
                records.append(
                    IntervalRecord(
                        index,
                        cycle,
                        phase.name,
                        schedule,
                        true_qos,
                        measured,
                        active_qos,
                        cost_rate,
                        true_qos < floor,
                        reconfig_cycles,
                        actual_cycles,
                    )
                )
                cycle += actual_cycles
            measurement = QoSMeasurement(measured, legs, signature)
        return RunResult(
            app_name=self.app.name,
            allocator_name=allocator.name,
            qos_goal=self.qos_goal,
            interval_cycles=self.interval_cycles,
            records=records,
        )

    def _execute(
        self,
        schedule: Schedule,
        walker: _PhaseWalker,
        current_config: Optional[VCoreConfig],
        gauss: Optional[Callable[[float, float], float]],
    ) -> Tuple[
        float,
        float,
        float,
        Tuple[LegObservation, ...],
        int,
        Optional[VCoreConfig],
        float,
    ]:
        """Run one interval's schedule; truncate it at a phase boundary.

        Ending the interval at phase boundaries keeps every sample
        within a single phase, mirroring the paper's per-phase oracle
        construction (Section V-C) — no sample mixes two phases, so
        violations reflect allocation decisions, not sampling artefacts.
        Each executed leg's measured QoS draws from ``gauss`` (None
        draws nothing).
        """
        std = self.noise_std_frac
        interval_cycles = self.interval_cycles
        terms = self._terms
        total_instructions = 0.0
        elapsed = 0.0
        busy_cycles = 0.0
        busy_instructions = 0.0
        dollars_time = 0.0  # Σ rate × cycles, normalized at the end
        legs: List[LegObservation] = []
        reconfig_total = 0
        crossed = False
        for entry in schedule.entries:
            if crossed:
                break
            leg_cycles = entry.fraction * interval_cycles
            if leg_cycles <= 0:
                continue
            config = entry.point.config
            if config is None:  # the idle point
                elapsed += leg_cycles
                legs.append(LegObservation(None, entry.fraction, 0.0))
                continue
            stall = 0
            if (
                current_config is not None
                and config is not current_config
                and config != current_config
            ):
                stall = min(self._stalls[current_config, config], int(leg_cycles))
            current_config = config
            cost_rate, ipc_of = terms[config]
            executed, used, crossed = walker.run_cycles(
                leg_cycles - stall, ipc_of, True
            )
            leg_total = used + stall
            elapsed += leg_total
            total_instructions += executed
            busy_cycles += leg_total
            busy_instructions += executed
            reconfig_total += stall
            dollars_time += cost_rate * leg_total
            leg_qos = executed / leg_total if leg_total > 0 else 0.0
            if gauss is not None:
                leg_qos = max(leg_qos * (1.0 + gauss(0.0, std)), 0.0)
            legs.append(LegObservation(config, entry.fraction, leg_qos))
        if elapsed < 1.0:  # max(elapsed, 1.0), without the call
            elapsed = 1.0
        true_qos = total_instructions / elapsed
        active_qos = busy_instructions / busy_cycles if busy_cycles > 0 else 0.0
        cost_rate = dollars_time / elapsed
        return (
            true_qos,
            active_qos,
            cost_rate,
            tuple(legs),
            reconfig_total,
            current_config,
            elapsed,
        )


class CASHAllocator:
    """Adapter presenting :class:`CASHRuntime` as a harness allocator."""

    name = "CASH"

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        qos_goal: float,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        base_config: Optional[VCoreConfig] = None,
        guard_band: float = 0.03,
        initial_base_qos: Optional[float] = None,
        seed: int = 0,
        **runtime_kwargs: object,
    ) -> None:
        if not 0.0 <= guard_band < 1.0:
            raise ValueError(f"guard_band must be in [0, 1), got {guard_band}")
        configs = list(configs)
        if base_config is None:
            base_config = min(configs, key=lambda c: (c.slices, c.l2_kb))
        if initial_base_qos is None:
            # The runtime starts with a conservative guess and lets the
            # Kalman filter converge (Section IV-B: base speed is never
            # measured directly).
            initial_base_qos = qos_goal / 2.0
        self.runtime = CASHRuntime(
            configs=configs,
            cost_rates=[c.cost_rate(cost_model) for c in configs],
            qos_goal=qos_goal * (1.0 + guard_band),
            base_config=base_config,
            initial_base_qos=initial_base_qos,
            seed=seed,
            **runtime_kwargs,
        )

    def decide(
        self,
        measurement: Optional[QoSMeasurement],
        true_points: Sequence[ConfigPoint],
    ) -> Schedule:
        # The CASH runtime never touches the true points: it acts only
        # on remote performance-counter feedback.
        decision = self.runtime.step(measurement)
        return decision.schedule


class _PhaseCapacities:
    """One phase's rate-independent latency operating points.

    The request rate only scales the capacity margin, so a phase's
    configurations, service capacities (requests/cycle) and cost rates
    are computed once and shared by every interval spent in the phase.
    The phase also holds the envelope chain's buffers: the capacities,
    and the keys, row 0 one interval's speeds and row 1 the cost rates.
    """

    __slots__ = (
        "configs",
        "capacities",
        "cost_rates",
        "positions",
        "non_negative",
        "capacity_buffer",
        "buffers",
    )

    def __init__(self, table: OperatingPointTable, per_request: float) -> None:
        self.configs = tuple(point.config for point in table)
        self.capacities = tuple(point.speedup / per_request for point in table)
        self.cost_rates = tuple(point.cost_rate for point in table)
        positions: Dict[VCoreConfig, int] = {}
        for position, config in enumerate(self.configs):
            positions.setdefault(config, position)
        self.positions = positions
        # ConfigPoint rejects a negative speedup or cost.  With no
        # negative capacity or cost here, every point of an interval
        # whose required capacity is positive passes that check.
        self.non_negative = not any(
            value < 0 for value in self.capacities + self.cost_rates
        )
        size = len(self.configs)
        self.capacity_buffer = np.array(self.capacities, dtype=np.float64)
        keys = np.zeros((2, size), dtype=np.float64)
        keys[1] = self.cost_rates
        self.buffers = native.EnvelopeBuffers(
            keys, np.zeros((2, size + 1), dtype=np.int64)
        )


class _CapacityPoints(Sequence[ConfigPoint]):
    """One latency interval's true points, built only when read.

    Iteration, ``len`` and indexing see exactly the eager list — the
    same ``capacity / required`` division, in table order — which is
    materialized at most once.  :meth:`envelope` and :meth:`point_for`
    answer the oracle and race-to-idle without it: the oracle builds a
    ``ConfigPoint`` per hull vertex and race builds one.
    """

    __slots__ = ("_phase", "_required", "_points")

    def __init__(self, phase: _PhaseCapacities, required: float) -> None:
        self._phase = phase
        self._required = required
        self._points: Optional[List[ConfigPoint]] = None

    def _materialized(self) -> List[ConfigPoint]:
        points = self._points
        if points is None:
            phase, required = self._phase, self._required
            points = [
                ConfigPoint(
                    config=config,
                    speedup=capacity / required,
                    cost_rate=cost_rate,
                )
                for config, capacity, cost_rate in zip(
                    phase.configs, phase.capacities, phase.cost_rates
                )
            ]
            self._points = points
        return points

    def __len__(self) -> int:
        return len(self._phase.configs)

    def __iter__(self) -> Iterator[ConfigPoint]:
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    def _point_at(self, position: int) -> ConfigPoint:
        phase = self._phase
        return ConfigPoint(
            config=phase.configs[position],
            speedup=phase.capacities[position] / self._required,
            cost_rate=phase.cost_rates[position],
        )

    def point_for(self, config: VCoreConfig) -> Optional[ConfigPoint]:
        """The first point carrying ``config``, or None."""
        position = self._phase.positions.get(config)
        return None if position is None else self._point_at(position)

    def envelope(self, idle: ConfigPoint = IDLE_POINT) -> tuple:
        """``(hull, best_at)`` as :func:`compute_envelope` builds it.

        :func:`_build_envelope` on the interval's speeds — the eager
        list's ``capacity / required``, divided into the phase's keys —
        and the phase's cost rates; ``best_at`` covers hull vertices
        only, each owned by the first position carrying it.
        """
        phase = self._phase
        speeds = phase.buffers.keys[0]
        np.divide(phase.capacity_buffer, self._required, out=speeds)
        return _build_envelope(phase.buffers, self._point_at, idle)


class LatencySimulator:
    """Closed-loop simulation for latency-QoS (server) applications.

    QoS is normalized inverse latency: ``q = target_latency / latency``,
    so the goal is 1.0 and higher is better — the same "higher is
    better" convention every allocator already speaks.  Request service
    follows an M/M/1-style model: service time is the per-request
    instruction count over the configuration's IPC, inflated by
    ``1/(1-ρ)`` queueing as utilization ρ rises with the request rate.
    Idle legs are executed on the cheapest configuration — a server can
    never fully vacate while requests may arrive.
    """

    LATENCY_CAP_FACTOR = 10.0

    # QoS metric: *capacity margin*.  The M/M/1 latency constraint
    # ``(1/μ)/(1 − λ/μ) ≤ L`` rearranges to ``μ ≥ λ + 1/L`` — linear in
    # the service capacity μ.  Defining q = μ / (λ + 1/L) therefore
    # makes q = 1 exactly the latency target, keeps "higher is better",
    # and — crucially — makes time-sharing linear in q, so the Eqn.-5
    # LP and its two-configuration solutions are exact for servers too.

    def __init__(
        self,
        app: PhasedApplication,
        load: OscillatingLoad | RequestTrace,
        target_latency_cycles: float,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        reconfig_costs: ReconfigCostModel = DEFAULT_RECONFIG_COSTS,
        interval_cycles: float = 1.0e7,
        cycles_per_second: float = 1.0e8,
        noise_std_frac: float = 0.02,
        violation_margin: float = 0.03,
        seed: int = 0,
    ) -> None:
        if app.qos_kind != "latency":
            raise ValueError(
                f"{app.name} is a {app.qos_kind} application; use "
                "ThroughputSimulator"
            )
        if target_latency_cycles <= 0:
            raise ValueError(
                f"target_latency_cycles must be positive, "
                f"got {target_latency_cycles}"
            )
        if cycles_per_second <= 0:
            raise ValueError(
                f"cycles_per_second must be positive, got {cycles_per_second}"
            )
        if interval_cycles <= 0:
            raise ValueError(
                f"interval_cycles must be positive, got {interval_cycles}"
            )
        if noise_std_frac < 0:
            raise ValueError(
                f"noise_std_frac must be non-negative, got {noise_std_frac}"
            )
        if not 0.0 <= violation_margin < 1.0:
            raise ValueError(
                f"violation_margin must be in [0, 1), got {violation_margin}"
            )
        self.app = app
        self.load = load
        self.target_latency = target_latency_cycles
        self.model = model
        self.space = space
        self.cost_model = cost_model
        self.reconfig_costs = reconfig_costs
        self.interval_cycles = interval_cycles
        self.cycles_per_second = cycles_per_second
        self.noise_std_frac = noise_std_frac
        self.violation_margin = violation_margin
        self.seed = seed
        self._cheapest = min(space, key=lambda c: c.cost_rate(cost_model))
        # Per-phase handles, resolved once like the throughput
        # simulator's ``_points_cache``: the operating-point table and
        # its rate-independent capacities.
        self._tables: Dict[str, OperatingPointTable] = {}
        self._capacity_cache: Dict[str, _PhaseCapacities] = {}
        self._stalls = _StallMemo(reconfig_costs)
        self._terms = _LegTerms(cost_model, model, self._table)

    def _table(self, phase: Phase) -> OperatingPointTable:
        table = self._tables.get(phase.name)
        if table is None:
            table = operating_point_table(
                phase, self.model, self.space, self.cost_model
            )
            self._tables[phase.name] = table
        return table

    def _capacity_entries(self, phase: Phase) -> _PhaseCapacities:
        cached = self._capacity_cache.get(phase.name)
        if cached is None:
            cached = _PhaseCapacities(
                self._table(phase), self.app.instructions_per_request
            )
            self._capacity_cache[phase.name] = cached
        return cached

    def service_capacity(self, phase: Phase, config: VCoreConfig) -> float:
        """Requests per cycle the configuration can serve in ``phase``.

        The IPC is served from the operating-point table when fast.
        """
        _, ipc_of = self._terms[config]
        return ipc_of(phase) / self.app.instructions_per_request

    def required_capacity(self, rate_per_second: float) -> float:
        """Capacity (requests/cycle) needed to hold the latency target."""
        arrivals = rate_per_second / self.cycles_per_second
        return arrivals + 1.0 / self.target_latency

    def latency_cycles(
        self, phase: Phase, config: VCoreConfig, rate_per_second: float
    ) -> float:
        """Mean request latency under the M/M/1-style model."""
        capacity = self.service_capacity(phase, config)
        arrivals = rate_per_second / self.cycles_per_second
        cap = self.LATENCY_CAP_FACTOR * self.target_latency
        if capacity <= arrivals:
            return cap
        return min(1.0 / (capacity - arrivals), cap)

    def qos_of(
        self, phase: Phase, config: VCoreConfig, rate_per_second: float
    ) -> float:
        """Capacity margin (goal = 1.0 ⇔ latency exactly at target)."""
        return self.service_capacity(phase, config) / self.required_capacity(
            rate_per_second
        )

    def true_points(
        self, phase: Phase, rate_per_second: float
    ) -> Sequence[ConfigPoint]:
        return self._points_at(
            phase, rate_per_second, self.required_capacity(rate_per_second)
        )

    def _points_at(
        self, phase: Phase, rate_per_second: float, required: float
    ) -> Sequence[ConfigPoint]:
        """:meth:`true_points`, given ``required_capacity(rate_per_second)``."""
        if perf.FAST:
            # capacity / required is the same division the scalar
            # ``qos_of`` performs, on the same capacity value, so each
            # point is bit-identical.  The view builds points only when
            # read; where some point could fail ConfigPoint's checks the
            # eager list is built instead, raising exactly as before.
            entries = self._capacity_entries(phase)
            view = _CapacityPoints(entries, required)
            if entries.non_negative and required > 0:
                return view
            return list(view)
        return [
            ConfigPoint(
                config=config,
                speedup=self.qos_of(phase, config, rate_per_second),
                cost_rate=config.cost_rate(self.cost_model),
            )
            for config in self.space
        ]

    def run(self, allocator: Allocator, intervals: int = 1000) -> RunResult:
        """Run ``intervals`` recorded samples of the server.

        Each interval computes the rate's required capacity once: every
        leg's QoS is its service rate over it (the two divisions
        :meth:`qos_of` performs), and so is the interval's.  Cost rates
        and IPC lookups come from a per-config memo, and noise is drawn
        straight from the run's ``rng.gauss`` with the standard
        deviation read once (a non-positive one draws nothing), in the
        order legs, measured QoS, signature.  A measurement is built
        once, at the start of the next interval, when its
        ``goal_scale`` — how far the capacity requirement moved — is
        known; the last interval's measurement is never read.
        """
        if intervals <= 0:
            raise ValueError(f"intervals must be positive, got {intervals}")
        std = self.noise_std_frac
        gauss = None if std <= 0.0 else random.Random(self.seed).gauss
        walker = _PhaseWalker(self.app)
        per_request = self.app.instructions_per_request
        interval_cycles = self.interval_cycles
        terms = self._terms
        stalls = self._stalls
        floor = 1.0 - self.violation_margin
        records: List[IntervalRecord] = []
        measurement: Optional[QoSMeasurement] = None
        # The previous interval's measured QoS, legs and signature, and
        # its required capacity.
        observed: Optional[tuple] = None
        previous_required = 0.0
        current_config: Optional[VCoreConfig] = None
        cycle = 0.0
        for index in range(intervals):
            _, phase = walker.current_phase()
            rate = self.load.rate_at(cycle)
            required = self.required_capacity(rate)
            if observed is not None:
                # The runtime reads arrival counters at decision time,
                # so it knows how the capacity requirement moved.
                measured, legs, signature = observed
                measurement = QoSMeasurement(
                    measured, legs, signature, required / previous_required
                )
            previous_required = required
            schedule = allocator.decide(
                measurement, self._points_at(phase, rate, required)
            )
            cost_rate = 0.0
            leg_list: List[LegObservation] = []
            reconfig_total = 0
            capacity = 0.0  # requests per cycle the schedule can serve
            for entry in schedule.entries:
                if entry.fraction <= 0:
                    continue
                point_config = entry.point.config
                config = (
                    point_config if point_config is not None else self._cheapest
                )
                stall = 0
                if (
                    current_config is not None
                    and config is not current_config
                    and config != current_config
                ):
                    stall = stalls[current_config, config]
                current_config = config
                leg_cycles = entry.fraction * interval_cycles
                stall_penalty = min(stall / max(leg_cycles, 1.0), 0.5)
                config_rate, ipc_of = terms[config]
                service_rate = ipc_of(phase) / per_request
                capacity += entry.fraction * service_rate * (1.0 - stall_penalty)
                leg_qos = service_rate / required * (1.0 - stall_penalty)
                if gauss is not None:
                    leg_qos = max(leg_qos * (1.0 + gauss(0.0, std)), 0.0)
                cost_rate += config_rate * entry.fraction
                reconfig_total += stall
                leg_list.append(
                    LegObservation(point_config, entry.fraction, leg_qos)
                )
            # Fluid model of the time-shared interval: requests arrive
            # continuously, so the schedule's average service capacity
            # is what bounds latency.  Time spent idle (or in slow
            # legs) does not average away — it stretches every queued
            # request.  The capacity-margin QoS makes this exact.
            total_qos = capacity / required
            # Advance the request-mix phase walker by the work actually
            # served this interval.
            served_rate = rate / self.cycles_per_second  # requests/cycle
            walker.offset += served_rate * interval_cycles * per_request
            measured, signature = _measured(total_qos, phase, gauss, std)
            records.append(
                IntervalRecord(
                    index=index,
                    start_cycle=cycle,
                    phase_name=phase.name,
                    schedule=schedule,
                    true_qos=total_qos,
                    measured_qos=measured,
                    active_qos=total_qos,
                    cost_rate=cost_rate,
                    violated=total_qos < floor,
                    reconfig_cycles=reconfig_total,
                    request_rate=rate,
                )
            )
            observed = (measured, tuple(leg_list), signature)
            cycle += interval_cycles
        return RunResult(
            app_name=self.app.name,
            allocator_name=allocator.name,
            qos_goal=1.0,
            interval_cycles=self.interval_cycles,
            records=records,
        )
