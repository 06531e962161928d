"""The provider service: one engine steps every tenant.

:class:`ServiceEngine` runs a traffic scenario's tenants
(:mod:`repro.cloud.traffic`) against one shared fabric.  Open-loop
churn and a closed tenant list are the same thing to it: a closed list
is the degenerate scenario of
:meth:`~repro.cloud.traffic.TrafficScenario.from_tenants`, one burst
per tenant over its residency, which
:class:`~repro.cloud.provider.CloudProvider` builds.

In every interval where a tenant has work, its allocator (its own
CASH runtime, or a race-to-idle reservation) decides a schedule
against the tenant's private phase trajectory; the engine resizes the
tenant's spatial allocation to the schedule's *peak footprint* (time
multiplexing within the quantum happens inside the tenant's own
tiles), defragmenting the fabric when a resize fails, and bills the
tenant by area-time while tracking its QoS.

The engine runs behind the usual FAST/scalar-twin discipline:

* **one min-heap of events.**  ``(interval, kind, tenant_id)`` entries
  — departures before arrivals before controller steps within an
  interval, ascending tenant id within a kind — reproduce exactly the
  order the dense reference loop visits tenants in, so both modes
  mutate the shared fabric identically.
* **controller updates only when there is work.**  A tenant's
  Kalman/Q-learning step runs only at intervals where its traffic
  queued work; between bursts the tenant is *parked* (its tiles
  released back to the fabric) and the engine jumps the clock over
  the gap.
* **convergence hibernation.**  A tenant whose schedule has been
  byte-identical for ``converged_after`` consecutive steps stops
  consulting its allocator (and drawing measurement noise) and replays
  the converged schedule until the phase changes or a ``reprobe_every``
  countdown fires — the same deterministic rule in both modes.
* **idle stretches skipped exactly.**  All per-interval accounting the
  dense twin accumulates (tenant-intervals, occupied tile-intervals)
  is kept in integers, so multiplying over a skipped stretch equals
  per-interval accumulation bit for bit; per-tenant noise streams are
  keyed by tenant id, so skipping one tenant never perturbs another.

The dense twin lives on as :meth:`ServiceEngine._run_dense_reference`
(scalar mode); fixed-seed reports are bit-identical in both modes.

A bounded ring / JSONL streaming metrics sink (:class:`MetricsSink`)
replaces end-of-run-only reporting over long simulated horizons, and
:meth:`ServiceEngine.run` advances in segments (``until=``) within one
process.
"""

from __future__ import annotations

import copy
import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.fabric import Allocation, Fabric, FabricError
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.baselines.race import RaceToIdleAllocator
from repro.cloud.admission import AdmissionController
from repro.cloud.tenant import Tenant
from repro.cloud.traffic import TenantTraffic, TrafficScenario
from repro.experiments.harness import (
    Allocator,
    CASHAllocator,
    _LegTerms,
    _PhaseWalker,
)
from repro.runtime.cash import LegObservation, QoSMeasurement
from repro.runtime.optimizer import ConfigPoint, Schedule, ScheduleEntry
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase

# Event kinds, ordered so a heap pop sequence within one interval
# matches the dense loop: departures, then arrivals, then steps.
_EVENT_DEPART = 0
_EVENT_ARRIVE = 1
_EVENT_STEP = 2


def build_tenant_allocator(
    tenant: Tenant,
    reservation: VCoreConfig,
    space: ConfigurationSpace,
    cost_model: CostModel,
) -> Allocator:
    """The allocator a tenant's policy selects, bounded by its reservation."""
    if tenant.policy == "race":
        return RaceToIdleAllocator(
            config=reservation,
            qos_goal=tenant.qos_goal,
            cost_model=cost_model,
        )
    # The tenant's menu is bounded by its admitted reservation.
    # Admission caps the sum of reservations at each tile kind's
    # total times the overcommit factor, so at overcommit 1 every
    # configuration within the reservation is placeable.  Above 1 the
    # tenants' peaks can outgrow a kind's free count; ``Fabric.
    # allocate`` then fails (a short free count is the only way it
    # fails), and defragmentation cannot change a count.  Bursting
    # beyond the reservation when the fabric has slack is a possible
    # extension.
    menu = [
        config
        for config in space
        if config.slices <= reservation.slices
        and config.l2_banks <= reservation.l2_banks
    ]
    return CASHAllocator(
        configs=menu,
        qos_goal=tenant.qos_goal,
        cost_model=cost_model,
        seed=tenant.tenant_id,
    )


@dataclass
class ServiceAccount:
    """Per-tenant billing and QoS bookkeeping (integer-first).

    Footprint area is accumulated as an integer tile total, not a
    per-interval list, so a million-interval tenant costs O(1) memory
    and stretch accounting stays exact.
    """

    tenant_id: int
    active_intervals: int = 0
    violations: int = 0
    dollars_time: float = 0.0  # Σ mean $/hr over active intervals
    waiting_intervals: int = 0
    footprint_tiles: int = 0  # Σ peak-footprint tiles over active intervals

    @property
    def intervals(self) -> int:
        """Read-only alias of :attr:`active_intervals`, for readers that
        count a closed-list tenant's steps as ``account.intervals``."""
        return self.active_intervals

    @property
    def violation_percent(self) -> float:
        if self.active_intervals <= 0:
            return 0.0
        return 100.0 * self.violations / self.active_intervals

    @property
    def mean_cost_rate(self) -> float:
        if self.active_intervals <= 0:
            return 0.0
        return self.dollars_time / self.active_intervals

    @property
    def mean_footprint_tiles(self) -> float:
        if self.active_intervals <= 0:
            return 0.0
        return self.footprint_tiles / self.active_intervals


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate outcome of a service run (or a prefix of one)."""

    intervals: int
    admitted: int
    rejected: int
    accounts: Dict[int, ServiceAccount]
    tenant_intervals: int
    """Σ over simulated intervals of the resident-tenant count — the
    work a loop stepping every resident every interval would iterate,
    and the throughput unit (tenant-intervals/second) the benchmarks
    report."""
    active_steps: int
    """Controller steps actually executed (tenant active)."""
    decide_steps: int
    """Steps that consulted the allocator (not hibernation replays)."""
    utilization_tile_intervals: int
    fabric_tiles: int
    defragmentations: int

    @property
    def mean_utilization(self) -> float:
        denom = self.fabric_tiles * self.intervals
        if denom <= 0:
            return 0.0
        return self.utilization_tile_intervals / denom

    @property
    def revenue_rate(self) -> float:
        """Mean $/hour billed across the run (the provider's income)."""
        if self.intervals <= 0:
            return 0.0
        total = 0.0
        for tenant_id in sorted(self.accounts):
            total += self.accounts[tenant_id].dollars_time
        return total / self.intervals

    @property
    def mean_violation_percent(self) -> float:
        percents = [
            self.accounts[tenant_id].violation_percent
            for tenant_id in sorted(self.accounts)
            if self.accounts[tenant_id].active_intervals > 0
        ]
        if not percents:
            return 0.0
        return sum(percents) / len(percents)


@dataclass(eq=False)
class MetricsSink:
    """Streaming metric export: a bounded in-memory ring, plus JSONL.

    The engine emits one record per *eventful* interval (and one per
    skipped stretch in event mode), so observability never requires
    holding a full run's history: the ring keeps the trailing window
    and the optional JSONL file streams everything.
    """

    capacity: int = 4096
    jsonl_path: Optional[str] = None
    records: Deque[Dict[str, object]] = field(init=False)
    emitted: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        self.records = deque(maxlen=self.capacity)

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)
        self.emitted += 1
        if self.jsonl_path is not None:
            with open(self.jsonl_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass
class _ServiceResident:
    """A tenant currently admitted to the service."""

    traffic: TenantTraffic
    allocator: Allocator
    walker: _PhaseWalker
    account: ServiceAccount
    rng: random.Random
    """The tenant's private measurement-noise stream.  Keyed by tenant
    id (not shared fleet-wide) so skipping other tenants' idle
    intervals cannot shift this one's draws — the property the whole
    event engine rests on."""
    gauss: Optional[Callable[[float, float], float]]
    """``rng.gauss``, bound at admission, or None when the engine draws
    no noise (``noise_std_frac <= 0``)."""
    terms: _LegTerms
    """``config -> (cost rate, phase -> IPC)`` for the tenant's legs,
    filled on each configuration's first leg (the harness's memo).  Its
    IPC lookup reads :attr:`tables` by phase name under FAST; the
    scalar twin asks the model on every call."""
    measurement: Optional[QoSMeasurement] = None
    last_schedule: Optional[Schedule] = None
    stable_steps: int = 0
    hibernating: bool = False
    hibernation_phase: Optional[str] = None
    probe_countdown: int = 0
    parked_allocation: Optional[Allocation] = None
    """The exact region released at the last park, kept so the next
    burst can re-seat on the same tiles in O(region) instead of paying
    the fabric's seed search again."""
    tables: Dict[str, OperatingPointTable] = field(default_factory=dict)
    """The tenant's operating-point tables by phase name, resolved at
    admission under FAST (empty in the scalar twin, which asks the
    model every step).  A step reads its phase's table here instead of
    looking it up in the process-wide cache."""


#: The tenants stepped in one interval, each paired with its next
#: active interval after it (None when its traffic has no more work).
_Stepped = List[Tuple[_ServiceResident, Optional[int]]]


def _noise_stream(seed: int, tenant_id: int) -> random.Random:
    """Per-tenant noise RNG, independent of the traffic streams."""
    return random.Random(
        (seed * 2_654_435_761 + 97_531 * (tenant_id + 1) + 0xC0FFEE) & (2**63 - 1)
    )


class ServiceEngine:
    """Runs a traffic scenario's tenants against one shared fabric.

    Under :data:`repro.perf.FAST` the engine is event-driven; with fast
    paths disabled it runs the dense scalar reference loop.  A single
    engine instance sticks with whichever mode its first ``run`` used
    (mixing them mid-horizon would be meaningless); fresh engines built
    from the same scenario produce bit-identical reports in either
    mode.

    Both modes run one step loop, :meth:`_step_tenant`, which pays per
    step only for what changes between steps: at admission each tenant
    gets its phase tables, a leg memo (``config -> (cost rate, phase
    -> IPC)``, the harness's ``_LegTerms``) and its noise stream's
    bound ``gauss``, and the loop that steps a tenant hands its next
    active interval on to the parking decision.
    """

    def __init__(
        self,
        scenario: TrafficScenario,
        fabric: Optional[Fabric] = None,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        interval_cycles: float = 2.5e5,
        noise_std_frac: float = 0.02,
        violation_margin: float = 0.03,
        overcommit: float = 1.0,
        noise_seed: Optional[int] = None,
        converged_after: int = 12,
        reprobe_every: int = 48,
        metrics: Optional[MetricsSink] = None,
    ) -> None:
        if converged_after < 0:
            raise ValueError(
                f"converged_after must be non-negative, got {converged_after}"
            )
        if reprobe_every <= 0:
            raise ValueError(
                f"reprobe_every must be positive, got {reprobe_every}"
            )
        self.scenario = scenario
        self.fabric = fabric if fabric is not None else Fabric(width=24, height=24)
        self.model = model
        self.space = space
        self.cost_model = cost_model
        self.interval_cycles = interval_cycles
        self.noise_std_frac = noise_std_frac
        self.violation_margin = violation_margin
        self.converged_after = converged_after
        self.reprobe_every = reprobe_every
        self.metrics = metrics
        self.noise_seed = (
            scenario.spec.seed if noise_seed is None else noise_seed
        )
        self.admission = AdmissionController(
            self.fabric, model, space, overcommit=overcommit
        )
        self.defragmentations = 0
        self._residents: Dict[int, _ServiceResident] = {}
        self._shrink_streaks: Dict[int, int] = {}
        self._settled: Dict[int, ServiceAccount] = {}
        self._admitted = 0
        self._rejected = 0
        self._cursor = 0  # next interval to simulate
        self._mode: Optional[str] = None
        self._tenant_intervals = 0
        self._util_tile_intervals = 0
        self._active_steps = 0
        self._decide_steps = 0
        self._open_violations = 0  # reset at every interval close
        self._open_dollars = 0.0
        # Arrival stream, ascending (arrival_interval, tenant_id).  The
        # dense twin drains it through a cursor; the event twin seeds
        # its heap from the un-drained suffix on first use.
        self._arrivals: List[TenantTraffic] = sorted(
            scenario.tenants,
            key=lambda t: (t.tenant.arrival_interval, t.tenant.tenant_id),
        )
        self._arrival_cursor = 0
        self._traffic_by_id: Dict[int, TenantTraffic] = {
            t.tenant.tenant_id: t for t in scenario.tenants
        }
        self._heap: List[Tuple[int, int, int]] = []
        self._heap_primed = False

    # ------------------------------------------------------------------
    # admission / settlement
    # ------------------------------------------------------------------
    def _admit(self, traffic: TenantTraffic) -> bool:
        tenant = traffic.tenant
        decision = self.admission.request(tenant)
        if not decision.admitted or decision.reservation is None:
            self._rejected += 1
            return False
        self._admitted += 1
        tables: Dict[str, OperatingPointTable] = {}
        if perf.FAST:
            # Resolve the tenant's phase tables once, at admission, and
            # keep them on the resident: each step then reads its
            # phase's table by name instead of hashing a value key in
            # the process-wide cache.  Tables are value-keyed and
            # sealed, so this changes when a table is looked up, never
            # what a step reads.
            for phase in tenant.app.phases:
                tables[phase.name] = operating_point_table(
                    phase, self.model, self.space, self.cost_model
                )
            # PhasedApplication rejects repeated phase names, so the
            # name keys every phase's table.
            assert len(tables) == len(tenant.app.phases)
        rng = _noise_stream(self.noise_seed, tenant.tenant_id)
        self._residents[tenant.tenant_id] = _ServiceResident(
            traffic=traffic,
            allocator=build_tenant_allocator(
                tenant, decision.reservation, self.space, self.cost_model
            ),
            walker=_PhaseWalker(tenant.app),
            account=ServiceAccount(tenant_id=tenant.tenant_id),
            rng=rng,
            gauss=None if self.noise_std_frac <= 0.0 else rng.gauss,
            # The lookup runs only under FAST, where ``tables`` holds
            # every phase of the tenant's application.
            terms=_LegTerms(
                self.cost_model, self.model, lambda phase: tables[phase.name]
            ),
            tables=tables,
        )
        return True

    def _settle(self, tenant_id: int) -> None:
        resident = self._residents.pop(tenant_id)
        self._settled[tenant_id] = resident.account
        self.admission.release(tenant_id)
        if self.fabric.has_allocation(tenant_id):
            self.fabric.release(tenant_id)
        self._shrink_streaks.pop(tenant_id, None)

    # ------------------------------------------------------------------
    # per-step machinery (one code path, run unchanged by both engine
    # modes; what a step reads per tenant is resolved at admission)
    # ------------------------------------------------------------------
    def _true_points(
        self, resident: _ServiceResident, phase: Phase
    ) -> Sequence[ConfigPoint]:
        if perf.FAST:
            # The admission-time table carries the same points
            # (bit-identical speedups, same order); every tenant in the
            # same phase of the same application shares one table.
            return resident.tables[phase.name]
        return [
            ConfigPoint(
                config=config,
                speedup=self.model.ipc(phase, config),
                cost_rate=config.cost_rate(self.cost_model),
            )
            for config in self.space
        ]

    def _peak_footprint(self, schedule: Schedule) -> Optional[VCoreConfig]:
        """The schedule's configuration with the most tiles, the first
        of equals (the one ``max`` picks), or None when every leg idles."""
        peak: Optional[VCoreConfig] = None
        peak_tiles = 0
        for entry in schedule.entries:
            config = entry.point.config
            if config is not None and config.tiles > peak_tiles:
                peak = config
                peak_tiles = config.tiles
        return peak

    def _place(self, tenant_id: int, config: VCoreConfig) -> bool:
        """Ensure the tenant's allocation can host ``config``.

        Placement hysteresis: a held allocation that is a superset of
        the request hosts it in place (the runtime reshapes *within*
        the tenant's tiles, which costs nothing at the fabric level);
        the allocation grows on demand and shrinks only when the
        request has been much smaller than the holding for a while —
        resizing the spatial allocation every interval would churn the
        fabric into fragmentation.  Whether the holding hosts the
        request is decided once and serves both the hysteresis and the
        growth test.
        """
        current = self.fabric.allocation_for(tenant_id)
        hosts = False
        if current is not None:
            held = current.config
            hosts = (
                held.slices >= config.slices and held.l2_banks >= config.l2_banks
            )
            if hosts:
                shrink_streak = self._shrink_streaks.get(tenant_id, 0)
                if config.tiles < 0.5 * held.tiles:
                    shrink_streak += 1
                else:
                    shrink_streak = 0
                self._shrink_streaks[tenant_id] = shrink_streak
                if shrink_streak < 8:
                    return True
                # Sustained small footprint: release the slack.
                self._shrink_streaks[tenant_id] = 0
        target = config
        if current is not None and not hosts:
            # Growing: take the component-wise maximum so the tenant
            # keeps hosting its smaller legs too.
            target = VCoreConfig(
                slices=max(current.config.slices, config.slices),
                l2_kb=max(current.config.l2_kb, config.l2_kb),
            )
        try:
            if current is None:
                self.fabric.allocate(tenant_id, target)
            else:
                self.fabric.reallocate(tenant_id, target)
            return True
        except FabricError:
            # The fabric refuses only when a tile kind's free count is
            # short (growth walks through occupied tiles), and
            # rescheduling everyone (Section III-A) cannot change a free
            # count, so this retry never succeeds.  It stays because the
            # defragmentation moves tiles that later exact re-seats
            # read: dropping it would change seeded outputs.
            self.defragmentations += 1
            try:
                self.fabric.defragment()
                if self.fabric.has_allocation(tenant_id):
                    self.fabric.reallocate(tenant_id, target)
                else:
                    self.fabric.allocate(tenant_id, target)
                return True
            except FabricError:
                # The resize failed.  ``reallocate`` releases before it
                # allocates, so the tenant holds no tiles by now and
                # this returns False.
                held_now = self.fabric.allocation_for(tenant_id)
                return held_now is not None and (
                    held_now.config.slices >= config.slices
                    and held_now.config.l2_banks >= config.l2_banks
                )

    def _decide(
        self, resident: _ServiceResident, phase: Phase
    ) -> Tuple[Schedule, bool]:
        """The step's schedule, and whether it was a hibernation replay.

        Hibernation is purely deterministic: a schedule repeated for
        ``converged_after`` consecutive steps is replayed — skipping
        the allocator *and* the measurement-noise draws — until the
        phase changes or the reprobe countdown expires.  Both engine
        modes run this exact code, so they replay the exact same steps.
        """
        if resident.hibernating:
            _, current = resident.walker.current_phase()
            if current.name != resident.hibernation_phase:
                resident.hibernating = False
                resident.stable_steps = 0
            elif resident.probe_countdown <= 0:
                resident.hibernating = False
                resident.stable_steps = 0
            else:
                resident.probe_countdown -= 1
                assert resident.last_schedule is not None
                return resident.last_schedule, True
        self._decide_steps += 1
        points = self._true_points(resident, phase)
        schedule = resident.allocator.decide(resident.measurement, points)
        if resident.last_schedule is not None and schedule == resident.last_schedule:
            resident.stable_steps += 1
        else:
            resident.stable_steps = 0
        resident.last_schedule = schedule
        if 0 < self.converged_after <= resident.stable_steps:
            resident.hibernating = True
            resident.hibernation_phase = phase.name
            resident.probe_countdown = self.reprobe_every
        return schedule, False

    def _step_tenant(self, resident: _ServiceResident) -> None:
        """One control interval for one active tenant.

        The allocator decides a schedule (or a hibernation replay
        repeats the converged one, skipping the allocator and the
        noise draws alike), the tenant's allocation is resized to the
        schedule's peak footprint, and the legs run on the tenant's
        phase walker, one ``run_cycles`` call per executed leg, with
        the cost rate and IPC lookup its configuration's entry in the
        tenant's leg memo holds.  Measurement noise comes from the
        tenant's bound ``gauss``, in this order: each executed leg's
        QoS in schedule order, the phase's three signature counters,
        then the interval's overall QoS.  Parking a tenant whose burst
        ends here is left to :meth:`_close_interval`, after this
        interval's occupancy is sampled.
        """
        self._active_steps += 1
        tenant = resident.traffic.tenant
        account = resident.account
        walker = resident.walker
        _, phase = walker.current_phase()
        schedule, replayed = self._decide(resident, phase)
        self._unpark(resident)

        footprint = self._peak_footprint(schedule)
        placed = footprint is None or self._place(tenant.tenant_id, footprint)
        if not placed:
            # Capacity squeeze: keep whatever allocation the tenant
            # already holds and run the quantum there (degraded
            # service, honestly measured), or wait if it holds nothing.
            existing = self.fabric.allocation_for(tenant.tenant_id)
            if existing is None:
                account.waiting_intervals += 1
                account.active_intervals += 1
                account.violations += 1
                self._open_violations += 1
                if not replayed:
                    resident.measurement = QoSMeasurement(
                        overall_qos=0.0, legs=(), signature=()
                    )
                return
            account.waiting_intervals += 1
            held = ConfigPoint(
                config=existing.config,
                speedup=0.0,
                cost_rate=existing.config.cost_rate(self.cost_model),
            )
            schedule = Schedule(entries=(ScheduleEntry(held, 1.0),))
            footprint = existing.config

        # Execute the legs, ending the interval at a phase boundary so
        # no measurement (or its counter signature) mixes two phases —
        # the same discipline as the single-tenant harness.
        gauss = resident.gauss
        std = self.noise_std_frac
        interval_cycles = self.interval_cycles
        terms = resident.terms
        total_instructions = 0.0
        elapsed = 0.0
        dollars_time = 0.0  # Σ rate × cycles
        legs: List[LegObservation] = []
        crossed = False
        for entry in schedule.entries:
            if crossed or entry.fraction <= 0:
                continue
            leg_cycles = entry.fraction * interval_cycles
            config = entry.point.config
            if config is None:  # the idle point
                elapsed += leg_cycles
                if not replayed:
                    legs.append(LegObservation(None, entry.fraction, 0.0))
                continue
            cost_rate, ipc_of = terms[config]
            executed, used, crossed = walker.run_cycles(leg_cycles, ipc_of, True)
            total_instructions += executed
            elapsed += used
            dollars_time += cost_rate * used
            if not replayed:
                leg_qos = executed / used if used > 0 else 0.0
                if gauss is not None:
                    leg_qos = max(leg_qos * (1.0 + gauss(0.0, std)), 0.0)
                legs.append(LegObservation(config, entry.fraction, leg_qos))
        if elapsed < 1.0:  # max(elapsed, 1.0), without the call
            elapsed = 1.0
        dollars = dollars_time / elapsed  # mean $/hr over the interval
        true_qos = total_instructions / elapsed
        if not replayed:
            if gauss is None:
                signature = (
                    phase.mem_refs_per_inst,
                    phase.l1_miss_rate,
                    phase.mispredict_rate,
                )
                overall_qos = true_qos
            else:
                signature = (
                    max(phase.mem_refs_per_inst * (1.0 + gauss(0.0, std)), 0.0),
                    max(phase.l1_miss_rate * (1.0 + gauss(0.0, std)), 0.0),
                    max(phase.mispredict_rate * (1.0 + gauss(0.0, std)), 0.0),
                )
                overall_qos = max(true_qos * (1.0 + gauss(0.0, std)), 0.0)
            resident.measurement = QoSMeasurement(
                overall_qos, tuple(legs), signature
            )
        account.active_intervals += 1
        account.dollars_time += dollars
        self._open_dollars += dollars
        if footprint is not None:
            account.footprint_tiles += footprint.tiles
        if true_qos < tenant.qos_goal * (1.0 - self.violation_margin):
            account.violations += 1
            self._open_violations += 1

    def _park_if_idle(
        self, resident: _ServiceResident, interval: int, wake: Optional[int]
    ) -> None:
        """Release the tenant's tiles when its burst just ended.

        ``wake`` is the tenant's next active interval at or after
        ``interval + 1`` (None if it has no more work), which the engine
        computed when it stepped the tenant.  No work queued for the
        next interval means the spatial allocation would sit occupied
        doing nothing; parking returns it to the fabric so other
        tenants (and the utilization metric) see the slack.  The
        reservation stays — admission is a contract.
        """
        if wake == interval + 1:
            return  # burst continues
        tenant_id = resident.traffic.tenant.tenant_id
        current = self.fabric.allocation_for(tenant_id)
        if current is not None:
            resident.parked_allocation = current
            self.fabric.release(tenant_id)
        self._shrink_streaks.pop(tenant_id, None)

    def _unpark(self, resident: _ServiceResident) -> None:
        """Re-seat a parked tenant on its old tiles when they are free.

        Falls through silently when the region was taken (or the
        tenant holds an allocation already): the regular placement path
        then runs the full seed search.  Both engine modes execute this
        identically, so placement stays bit-identical.
        """
        parked = resident.parked_allocation
        if parked is None:
            return
        resident.parked_allocation = None
        if self.fabric.has_allocation(parked.vcore_id):
            return
        self.fabric.try_allocate_exact(parked)

    # ------------------------------------------------------------------
    # interval accounting (integer, stretch-exact)
    # ------------------------------------------------------------------
    def _close_interval(self, interval: int, stepped: _Stepped) -> None:
        """Account one eventful interval, then park the tenants in
        ``stepped`` whose burst ended with it.

        ``stepped`` pairs each tenant stepped in ``interval`` with its
        next active interval after it (see :meth:`_park_if_idle`).
        Parking follows the occupancy sample: a tenant whose burst ends
        at ``interval`` ran in it, so its tiles count toward this
        interval's utilization.
        """
        residents = len(self._residents)
        self._tenant_intervals += residents
        occupied = self.fabric.occupied_tiles()
        self._util_tile_intervals += occupied
        if self.metrics is not None:
            self.metrics.emit(
                {
                    "kind": "interval",
                    "interval": interval,
                    "residents": residents,
                    "steps": len(stepped),
                    "occupied": occupied,
                    "violations": self._open_violations,
                    "revenue": self._open_dollars,
                }
            )
        self._open_violations = 0
        self._open_dollars = 0.0
        for resident, wake in stepped:
            self._park_if_idle(resident, interval, wake)

    def _account_stretch(self, start: int, end: int) -> None:
        """Account ``[start, end)`` — a span with no events — exactly."""
        if end <= start:
            return
        span = end - start
        residents = len(self._residents)
        occupied = self.fabric.occupied_tiles()
        self._tenant_intervals += residents * span
        self._util_tile_intervals += occupied * span
        if self.metrics is not None:
            self.metrics.emit(
                {
                    "kind": "stretch",
                    "start": start,
                    "end": end,
                    "residents": residents,
                    "occupied": occupied,
                }
            )

    # ------------------------------------------------------------------
    # the two engine modes
    # ------------------------------------------------------------------
    def _prime_heap(self) -> None:
        if self._heap_primed:
            return
        for traffic in self._arrivals[self._arrival_cursor :]:
            self._heap.append(
                (
                    traffic.tenant.arrival_interval,
                    _EVENT_ARRIVE,
                    traffic.tenant.tenant_id,
                )
            )
        self._arrival_cursor = len(self._arrivals)
        heapq.heapify(self._heap)
        self._heap_primed = True

    def _run_event_driven(self, until: int) -> None:
        self._prime_heap()
        heap = self._heap
        cursor = self._cursor
        while cursor < until:
            if not heap or heap[0][0] >= until:
                self._account_stretch(cursor, until)
                return
            interval = heap[0][0]
            if interval > cursor:
                self._account_stretch(cursor, interval)
                cursor = interval
            stepped: _Stepped = []
            while heap and heap[0][0] == interval:
                _, kind, tenant_id = heapq.heappop(heap)
                if kind == _EVENT_DEPART:
                    if tenant_id in self._residents:
                        self._settle(tenant_id)
                elif kind == _EVENT_ARRIVE:
                    traffic = self._traffic_by_id[tenant_id]
                    if self._admit(traffic):
                        departure = traffic.tenant.departure_interval
                        if departure is not None:
                            heapq.heappush(
                                heap, (departure, _EVENT_DEPART, tenant_id)
                            )
                        wake = traffic.next_active(interval)
                        if wake is not None:
                            heapq.heappush(
                                heap, (wake, _EVENT_STEP, tenant_id)
                            )
                else:  # _EVENT_STEP
                    resident = self._residents.get(tenant_id)
                    if resident is None:
                        continue  # departed this very interval
                    self._step_tenant(resident)
                    wake = resident.traffic.next_active(interval + 1)
                    stepped.append((resident, wake))
                    if wake is not None:
                        heapq.heappush(heap, (wake, _EVENT_STEP, tenant_id))
            self._close_interval(interval, stepped)
            cursor = interval + 1

    def _run_dense_reference(self, until: int) -> None:
        """The scalar twin: visit every interval, scan every tenant."""
        for interval in range(self._cursor, until):
            # Departures first (ascending tenant id) ...
            for tenant_id in sorted(self._residents):
                resident = self._residents[tenant_id]
                departure = resident.traffic.tenant.departure_interval
                if departure is not None and interval >= departure:
                    self._settle(tenant_id)
            # ... then arrivals (the stream ascends by interval and id) ...
            while self._arrival_cursor < len(self._arrivals):
                traffic = self._arrivals[self._arrival_cursor]
                if traffic.tenant.arrival_interval > interval:
                    break
                self._arrival_cursor += 1
                self._admit(traffic)
            # ... then a controller step for every tenant with work.
            stepped: _Stepped = []
            for tenant_id in sorted(self._residents):
                resident = self._residents[tenant_id]
                if resident.traffic.is_active(interval):
                    self._step_tenant(resident)
                    stepped.append(
                        (resident, resident.traffic.next_active(interval + 1))
                    )
            self._close_interval(interval, stepped)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> ServiceReport:
        """Advance the service to ``until`` (default: the full horizon).

        Resumable: successive calls continue where the previous one
        stopped, identically to an engine that never paused, provided
        every call runs in the same engine mode.
        """
        horizon = self.scenario.spec.horizon
        target = horizon if until is None else until
        if target > horizon:
            raise ValueError(
                f"until={target} exceeds the scenario horizon {horizon}"
            )
        if target < self._cursor:
            raise ValueError(
                f"cannot run backwards: at interval {self._cursor}, "
                f"asked for {target}"
            )
        mode = "event" if perf.FAST else "dense"
        if self._mode is None:
            self._mode = mode
        elif self._mode != mode:
            raise RuntimeError(
                f"engine already ran in {self._mode} mode; "
                f"cannot continue in {mode} mode"
            )
        if perf.FAST:
            self._run_event_driven(target)
        else:
            self._run_dense_reference(target)
        self._cursor = target
        return self.report()

    def report(self) -> ServiceReport:
        """A snapshot report of everything simulated so far."""
        accounts: Dict[int, ServiceAccount] = {}
        settled_ids = sorted(self._settled)
        for tenant_id in settled_ids:
            accounts[tenant_id] = copy.copy(self._settled[tenant_id])
        resident_ids = sorted(self._residents)
        for tenant_id in resident_ids:
            accounts[tenant_id] = copy.copy(self._residents[tenant_id].account)
        return ServiceReport(
            intervals=self._cursor,
            admitted=self._admitted,
            rejected=self._rejected,
            accounts=accounts,
            tenant_intervals=self._tenant_intervals,
            active_steps=self._active_steps,
            decide_steps=self._decide_steps,
            utilization_tile_intervals=self._util_tile_intervals,
            fabric_tiles=len(self.fabric.tiles),
            defragmentations=self.defragmentations,
        )
