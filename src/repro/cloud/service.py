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

One interval loop runs in both engine modes:

* **wake buckets.**  Each interval first settles the tenants due to
  depart at it, then admits its arrivals, then steps the tenants whose
  traffic has work at it.  Departures and wakes are filed by interval,
  each bucket in ascending tenant id, when a tenant is admitted and,
  for wakes, each time it is stepped, so no interval scans the
  residents.
* **controller updates only when there is work.**  A tenant's
  Kalman/Q-learning step runs only at intervals where its traffic
  queued work; between bursts the tenant is *parked* (its tiles
  released back to the fabric) and holds no wake until its next burst.
* **convergence hibernation.**  A tenant whose schedule has been
  byte-identical for ``converged_after`` consecutive steps stops
  consulting its allocator (and drawing measurement noise) and replays
  the converged schedule until the phase changes or a ``reprobe_every``
  countdown fires.
* **integer accounting.**  Tenant-intervals and occupied tile-intervals
  are kept in integers, and per-tenant noise streams are keyed by
  tenant id, so stepping one tenant never perturbs another's draws.

Fixed-seed reports are bit-identical with the fast paths on or off
(the fabric, admission, noise and operating-point tables choose
between their fast paths and scalar twins; the loop does not), and
:meth:`ServiceEngine.run` advances in segments (``until=``) within one
process.
"""

from __future__ import annotations

import copy
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, DefaultDict, Dict, List, Optional, Tuple

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
    NoiseStream,
    _LegTerms,
    _PhaseWalker,
)
from repro.runtime.cash import LegObservation, QoSMeasurement
from repro.runtime.optimizer import ConfigPoint, Schedule, ScheduleEntry
from repro.sim.optables import OperatingPointTable, operating_point_table
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase

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
    per-interval list, so a million-interval tenant costs O(1) memory.
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
        """Mean of the active tenants' violation percentages, added
        left to right in tenant order (not with builtin ``sum()``, whose
        rounding CPython 3.12 changed)."""
        total = 0.0
        active = 0
        for tenant_id in sorted(self.accounts):
            account = self.accounts[tenant_id]
            if account.active_intervals > 0:
                total += account.violation_percent
                active += 1
        if not active:
            return 0.0
        return total / active


@dataclass
class _ServiceResident:
    """A tenant currently admitted to the service."""

    traffic: TenantTraffic
    allocator: Allocator
    walker: _PhaseWalker
    account: ServiceAccount
    noise: NoiseStream
    """The tenant's private measurement-noise stream.  Keyed by tenant
    id (not shared fleet-wide), so no other tenant's steps or
    hibernation replays shift this one's draws."""
    draw: Optional[Callable[[], float]]
    """``noise.draw``, bound at admission, or None when the engine draws
    no noise (``noise_std_frac <= 0``)."""
    terms: _LegTerms
    """``config -> (cost rate, phase -> IPC)`` for the tenant's legs,
    filled on each configuration's first leg (the harness's memo).  Its
    IPC lookup reads :attr:`tables` by phase name."""
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
    admission in both engine modes (with the fast paths off
    :func:`~repro.sim.optables.operating_point_table` builds them with
    the scalar loop).  A step's allocator and its legs read its phase's
    table here instead of looking it up again."""


#: The tenants stepped in one interval, each paired with its next
#: active interval after it (None when its traffic has no more work).
_Stepped = List[Tuple[_ServiceResident, Optional[int]]]


def _noise_stream(seed: int, tenant_id: int) -> NoiseStream:
    """Per-tenant noise stream, independent of the traffic streams."""
    return NoiseStream(
        (seed * 2_654_435_761 + 97_531 * (tenant_id + 1) + 0xC0FFEE) & (2**63 - 1)
    )


class ServiceEngine:
    """Runs a traffic scenario's tenants against one shared fabric.

    :meth:`run` visits every interval in one loop,
    :meth:`_run_intervals`, in both engine modes; fresh engines built
    from the same scenario produce bit-identical reports with the fast
    paths on or off.  Its step, :meth:`_step_tenant`, pays per step
    only for what changes between steps: at admission each tenant gets
    its phase tables, a leg memo (``config -> (cost rate, phase ->
    IPC)``, the harness's ``_LegTerms``) and its noise stream's bound
    ``draw``, and the loop that steps a tenant hands its next active
    interval on to the parking decision.
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
        self._tenant_intervals = 0
        self._util_tile_intervals = 0
        self._active_steps = 0
        self._decide_steps = 0
        # Arrival stream, ascending (arrival_interval, tenant_id),
        # drained through a cursor.
        self._arrivals: List[TenantTraffic] = sorted(
            scenario.tenants,
            key=lambda t: (t.tenant.arrival_interval, t.tenant.tenant_id),
        )
        self._arrival_cursor = 0
        # Interval -> the admitted tenants that depart at it, and the
        # residents whose traffic has work at it; ascending tenant id.
        self._departures: DefaultDict[int, List[int]] = defaultdict(list)
        self._wakes: DefaultDict[int, List[int]] = defaultdict(list)

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
        # Resolve the tenant's phase tables once, at admission, and keep
        # them on the resident: each step then reads its phase's table
        # by name instead of looking it up again.  A table's points
        # depend only on the phase, model, space and cost model, so
        # this changes when a table is looked up, never what a step
        # reads.  PhasedApplication rejects repeated phase names, so
        # the name keys every phase.
        tables: Dict[str, OperatingPointTable] = {
            phase.name: operating_point_table(
                phase, self.model, self.space, self.cost_model
            )
            for phase in tenant.app.phases
        }
        noise = _noise_stream(self.noise_seed, tenant.tenant_id)
        self._residents[tenant.tenant_id] = _ServiceResident(
            traffic=traffic,
            allocator=build_tenant_allocator(
                tenant, decision.reservation, self.space, self.cost_model
            ),
            walker=_PhaseWalker(tenant.app),
            account=ServiceAccount(tenant_id=tenant.tenant_id),
            noise=noise,
            draw=None if self.noise_std_frac <= 0.0 else noise.draw,
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
        schedule = resident.allocator.decide(
            resident.measurement, resident.tables[phase.name]
        )
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
        tenant's bound ``draw``, in this order: each executed leg's
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
        draw = resident.draw
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
                if draw is not None:
                    leg_qos = max(leg_qos * (1.0 + draw() * std), 0.0)
                legs.append(LegObservation(config, entry.fraction, leg_qos))
        if elapsed < 1.0:  # max(elapsed, 1.0), without the call
            elapsed = 1.0
        dollars = dollars_time / elapsed  # mean $/hr over the interval
        true_qos = total_instructions / elapsed
        if not replayed:
            if draw is None:
                signature = (
                    phase.mem_refs_per_inst,
                    phase.l1_miss_rate,
                    phase.mispredict_rate,
                )
                overall_qos = true_qos
            else:
                signature = (
                    max(phase.mem_refs_per_inst * (1.0 + draw() * std), 0.0),
                    max(phase.l1_miss_rate * (1.0 + draw() * std), 0.0),
                    max(phase.mispredict_rate * (1.0 + draw() * std), 0.0),
                )
                overall_qos = max(true_qos * (1.0 + draw() * std), 0.0)
            resident.measurement = QoSMeasurement(
                overall_qos, tuple(legs), signature
            )
        account.active_intervals += 1
        account.dollars_time += dollars
        if footprint is not None:
            account.footprint_tiles += footprint.tiles
        if true_qos < tenant.qos_goal * (1.0 - self.violation_margin):
            account.violations += 1

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
    # the interval loop
    # ------------------------------------------------------------------
    def _close_interval(self, interval: int, stepped: _Stepped) -> None:
        """Account one interval, then park the tenants in ``stepped``
        whose burst ended with it.

        ``stepped`` pairs each tenant stepped in ``interval`` with its
        next active interval after it (see :meth:`_park_if_idle`).
        Parking follows the occupancy sample: a tenant whose burst ends
        at ``interval`` ran in it, so its tiles count toward this
        interval's utilization.
        """
        self._tenant_intervals += len(self._residents)
        self._util_tile_intervals += self.fabric.occupied_tiles()
        for resident, wake in stepped:
            self._park_if_idle(resident, interval, wake)

    def _run_intervals(self, until: int) -> None:
        """Simulate every interval in ``[cursor, until)``.

        Each interval settles its departures, then admits its arrivals
        (the stream ascends by interval and id), then steps the tenants
        in its wake bucket.  Admission files a tenant's departure and
        first wake; a step files the tenant's next wake.  Buckets stay
        in ascending tenant id, the order every report is pinned in.
        """
        residents = self._residents
        arrivals = self._arrivals
        departures = self._departures
        wakes = self._wakes
        for interval in range(self._cursor, until):
            for tenant_id in departures.pop(interval, ()):
                self._settle(tenant_id)
            while self._arrival_cursor < len(arrivals):
                traffic = arrivals[self._arrival_cursor]
                tenant = traffic.tenant
                if tenant.arrival_interval > interval:
                    break
                self._arrival_cursor += 1
                if self._admit(traffic):
                    if tenant.departure_interval is not None:
                        insort(
                            departures[tenant.departure_interval],
                            tenant.tenant_id,
                        )
                    wake = traffic.next_active(interval)
                    if wake is not None:
                        insort(wakes[wake], tenant.tenant_id)
            stepped: _Stepped = []
            for tenant_id in wakes.pop(interval, ()):
                resident = residents.get(tenant_id)
                if resident is None:
                    continue  # its traffic outlived its residency
                self._step_tenant(resident)
                wake = resident.traffic.next_active(interval + 1)
                stepped.append((resident, wake))
                if wake is not None:
                    insort(wakes[wake], tenant_id)
            self._close_interval(interval, stepped)

    def run(self, until: Optional[int] = None) -> ServiceReport:
        """Advance the service to ``until`` (default: the full horizon).

        Resumable: the buckets and the cursor persist on the engine, so
        successive calls continue where the previous one stopped,
        identically to an engine that never paused.
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
        self._run_intervals(target)
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
