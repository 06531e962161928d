"""Open-loop tenant traffic: who is resident and active, decided up front.

The provider service (:mod:`repro.cloud.service`) needs to
know, for every tenant, *when work exists* — independently of how the
provider responds (open-loop traffic, the CuttleSys/cluster-trace
framing).  This module materializes that demand once, from a frozen
sweepable :class:`TrafficSpec`, into per-tenant activity timelines:

* **churn** — tenants arrive over the horizon as a Poisson-ish stream
  (exponential inter-arrival gaps) and live for a heavy-tailed (Pareto)
  lifetime, so the resident population turns over continuously;
* **bursts** — within its residency a tenant alternates MMPP-style
  between active bursts (geometric-ish lengths) and idle gaps;
* **diurnal rate curves** — a seeded sinusoid modulates the hazard of
  leaving the idle state, so fleet demand swells and ebbs periodically;
* **flash crowds** — short fleet-wide windows multiply that hazard, so
  many tenants wake at once.

Everything is derived deterministically from ``spec.seed``: fleet-level
draws (arrival gaps, lifetimes, flash-crowd windows) come from one
stream, and each tenant's burst process comes from its own stream keyed
by ``(seed, tenant_id)``, so no tenant's timeline depends on another
tenant's draws.

The timelines are plain sorted tuples of half-open ``[start, stop)``
bursts; :meth:`TenantTraffic.is_active` and
:meth:`TenantTraffic.next_active` answer point and successor queries by
bisection, so the service files each tenant's next wake without
visiting its idle intervals.
A closed tenant list (:meth:`TrafficScenario.from_tenants`) is the
degenerate case: one burst per tenant, spanning its residency.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.tenant import Tenant
from repro.experiments.harness import qos_target_for
from repro.workloads.apps import get_app
from repro.workloads.phase import PhasedApplication

#: Throughput-QoS applications only: the provider loop models latency
#: apps (apache, mailserver) with the closed-loop harness, not here.
DEFAULT_TRAFFIC_APPS: Tuple[str, ...] = (
    "bzip",
    "gcc",
    "hmmer",
    "lib",
    "mcf",
    "omnetpp",
    "sjeng",
)

_AFTER_START = sys.maxsize
"""Bisection sentinel: ``(t, _AFTER_START)`` sorts after every burst
that starts at ``t``."""


@dataclass(frozen=True)
class TrafficSpec:
    """A frozen, picklable description of one traffic scenario.

    Like ``CellSpec``, instances are sweep axes: hashable, comparable
    and safe to ship to worker processes.
    """

    tenants: int
    horizon: int
    seed: int = 0
    apps: Tuple[str, ...] = DEFAULT_TRAFFIC_APPS
    policies: Tuple[str, ...] = ("cash", "race")
    arrival_span: float = 0.6
    """Fraction of the horizon over which arrivals are spread."""
    lifetime_shape: float = 1.4
    """Pareto tail index of tenant lifetimes (heavier when closer to 1)."""
    lifetime_min: float = 60.0
    """Minimum tenant lifetime, in provider intervals."""
    activity: float = 0.2
    """Long-run fraction of resident intervals spent in a burst."""
    mean_burst: float = 8.0
    """Mean active-burst length, in provider intervals."""
    diurnal_period: int = 0
    """Period of the diurnal demand sinusoid (0 disables it)."""
    diurnal_amplitude: float = 0.6
    """Peak-to-mean swing of the diurnal curve, in (0, 1)."""
    flash_crowds: int = 0
    """Number of fleet-wide flash-crowd windows."""
    flash_duration: int = 32
    """Length of each flash-crowd window, in provider intervals."""
    flash_boost: float = 6.0
    """Idle-exit hazard multiplier inside a flash-crowd window."""

    def __post_init__(self) -> None:
        if self.tenants <= 0:
            raise ValueError(f"tenants must be positive, got {self.tenants}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not self.apps:
            raise ValueError("apps must not be empty")
        if not self.policies:
            raise ValueError("policies must not be empty")
        for policy in self.policies:
            if policy not in ("cash", "race"):
                raise ValueError(f"unknown policy {policy!r}")
        if not 0.0 < self.arrival_span <= 1.0:
            raise ValueError(
                f"arrival_span must be in (0, 1], got {self.arrival_span}"
            )
        if self.lifetime_shape <= 1.0:
            raise ValueError(
                "lifetime_shape must exceed 1 (finite mean), "
                f"got {self.lifetime_shape}"
            )
        if self.lifetime_min < 1.0:
            raise ValueError(
                f"lifetime_min must be >= 1, got {self.lifetime_min}"
            )
        if not 0.0 < self.activity <= 1.0:
            raise ValueError(
                f"activity must be in (0, 1], got {self.activity}"
            )
        if self.mean_burst < 1.0:
            raise ValueError(
                f"mean_burst must be >= 1, got {self.mean_burst}"
            )
        if self.diurnal_period < 0:
            raise ValueError(
                f"diurnal_period must be non-negative, got {self.diurnal_period}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.flash_crowds < 0:
            raise ValueError(
                f"flash_crowds must be non-negative, got {self.flash_crowds}"
            )
        if self.flash_crowds > 0 and self.flash_duration <= 0:
            raise ValueError(
                f"flash_duration must be positive, got {self.flash_duration}"
            )
        if self.flash_boost < 1.0:
            raise ValueError(
                f"flash_boost must be >= 1, got {self.flash_boost}"
            )


@dataclass(frozen=True)
class TenantTraffic:
    """One tenant plus its activity timeline.

    ``bursts`` is a sorted tuple of half-open ``[start, stop)`` interval
    ranges within the tenant's residency; gaps between bursts are idle
    intervals during which the tenant is resident but has no work.
    """

    tenant: Tenant
    bursts: Tuple[Tuple[int, int], ...]

    def is_active(self, interval: int) -> bool:
        """Does the tenant have work queued at ``interval``?"""
        index = bisect_right(self.bursts, (interval, _AFTER_START)) - 1
        if index < 0:
            return False
        start, stop = self.bursts[index]
        return start <= interval < stop

    def next_active(self, interval: int) -> Optional[int]:
        """The first active interval at or after ``interval`` (None if none)."""
        index = bisect_right(self.bursts, (interval, _AFTER_START)) - 1
        if index >= 0 and interval < self.bursts[index][1]:
            return interval
        index += 1
        if index < len(self.bursts):
            return self.bursts[index][0]
        return None

    @property
    def active_intervals(self) -> int:
        """Total intervals of queued work across the residency."""
        return sum(stop - start for start, stop in self.bursts)


@dataclass(frozen=True)
class TrafficScenario:
    """A full generated scenario: every tenant's timeline plus metadata."""

    spec: TrafficSpec
    tenants: Tuple[TenantTraffic, ...]
    flash_windows: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_tenants(
        cls, tenants: Sequence[Tenant], horizon: int, seed: int
    ) -> TrafficScenario:
        """A closed tenant list as degenerate traffic.

        Every tenant has work throughout its residency: one burst over
        ``[arrival, departure or horizon)``, none if it arrives at or
        after the horizon.  The spec records only the tenant count,
        the horizon and ``seed`` (the service engine's noise seed); it
        does not regenerate the list.
        """
        spec = TrafficSpec(tenants=len(tenants), horizon=horizon, seed=seed)
        ids = {tenant.tenant_id for tenant in tenants}
        if len(ids) != len(tenants):
            raise ValueError("tenant ids must be unique")
        timelines: List[TenantTraffic] = []
        for tenant in tenants:
            departure = tenant.departure_interval
            stop = horizon if departure is None else min(departure, horizon)
            start = tenant.arrival_interval
            bursts: Tuple[Tuple[int, int], ...] = (
                ((start, stop),) if start < stop else ()
            )
            timelines.append(TenantTraffic(tenant=tenant, bursts=bursts))
        return cls(spec=spec, tenants=tuple(timelines), flash_windows=())

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    @property
    def total_active_intervals(self) -> int:
        return sum(t.active_intervals for t in self.tenants)


def _tenant_stream(seed: int, tenant_id: int) -> random.Random:
    """An independent, reproducible RNG stream for one tenant."""
    return random.Random((seed * 1_000_003 + 7919 * (tenant_id + 1)) & (2**63 - 1))


def _demand_boost(
    spec: TrafficSpec,
    flash_windows: Tuple[Tuple[int, int], ...],
    interval: int,
) -> float:
    """Multiplier on the idle-exit hazard at ``interval`` (>= a floor)."""
    boost = 1.0
    if spec.diurnal_period > 0:
        boost += spec.diurnal_amplitude * math.sin(
            2.0 * math.pi * interval / spec.diurnal_period
        )
    for start, stop in flash_windows:
        if start <= interval < stop:
            boost *= spec.flash_boost
            break
    return max(boost, 0.05)


def _tenant_bursts(
    spec: TrafficSpec,
    flash_windows: Tuple[Tuple[int, int], ...],
    rng: random.Random,
    arrival: int,
    end: int,
) -> Tuple[Tuple[int, int], ...]:
    """Alternate active bursts and idle gaps across ``[arrival, end)``.

    The first burst starts at arrival (tenants arrive *with* work);
    afterwards each idle gap is an exponential draw whose mean shrinks
    with the demand boost at the gap's start, giving MMPP-style
    clustering under diurnal peaks and flash crowds.
    """
    mean_idle = spec.mean_burst * (1.0 - spec.activity) / spec.activity
    mean_extra = max(spec.mean_burst - 1.0, 0.0)
    bursts: List[Tuple[int, int]] = []
    cursor = arrival
    start = arrival
    while start < end:
        length = 1 + int(rng.expovariate(1.0) * mean_extra)
        stop = min(start + length, end)
        bursts.append((start, stop))
        cursor = stop
        if mean_idle <= 0.0:
            start = cursor  # activity == 1: back-to-back bursts
            if bursts and start < end:
                # Merge into one solid burst instead of stacking.
                bursts[-1] = (bursts[-1][0], end)
                break
            continue
        boost = _demand_boost(spec, flash_windows, cursor)
        gap = 1 + int(rng.expovariate(1.0) * mean_idle / boost)
        start = cursor + gap
    return tuple(bursts)


def generate_traffic(spec: TrafficSpec) -> TrafficScenario:
    """Materialize the scenario described by ``spec``.

    Deterministic: the same spec always yields the same scenario, in
    any process, under either engine mode.
    """
    fleet = random.Random(spec.seed * 1_000_003 + 0x5EED)

    # Flash-crowd windows are fleet-level state, drawn first so their
    # count never shifts the arrival stream.
    starts = sorted(
        fleet.randrange(spec.horizon) for _ in range(spec.flash_crowds)
    )
    flash_windows = tuple(
        (start, min(start + spec.flash_duration, spec.horizon))
        for start in starts
    )

    # Arrivals: exponential gaps accumulated as floats, truncated to
    # intervals.  Accumulation is monotone, so tenant ids ascend with
    # arrival time — the invariant the engines' event orders rely on.
    mean_gap = spec.arrival_span * spec.horizon / spec.tenants
    apps: Dict[str, PhasedApplication] = {}
    goals: Dict[str, float] = {}
    timelines: List[TenantTraffic] = []
    clock = 0.0
    for tenant_id in range(spec.tenants):
        arrival = min(int(clock), spec.horizon - 1)
        clock += fleet.expovariate(1.0) * mean_gap
        lifetime = int(spec.lifetime_min * fleet.paretovariate(spec.lifetime_shape))
        departure: Optional[int] = arrival + max(lifetime, 1)
        if departure >= spec.horizon:
            departure = None  # resident to the end of the simulation
        app_name = spec.apps[tenant_id % len(spec.apps)]
        app = apps.get(app_name)
        if app is None:
            app = get_app(app_name)
            apps[app_name] = app
            goals[app_name] = qos_target_for(app)
        tenant = Tenant(
            tenant_id=tenant_id,
            app=app,
            qos_goal=goals[app_name],
            policy=spec.policies[tenant_id % len(spec.policies)],
            arrival_interval=arrival,
            departure_interval=departure,
        )
        end = spec.horizon if departure is None else departure
        bursts = _tenant_bursts(
            spec,
            flash_windows,
            _tenant_stream(spec.seed, tenant_id),
            arrival,
            end,
        )
        timelines.append(TenantTraffic(tenant=tenant, bursts=bursts))

    return TrafficScenario(
        spec=spec, tenants=tuple(timelines), flash_windows=flash_windows
    )
