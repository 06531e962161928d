"""Worst-case-footprint admission control.

A provider must not admit a tenant it cannot serve at peak: the
tenant's QoS contract implicitly reserves the *worst-case* virtual core
(the cheapest configuration that meets its QoS in every phase — the
same configuration race-to-idle would hold permanently).  The
controller admits a tenant only if the sum of all admitted tenants'
worst-case footprints still fits the fabric.

CASH tenants usually occupy far less than their reservation — that slack
is what lets a provider oversubscribe deliberately (``overcommit > 1``)
while the per-tenant QoS guarantees stay intact in expectation.

Under :data:`repro.perf.FAST` the controller memoizes the worst-case
reservation per ``(application, QoS goal)`` contract, since every
tenant sharing a contract shares a reservation by construction; the
scalar recompute remains the reference.  ``reserved`` sums the live
reservations in both modes: at the few dozen a service holds that
takes about 2 µs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import perf
from repro.arch.fabric import Fabric, TileKind
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.baselines.race import worst_case_config
from repro.cloud.tenant import Tenant
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one tenant."""

    tenant_id: int
    admitted: bool
    reservation: Optional[VCoreConfig]
    reason: str


class AdmissionController:
    """Tracks reservations against the fabric's capacity."""

    def __init__(
        self,
        fabric: Fabric,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        overcommit: float = 1.0,
    ) -> None:
        if overcommit < 1.0:
            raise ValueError(f"overcommit must be >= 1, got {overcommit}")
        self.fabric = fabric
        self.model = model
        self.space = space
        self.overcommit = overcommit
        self._reservations: Dict[int, VCoreConfig] = {}
        self.decisions: List[AdmissionDecision] = []
        self.admitted_count = 0
        """Admitted tenants to date, maintained at decision time (no
        re-scan of ``decisions`` needed)."""
        self.already_admitted_count = 0
        """Requests refused because the tenant was already resident."""
        # The per-contract reservation memo, consulted only under
        # perf.FAST.
        self._reservation_memo: Dict[Tuple[str, float], VCoreConfig] = {}

    def reservation_for(self, tenant: Tenant) -> VCoreConfig:
        """The tenant's worst-case virtual core (its implicit contract)."""
        if perf.FAST:
            # Value-keyed by contract: same application and QoS goal →
            # same worst-case configuration, by determinism of the
            # performance model.
            key = (tenant.app.name, tenant.qos_goal)
            cached = self._reservation_memo.get(key)
            if cached is None:
                cached = worst_case_config(
                    tenant.app, tenant.qos_goal, self.model, self.space
                )
                self._reservation_memo[key] = cached
            return cached
        return worst_case_config(
            tenant.app, tenant.qos_goal, self.model, self.space
        )

    def _capacity(self, kind: TileKind) -> float:
        # The per-kind tile total is fixed at fabric construction, so
        # capacity is a lookup, not a scan over every tile.
        return self.fabric.kind_total(kind) * self.overcommit

    def reserved(self, kind: TileKind) -> int:
        """Tiles of ``kind`` the live reservations hold."""
        if kind is TileKind.SLICE:
            return sum(c.slices for c in self._reservations.values())
        return sum(c.l2_banks for c in self._reservations.values())

    def request(self, tenant: Tenant) -> AdmissionDecision:
        """Admit or reject a tenant; admitted reservations are tracked."""
        if tenant.tenant_id in self._reservations:
            decision = AdmissionDecision(
                tenant.tenant_id, False, None, "already admitted"
            )
            self.decisions.append(decision)
            self.already_admitted_count += 1
            return decision
        reservation = self.reservation_for(tenant)
        fits_slices = (
            self.reserved(TileKind.SLICE) + reservation.slices
            <= self._capacity(TileKind.SLICE)
        )
        fits_banks = (
            self.reserved(TileKind.L2_BANK) + reservation.l2_banks
            <= self._capacity(TileKind.L2_BANK)
        )
        if fits_slices and fits_banks:
            self._reservations[tenant.tenant_id] = reservation
            self.admitted_count += 1
            decision = AdmissionDecision(
                tenant.tenant_id, True, reservation, "admitted"
            )
        else:
            bottleneck = "Slices" if not fits_slices else "L2 banks"
            decision = AdmissionDecision(
                tenant.tenant_id,
                False,
                reservation,
                f"insufficient {bottleneck} for worst-case reservation",
            )
        self.decisions.append(decision)
        return decision

    def release(self, tenant_id: int) -> None:
        self._reservations.pop(tenant_id, None)

    @property
    def admitted_ids(self) -> List[int]:
        return sorted(self._reservations)
