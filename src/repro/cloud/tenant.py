"""Tenants: the IaaS customers sharing the fabric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workloads.phase import PhasedApplication


@dataclass(frozen=True)
class Tenant:
    """One customer: an application with a QoS target and a policy.

    ``policy`` selects the resource allocator the tenant runs:
    ``"cash"`` (the adaptive runtime) or ``"race"`` (reserve the
    worst-case virtual core).  ``arrival_interval`` is the provider
    interval at which the tenant asks to be admitted; a ``None``
    departure means it stays to the end of the simulation.
    """

    tenant_id: int
    app: PhasedApplication
    qos_goal: float
    policy: str = "cash"
    arrival_interval: int = 0
    departure_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ValueError(f"tenant_id must be non-negative, got {self.tenant_id}")
        if self.qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {self.qos_goal}")
        if self.policy not in ("cash", "race"):
            raise ValueError(
                f"policy must be 'cash' or 'race', got {self.policy!r}"
            )
        if self.arrival_interval < 0:
            raise ValueError(
                f"arrival_interval must be non-negative, "
                f"got {self.arrival_interval}"
            )
        if (
            self.departure_interval is not None
            and self.departure_interval <= self.arrival_interval
        ):
            raise ValueError("departure must come after arrival")

