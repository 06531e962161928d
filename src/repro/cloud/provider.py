"""The multi-tenant provider: a closed tenant list on one shared fabric.

A fixed roster of tenants, each arriving at its ``arrival_interval``
and staying until its ``departure_interval`` (or the end of the run),
is the degenerate case of open-loop traffic: every tenant has work in
every interval of its residency.  :class:`CloudProvider` builds that
scenario (:meth:`~repro.cloud.traffic.TrafficScenario.from_tenants`)
and runs it on :class:`~repro.cloud.service.ServiceEngine`, which owns
admission, placement, defragmentation, billing and QoS accounting.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.arch.fabric import Fabric
from repro.arch.vcore import ConfigurationSpace, DEFAULT_CONFIG_SPACE
from repro.cloud.admission import AdmissionController
from repro.cloud.service import ServiceEngine, ServiceReport
from repro.cloud.tenant import Tenant
from repro.cloud.traffic import TrafficScenario
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL


class CloudProvider:
    """Runs a closed tenant list against one shared fabric."""

    def __init__(
        self,
        fabric: Optional[Fabric] = None,
        model: PerformanceModel = DEFAULT_PERF_MODEL,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        overcommit: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.fabric = fabric if fabric is not None else Fabric(width=24, height=24)
        self.model = model
        self.space = space
        self.overcommit = overcommit
        self.seed = seed
        self.admission: Optional[AdmissionController] = None

    def run(self, tenants: Sequence[Tenant], intervals: int) -> ServiceReport:
        """Simulate ``intervals`` provider intervals for the tenants.

        Each call runs a fresh engine on :attr:`fabric`, seeded with
        :attr:`seed`; afterwards :attr:`admission` is that engine's
        controller, holding the run's decisions and reservations.
        """
        engine = ServiceEngine(
            TrafficScenario.from_tenants(tenants, intervals, self.seed),
            fabric=self.fabric,
            model=self.model,
            space=self.space,
            overcommit=self.overcommit,
        )
        self.admission = engine.admission
        return engine.run()
