"""Multi-tenant IaaS provider layer.

The paper's setting is an IaaS cloud: a chip with hundreds of Slices
and cache banks, rented at sub-core granularity to many customers at
once, each running the CASH runtime against their own QoS target
(Section I argues deployment "would then also benefit cloud providers
by attracting more customers").  This subpackage builds that setting on
top of the architecture and runtime layers:

* :mod:`repro.cloud.tenant` — a tenant: an application, a QoS target,
  an allocator policy, and its arrival and departure;
* :mod:`repro.cloud.admission` — worst-case-footprint admission
  control;
* :mod:`repro.cloud.traffic` — tenant demand as per-tenant activity
  timelines: seeded open-loop churn (diurnal curves, flash crowds,
  MMPP-style bursts), or a closed tenant list as one burst per tenant;
* :mod:`repro.cloud.service` — the one tenant-stepping engine: tenants
  share one :class:`~repro.arch.fabric.Fabric`; in each interval with
  work a tenant's runtime picks a schedule, the engine places the peak
  footprint spatially (defragmenting when a resize fails) and bills
  by area-time.  One interval loop steps, in each interval, only the
  tenants filed in its wake bucket, and ``run(until=)`` advances it in
  segments;
* :mod:`repro.cloud.provider` — the closed-list front end: a fixed
  tenant roster run on the service engine.

Because CASH isolates tenants spatially (own Slices, own banks — the
paper's answer to SMT-style resource thrashing), tenants do not disturb
each other's performance; what they contend for is *capacity*.  The
provider-level payoff of fine-grain adaptivity is density: CASH tenants
release what they do not need, so more customers fit on the same
silicon at the same QoS.
"""

from repro.cloud.tenant import Tenant
from repro.cloud.provider import CloudProvider
from repro.cloud.admission import AdmissionController, AdmissionDecision
from repro.cloud.traffic import (
    TenantTraffic,
    TrafficScenario,
    TrafficSpec,
    generate_traffic,
)
from repro.cloud.service import (
    ServiceAccount,
    ServiceEngine,
    ServiceReport,
)

__all__ = [
    "Tenant",
    "CloudProvider",
    "AdmissionController",
    "AdmissionDecision",
    "TenantTraffic",
    "TrafficScenario",
    "TrafficSpec",
    "generate_traffic",
    "ServiceAccount",
    "ServiceEngine",
    "ServiceReport",
]
