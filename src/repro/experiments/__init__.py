"""The evaluation harness (Section VI).

:mod:`repro.experiments.harness` runs an allocator closed-loop against
an application on the fast SSim tier, producing per-interval records
(cost rate, delivered QoS, violations) and run-level aggregates.
:mod:`repro.experiments.scenarios` defines the canonical experiment of
each figure/table, and :mod:`repro.experiments.report` formats results
in the paper's rows.
"""

from repro.experiments.harness import (
    CASHAllocator,
    IntervalRecord,
    LatencySimulator,
    RunResult,
    ThroughputSimulator,
    qos_target_for,
)
from repro.experiments.scenarios import (
    compare_allocators,
    compare_architectures,
    run_app_with_allocator,
)

__all__ = [
    "CASHAllocator",
    "IntervalRecord",
    "LatencySimulator",
    "RunResult",
    "ThroughputSimulator",
    "qos_target_for",
    "compare_allocators",
    "compare_architectures",
    "run_app_with_allocator",
]
