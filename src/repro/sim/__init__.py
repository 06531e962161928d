"""SSim: the simulation substrate.

The paper evaluates CASH on SSim, a custom cycle-accurate simulator of
the CASH architecture driven by GEM5 Alpha traces.  This package
provides a two-tier Python SSim:

* the **cycle tier** (:mod:`repro.sim.pipeline`, :mod:`repro.sim.memsys`,
  and the compiled kernel behind :mod:`repro.sim.batchpipe`) — a
  trace-driven, cycle-level multi-Slice out-of-order model used for
  microbenchmarks (reconfiguration overheads, register flush,
  distance-dependent L2 hits) and for validating the fast tier;
* the **fast tier** (:mod:`repro.sim.perfmodel`) — an analytic
  phase-level IPC model built from the same Table I/II latency
  parameters, used to drive the closed-loop runtime experiments that
  would be intractable cycle-by-cycle in Python.

Both tiers are exposed through :class:`repro.sim.ssim.SSim`.
"""

from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.sim.ssim import SSim, CycleResult
from repro.sim.pipeline import MultiSlicePipeline, PipelineResult
from repro.sim.trace import TraceGenerator, TraceStats

__all__ = [
    "PerformanceModel",
    "DEFAULT_PERF_MODEL",
    "SSim",
    "CycleResult",
    "MultiSlicePipeline",
    "PipelineResult",
    "TraceGenerator",
    "TraceStats",
]
