"""SSim: the top-level simulator facade.

Exposes both tiers behind one object:

* :meth:`SSim.run_cycle_accurate` — trace-driven, cycle-level execution
  on the multi-Slice pipeline (microbenchmarks, mechanism studies);
* :meth:`SSim.predict_ipc` — the fast analytic tier used by the
  closed-loop experiments;
* :meth:`SSim.runtime_iteration_cycles` — the Section VI-A runtime
  overhead microbenchmark: Algorithm 1's loop body as an instruction
  stream, timed on 1..N-Slice virtual cores;
* :meth:`SSim.compare_tiers` — agreement check between the two tiers.

Cycle-tier runs go through :func:`repro.sim.batchpipe.run_batch` as a
batch of one cell: the compiled kernel when it is available, the
per-cycle :class:`~repro.sim.pipeline.MultiSlicePipeline` otherwise,
with bit-identical results either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.vcore import VCoreConfig
from repro.sim.isa import MicroOp
from repro.sim.perfmodel import PerformanceModel
from repro.sim.pipeline import MultiSlicePipeline, PipelineResult
from repro.sim.soa import TraceArrays
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase

_RUNTIME_PHASE = Phase(
    name="cash.runtime",
    instructions_m=1.0,
    ilp=2.1,
    mem_refs_per_inst=0.18,
    l1_miss_rate=0.02,
    working_set=((16, 0.98),),
    mlp=1.5,
    comm_penalty=0.10,
    branch_fraction=0.12,
    mispredict_rate=0.02,
)
"""Algorithm 1's loop body: scalar Kalman/controller arithmetic, two
bounded scans, bookkeeping stores.  Small working set (the runtime's
state is a few KB), moderate ILP — not application-dependent."""

RUNTIME_ITERATION_OPS = 2000
"""Micro-ops per runtime iteration (Kalman update, controller update,
over/under selection over the configuration catalogue, Q-learning
update, schedule bookkeeping)."""


@dataclass(frozen=True)
class CycleResult:
    """One cycle-tier run, with the fast tier's prediction alongside."""

    pipeline: PipelineResult
    predicted_ipc: float

    @property
    def measured_ipc(self) -> float:
        return self.pipeline.ipc

    @property
    def relative_error(self) -> float:
        if self.measured_ipc == 0:
            return float("inf")
        return abs(self.predicted_ipc - self.measured_ipc) / self.measured_ipc


class SSim:
    """The two-tier CASH architecture simulator."""

    def __init__(
        self,
        slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
        cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
    ) -> None:
        self.slice_params = slice_params
        self.cache_params = cache_params
        self.perf_model = PerformanceModel(
            slice_params=slice_params, cache_params=cache_params
        )

    def _run_cell(
        self, trace: TraceArrays, config: VCoreConfig
    ) -> PipelineResult:
        """Run one trace on ``config`` through the batch cycle tier."""
        from repro.sim.batchpipe import BatchCell, run_batch

        (outcome,) = run_batch(
            [BatchCell(trace=trace, config=config)],
            self.slice_params,
            self.cache_params,
        )
        return outcome.result

    def run_cycle_accurate(
        self,
        phase: Phase,
        config: VCoreConfig,
        instructions: int = 4000,
        seed: int = 0,
        trace: Optional[Sequence[MicroOp]] = None,
    ) -> CycleResult:
        """Run a synthetic trace of ``phase`` on the cycle tier.

        A caller's ``trace`` whose op ids are not ``0..n-1`` in order
        cannot be encoded as :class:`TraceArrays`; it runs on
        :class:`MultiSlicePipeline` directly.
        """
        if trace is None:
            generator = TraceGenerator(
                phase, self.slice_params.physical_registers, seed=seed
            )
            trace_arrays = generator.generate_arrays(instructions)
            result = self._run_cell(trace_arrays, config)
        else:
            try:
                trace_arrays = TraceArrays.from_ops(trace)
            except ValueError:
                pipeline = MultiSlicePipeline(
                    config, self.slice_params, self.cache_params
                )
                result = pipeline.run(trace)
            else:
                result = self._run_cell(trace_arrays, config)
        return CycleResult(
            pipeline=result,
            predicted_ipc=self.perf_model.ipc(phase, config),
        )

    def predict_ipc(self, phase: Phase, config: VCoreConfig) -> float:
        """Fast-tier IPC prediction."""
        return self.perf_model.ipc(phase, config)

    def runtime_iteration_cycles(
        self,
        slices: int = 1,
        iterations: int = 5,
        seed: int = 7,
    ) -> float:
        """Average cycles per CASH runtime iteration (Section VI-A).

        The paper times 1000 iterations of Algorithm 1's C
        implementation and reports ~2000 / 1100 / 977 cycles per
        iteration on 1 / 2 / 3 Slices.  Here the loop body is modelled
        as a fixed micro-op stream and timed on the cycle tier.
        """
        if slices <= 0:
            raise ValueError(f"slices must be positive, got {slices}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        config = VCoreConfig(slices=slices, l2_kb=64)
        generator = TraceGenerator(
            _RUNTIME_PHASE, self.slice_params.physical_registers, seed=seed
        )
        trace = generator.generate_arrays(RUNTIME_ITERATION_OPS * iterations)
        return self._run_cell(trace, config).cycles / iterations

    def compare_tiers(
        self,
        phase: Phase,
        configs: Sequence[VCoreConfig],
        instructions: int = 4000,
        seed: int = 0,
    ) -> List[CycleResult]:
        """Cycle-tier vs fast-tier IPC across configurations."""
        return [
            self.run_cycle_accurate(phase, config, instructions, seed)
            for config in configs
        ]
