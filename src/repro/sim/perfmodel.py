"""Analytic phase-level performance model (the fast SSim tier).

Predicts the IPC of a phase on a virtual core from first-order
microarchitectural balance, using exactly the latency parameters of
Tables I and II:

* **Compute**: the multi-Slice peak IPC follows a saturating scaling
  law toward the phase's intrinsic ILP, discounted by cross-Slice
  operand-forwarding cost that grows with the spatial extent of the
  Slice group (Section III-A: operand communication cost is why the
  runtime groups adjacent Slices).
* **Memory**: L1-miss traffic pays the distance-dependent L2 hit delay
  (``distance * 2 + 4``), and the un-captured remainder pays the 100
  cycle memory delay, divided by the memory-level parallelism the
  out-of-order window sustains (more Slices → more LSQ/ROB entries →
  more outstanding misses).

Because a bigger L2 is further away on average, the model reproduces the
paper's central tension: cache growth trades miss rate against hit
latency, producing the non-convex IPC surfaces of Fig. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.arch.cache import mean_l2_hit_delay, mean_l2_hit_delay_array
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.workloads.phase import Phase


def slice_extent(num_slices: int) -> float:
    """Mean operand-forwarding distance among ``num_slices`` Slices.

    Zero for a single Slice; grows with the radius of the Slice group
    (~``0.66 * sqrt(n)`` for a compact region), matching the fabric
    distance model in :mod:`repro.arch.cache`.
    """
    if num_slices <= 0:
        raise ValueError(f"num_slices must be positive, got {num_slices}")
    if num_slices == 1:
        return 0.0
    return 0.66 * (math.sqrt(num_slices) - 1.0) + 0.34


@dataclass(frozen=True)
class PerformanceModel:
    """IPC(phase, configuration) under Table I/II parameters."""

    slice_params: SliceParams = DEFAULT_SLICE_PARAMS
    cache_params: CacheParams = DEFAULT_CACHE_PARAMS

    def peak_ipc(self, phase: Phase, num_slices: int) -> float:
        """Compute-side IPC ceiling for ``num_slices`` Slices."""
        ilp = phase.ilp
        n = num_slices
        saturating = ilp * n / (n + ilp - 1.0)
        penalty = 1.0 + phase.comm_penalty * slice_extent(n)
        fetch_bound = n * self.slice_params.fetch_width
        return min(saturating / penalty, fetch_bound)

    def memory_cpi(self, phase: Phase, config: VCoreConfig) -> float:
        """Average memory-stall cycles per instruction."""
        refs = phase.mem_refs_per_inst
        l1_miss = phase.l1_miss_rate
        # Sentinel: phases with literally zero traffic pay zero memory
        # CPI; rates are exact trace-derived constants, never computed.
        if refs == 0.0 or l1_miss == 0.0:  # lint: allow(float-eq)
            return 0.0
        hit_fraction = phase.l2_hit_fraction(config.l2_kb)
        l2_delay = mean_l2_hit_delay(
            config.l2_banks, config.slices, self.cache_params
        )
        # Every L1 miss reaches L2 (hit or miss determines whether the
        # memory delay is added on top of the L2 lookup).
        average_miss_cost = l2_delay + (1.0 - hit_fraction) * (
            self.slice_params.memory_delay
        )
        mlp = self.effective_mlp(phase, config.slices)
        return refs * l1_miss * average_miss_cost / mlp

    def effective_mlp(self, phase: Phase, num_slices: int) -> float:
        """Outstanding-miss parallelism available to the virtual core."""
        ceiling = num_slices * self.slice_params.max_inflight_loads
        return min(phase.mlp * math.sqrt(num_slices), float(ceiling))

    def ipc(self, phase: Phase, config: VCoreConfig) -> float:
        """Predicted instructions per clock for ``phase`` on ``config``."""
        compute_cpi = 1.0 / self.peak_ipc(phase, config.slices)
        return 1.0 / (compute_cpi + self.memory_cpi(phase, config))

    def cycles_for(
        self, phase: Phase, config: VCoreConfig, instructions: float
    ) -> float:
        """Cycles to retire ``instructions`` of ``phase`` on ``config``."""
        if instructions < 0:
            raise ValueError(
                f"instructions must be non-negative, got {instructions}"
            )
        return instructions / self.ipc(phase, config)

    def ipc_grid(
        self,
        phase: Phase,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    ) -> np.ndarray:
        """IPC over the whole configuration grid, in one NumPy shot.

        Returns an array of shape ``(len(slice_counts), len(l2_sizes))``
        — rows are Slice counts, columns are L2 sizes — matching the
        axes of the Fig. 1 contour plots.

        Every arithmetic step mirrors the scalar :meth:`ipc` in operand
        order, so each grid cell is bit-identical to the per-config
        scalar evaluation (a property test enforces this).
        """
        slices = np.array(space.slice_counts, dtype=float)[:, np.newaxis]
        l2_kb = np.array(space.l2_sizes_kb, dtype=int)[np.newaxis, :]
        ilp = phase.ilp

        # Compute side (peak_ipc, vectorized over the Slice axis).
        saturating = ilp * slices / (slices + ilp - 1.0)
        extent = np.where(
            # Sentinel: slice counts are small integers stored as
            # floats, so == 1.0 is exact (single Slice = no fabric).
            slices == 1.0, 0.0, 0.66 * (np.sqrt(slices) - 1.0) + 0.34  # lint: allow(float-eq)
        )
        penalty = 1.0 + phase.comm_penalty * extent
        fetch_bound = slices * self.slice_params.fetch_width
        peak = np.minimum(saturating / penalty, fetch_bound)
        compute_cpi = 1.0 / peak

        # Memory side (memory_cpi, vectorized over the full grid).
        traffic = phase.mem_refs_per_inst
        l1_miss = phase.l1_miss_rate
        # Sentinel: same zero-traffic guard as the scalar memory_cpi —
        # the twins must take this branch on identical inputs.
        if traffic == 0.0 or l1_miss == 0.0:  # lint: allow(float-eq)
            memory_cpi = 0.0
        else:
            banks = l2_kb // self.cache_params.l2_bank.size_kb
            hit_fraction = phase.l2_hit_fraction_array(l2_kb)
            l2_delay = mean_l2_hit_delay_array(
                banks, slices, self.cache_params
            )
            average_miss_cost = l2_delay + (1.0 - hit_fraction) * (
                self.slice_params.memory_delay
            )
            mlp = np.minimum(
                phase.mlp * np.sqrt(slices),
                slices * self.slice_params.max_inflight_loads,
            )
            memory_cpi = traffic * l1_miss * average_miss_cost / mlp

        return 1.0 / (compute_cpi + memory_cpi)

    def best_config(
        self,
        phase: Phase,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    ) -> Tuple[VCoreConfig, float]:
        """Highest-IPC configuration for ``phase``.

        Grid argmax; ties resolve to the first configuration in space
        order, exactly as the original scalar scan did.
        """
        grid = self.ipc_grid(phase, space)
        flat = grid.ravel()
        winner = int(np.argmax(flat))
        return space[winner], float(flat[winner])

    def local_maxima(
        self,
        phase: Phase,
        space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
        tolerance: float = 1e-9,
    ) -> List[VCoreConfig]:
        """Configurations whose IPC beats all grid neighbors."""
        grid = self.ipc_grid(phase, space)
        # Pad with -inf so edge cells compare against a neighbor that
        # can never win, mirroring the scalar "all existing neighbors"
        # semantics.
        padded = np.pad(grid, 1, constant_values=-np.inf)
        is_max = (
            (grid >= padded[:-2, 1:-1] - tolerance)
            & (grid >= padded[2:, 1:-1] - tolerance)
            & (grid >= padded[1:-1, :-2] - tolerance)
            & (grid >= padded[1:-1, 2:] - tolerance)
        )
        flat = is_max.ravel()
        return [space[i] for i in np.flatnonzero(flat)]


DEFAULT_PERF_MODEL = PerformanceModel()
