"""Struct-of-arrays batch execution tier for the cycle simulator.

:func:`run_batch` runs **many independent pipeline cells** through one
call of the compiled kernel (``sim/_batchcore.c``, loaded via
:mod:`repro.native`).  The cells share pooled trace columns; the
kernel renames each distinct trace once, then runs the cells one after
another, each to completion, so only one cell's scoreboard, wakeup
lists, release heaps and cache arrays are alive at a time.

The per-cycle object pipeline, ``MultiSlicePipeline.run``, is the
scalar twin: for every cell, :func:`run_batch` returns a bit-identical
:class:`~repro.sim.pipeline.PipelineResult`, per-Slice counter block
and memory-system stats versus that engine on the same trace (the
parity suite asserts this over the whole tier-agreement grid).  When
the compiled core is unavailable — no host compiler,
``REPRO_NATIVE=0``, or a cell outside the kernel's envelope — the
batch API transparently runs each cell through the object pipeline,
so callers never need a compiler to be correct, only to be fast.
Both the tier grid and :class:`~repro.sim.ssim.SSim`'s single cells
run here.

Scope: the kernel implements the scripted-mispredict front end only
(``dynamic_branches`` stays object-path territory), requires the
standard 64-byte block size and at most two sources per op; op counts
and register ids are bounded by :data:`OP_ID_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import native, perf
from repro.arch.counters import CounterKind, PerformanceCounters
from repro.arch.params import (
    DEFAULT_CACHE_PARAMS,
    DEFAULT_SLICE_PARAMS,
    CacheParams,
    SliceParams,
)
from repro.arch.vcore import VCoreConfig
from repro.sim.pipeline import (
    _FRONT_END_DEPTH,
    MultiSlicePipeline,
    PipelineResult,
)
from repro.sim.soa import TraceArrays, ordered_unique

#: The native kernel packs future events as ``(time << 21) | op_id``;
#: traces must keep op ids below this bound to use it.  Register ids
#: must stay below it too: the kernel's rename stage sizes its
#: last-writer table from a trace's largest register.
OP_ID_LIMIT = 1 << 21

#: Source (and so producer) columns the kernel consumes (the trace
#: generator emits at most two sources per op).
_PRODUCER_WIDTH = 2

#: Cache block size the kernel hardcodes (address ``// 64``).
_BLOCK_BYTES = 64

# ``out_cell`` column layout of the native kernel.
_O_CYCLES = 0
_O_L1_HITS = 1
_O_L2_HITS = 2
_O_L2_MISSES = 3
_O_MISPREDICTS = 4
_O_L1I_HITS = 5
_O_L1I_MISSES = 6
_O_L2_WRITEBACKS = 7
_O_STATUS = 8
_OUT_CELL_WIDTH = 9

# ``out_slice`` column layout (per ``(cell, slice)``).
_S_COMMITTED = 0
_S_L2_ACCESSES = 1
_S_L2_MISSES = 2
_S_L1_MISSES = 3
_S_BRANCHES = 4
_S_BRANCH_MISPREDICTS = 5
_OUT_SLICE_WIDTH = 6


@dataclass(frozen=True)
class BatchCell:
    """One independent simulation: a trace on a VCore configuration."""

    trace: TraceArrays
    config: VCoreConfig


@dataclass(frozen=True)
class BatchCellResult:
    """Everything ``MultiSlicePipeline.run`` would have produced."""

    result: PipelineResult
    counters: Tuple[PerformanceCounters, ...]
    memory_stats: Dict[str, int]


def _params_block(
    slice_params: SliceParams, cache_params: CacheParams
) -> np.ndarray:
    """Pack the scalar architecture parameters the kernel consumes."""
    return np.array(
        [
            slice_params.issue_window,
            slice_params.rob_size,
            slice_params.fetch_width,
            slice_params.commit_width,
            slice_params.max_inflight_loads,
            slice_params.memory_delay,
            cache_params.l1_hit_delay,
            cache_params.l1d.num_sets,
            cache_params.l1d.associativity,
            cache_params.l1i.num_sets,
            cache_params.l1i.associativity,
            cache_params.l2_bank.num_sets,
            cache_params.l2_bank.associativity,
            cache_params.l2_base_delay,
            cache_params.l2_delay_per_hop,
            _FRONT_END_DEPTH,
        ],
        dtype=np.int64,
    )


def _native_supported(
    traces: Sequence[TraceArrays], cache_params: CacheParams
) -> bool:
    """Whether every trace fits the compiled kernel's envelope."""
    if (
        cache_params.l1d.block_bytes != _BLOCK_BYTES
        or cache_params.l1i.block_bytes != _BLOCK_BYTES
        or cache_params.l2_bank.block_bytes != _BLOCK_BYTES
    ):
        return False
    for trace in traces:
        n = len(trace)
        if n == 0 or n >= OP_ID_LIMIT:
            return False
        if trace.source_width > _PRODUCER_WIDTH:
            return False
        if max(trace.sources.max(), trace.dests.max()) >= OP_ID_LIMIT:
            return False
    return True


def _padded_sources(trace: TraceArrays) -> np.ndarray:
    """The trace's source registers, ``-1``-padded to the kernel's
    :data:`_PRODUCER_WIDTH` columns (``from_ops`` keeps one column when
    no op has a second source)."""
    missing = _PRODUCER_WIDTH - trace.source_width
    if missing == 0:
        return trace.sources
    return np.pad(trace.sources, ((0, 0), (0, missing)), constant_values=-1)


def _dedupe_traces(cells: Sequence[BatchCell]) -> Tuple[List[TraceArrays], List[int]]:
    """Identity-dedupe the cells' trace bundles.

    Sweep cells sharing one trace across several configurations are the
    common case; encoding each distinct bundle once keeps the pooled
    buffers, the prewarm sets and the kernel's renaming proportional to
    the number of *traces*, not cells.  Shared bundles are adjacent in
    practice (configuration is the innermost sweep axis), so the
    last-seen fast path makes this linear.
    """
    unique: List[TraceArrays] = []
    indices: List[int] = []
    for cell in cells:
        trace = cell.trace
        if unique and unique[-1] is trace:
            indices.append(len(unique) - 1)
            continue
        for position, known in enumerate(unique):
            if known is trace:
                indices.append(position)
                break
        else:
            indices.append(len(unique))
            unique.append(trace)
    return unique, indices


def run_batch(
    cells: Sequence[BatchCell],
    slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
    cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
) -> List[BatchCellResult]:
    """Run every cell to completion; one result per cell, in order.

    With :data:`repro.perf.FAST` enabled and the compiled core
    available, one call of the native kernel runs the cells one after
    another, each to completion; otherwise each cell runs through the
    per-cycle ``MultiSlicePipeline`` twin.  Cells are independent, so
    a cell's result does not depend on the batch it runs in or its
    place there.  Both paths produce bit-identical results, counters
    and memory stats.
    """
    cells = list(cells)
    if not cells:
        return []
    traces, trace_of = _dedupe_traces(cells)
    if perf.FAST:
        core = native.batch_core()
        if core is not None and _native_supported(traces, cache_params):
            return _run_batch_native(
                core, cells, traces, trace_of, slice_params, cache_params
            )
    return _run_batch_objects(
        cells, traces, trace_of, slice_params, cache_params
    )


def _run_batch_objects(
    cells: Sequence[BatchCell],
    traces: Sequence[TraceArrays],
    trace_of: Sequence[int],
    slice_params: SliceParams,
    cache_params: CacheParams,
) -> List[BatchCellResult]:
    """Reference path: each cell through the object pipeline twin."""
    results: List[BatchCellResult] = []
    decoded = [trace.to_ops() for trace in traces]
    for cell, trace_index in zip(cells, trace_of):
        pipeline = MultiSlicePipeline(cell.config, slice_params, cache_params)
        result = pipeline.run(decoded[trace_index])
        results.append(
            BatchCellResult(
                result=result,
                counters=tuple(pipeline.counters),
                memory_stats=pipeline.memory.stats(),
            )
        )
    return results


def _run_batch_native(
    core: "native.NativeBatchCore",
    cells: Sequence[BatchCell],
    traces: Sequence[TraceArrays],
    trace_of: Sequence[int],
    slice_params: SliceParams,
    cache_params: CacheParams,
) -> List[BatchCellResult]:
    """Pool the traces and run every cell through the compiled kernel."""
    kinds_pool: List[np.ndarray] = []
    mem_pool: List[np.ndarray] = []
    mis_pool: List[np.ndarray] = []
    addr_pool: List[np.ndarray] = []
    code_pool: List[np.ndarray] = []
    source_pool: List[np.ndarray] = []
    dest_pool: List[np.ndarray] = []
    warm_pool: List[np.ndarray] = []
    trace_offsets = np.zeros(len(traces) + 1, dtype=np.int64)
    warm_offsets = np.zeros(len(traces) + 1, dtype=np.int64)
    for index, trace in enumerate(traces):
        warm = ordered_unique(trace.code_addresses)
        kinds_pool.append(trace.kinds)
        mem_pool.append(trace.is_memory)
        mis_pool.append(trace.mispredicted.astype(np.int8))
        addr_pool.append(trace.addresses)
        code_pool.append(trace.code_addresses)
        source_pool.append(_padded_sources(trace))
        dest_pool.append(trace.dests)
        warm_pool.append(warm)
        trace_offsets[index + 1] = trace_offsets[index] + len(trace)
        warm_offsets[index + 1] = warm_offsets[index] + warm.shape[0]

    n_cells = len(cells)
    max_slices = max(cell.config.slices for cell in cells)
    conf = np.zeros((n_cells, 6), dtype=np.int64)
    for row, (cell, trace_index) in enumerate(zip(cells, trace_of)):
        conf[row, 0] = cell.config.slices
        conf[row, 1] = cell.config.l2_banks
        conf[row, 2] = trace_offsets[trace_index]
        conf[row, 3] = len(cells[row].trace)
        conf[row, 4] = warm_offsets[trace_index]
        conf[row, 5] = warm_pool[trace_index].shape[0]

    out_cell = np.zeros((n_cells, _OUT_CELL_WIDTH), dtype=np.int64)
    out_slice = np.zeros(
        (n_cells, max_slices, _OUT_SLICE_WIDTH), dtype=np.int64
    )
    status = core.run_batch(
        n_cells,
        max_slices,
        _PRODUCER_WIDTH,
        _params_block(slice_params, cache_params),
        conf,
        np.ascontiguousarray(np.concatenate(kinds_pool)),
        np.ascontiguousarray(np.concatenate(mem_pool)),
        np.ascontiguousarray(np.concatenate(mis_pool)),
        np.ascontiguousarray(np.concatenate(addr_pool)),
        np.ascontiguousarray(np.concatenate(code_pool)),
        np.ascontiguousarray(np.concatenate(source_pool)),
        np.ascontiguousarray(np.concatenate(dest_pool)),
        np.ascontiguousarray(np.concatenate(warm_pool)),
        out_cell,
        out_slice,
    )
    if status != 0:
        raise RuntimeError(f"native batch core failed (status {status})")

    cell_rows = out_cell.tolist()
    slice_rows = out_slice.tolist()
    return [
        _materialize_cell(cell, cell_rows[row], slice_rows[row])
        for row, cell in enumerate(cells)
    ]


def _materialize_cell(
    cell: BatchCell, fields: List[int], per_slice_rows: List[List[int]]
) -> BatchCellResult:
    """Rehydrate one cell's kernel output into the object-path shape."""
    if fields[_O_STATUS] != 0:  # pragma: no cover - defensive
        raise RuntimeError("pipeline failed to make progress")
    cycles = fields[_O_CYCLES]
    counters = []
    for slice_id in range(cell.config.slices):
        block = PerformanceCounters(slice_id)
        per_slice = per_slice_rows[slice_id]
        block.increment(CounterKind.CYCLES, cycles)
        block.increment(
            CounterKind.INSTRUCTIONS_COMMITTED, per_slice[_S_COMMITTED]
        )
        block.increment(CounterKind.L2_ACCESSES, per_slice[_S_L2_ACCESSES])
        block.increment(CounterKind.L2_MISSES, per_slice[_S_L2_MISSES])
        block.increment(CounterKind.L1_MISSES, per_slice[_S_L1_MISSES])
        block.increment(CounterKind.BRANCHES, per_slice[_S_BRANCHES])
        block.increment(
            CounterKind.BRANCH_MISPREDICTS,
            per_slice[_S_BRANCH_MISPREDICTS],
        )
        counters.append(block)
    return BatchCellResult(
        result=PipelineResult(
            cycles=cycles,
            instructions=len(cell.trace),
            config=cell.config,
            l1_hits=fields[_O_L1_HITS],
            l2_hits=fields[_O_L2_HITS],
            l2_misses=fields[_O_L2_MISSES],
            mispredicts=fields[_O_MISPREDICTS],
            l1i_misses=fields[_O_L1I_MISSES],
        ),
        counters=tuple(counters),
        memory_stats={
            "l1_hits": fields[_O_L1_HITS],
            "l2_hits": fields[_O_L2_HITS],
            "l2_misses": fields[_O_L2_MISSES],
            "l2_writebacks": fields[_O_L2_WRITEBACKS],
            "l1i_hits": fields[_O_L1I_HITS],
            "l1i_misses": fields[_O_L1I_MISSES],
        },
    )
