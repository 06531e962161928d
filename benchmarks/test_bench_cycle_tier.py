"""Speed of the cycle tier's two engines (not a paper artefact).

Three layers are measured and pinned:

* one cell on the compiled kernel — ``run_batch`` on a single large
  multi-Slice trace must beat the per-cycle scalar engine,
  ``MultiSlicePipeline.run``, by a wide margin, with bit-identical
  results (the :class:`PipelineResult`, every per-Slice counter, and
  the memory-hierarchy statistics);
* the column trace generator — ``generate_arrays`` with fast paths on
  (the compiled port, ``sim/_tracegen.c``) against off (the scalar
  reference plus ``TraceArrays.from_ops``): same columns, same RNG
  state afterwards, at least 10× faster;
* the batch tier — compiled slabs against one object-pipeline run per
  cell, and the sharded tier-agreement sweep, where job count must
  never change results and on multi-core boxes more jobs must not be
  slower.

Wall-clock numbers are persisted to ``BENCH_CYCLE.json`` so runs can
be compared across commits.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro import native, perf
from repro.arch.counters import CounterKind
from repro.arch.vcore import VCoreConfig
from repro.experiments.scenarios import tier_agreement_grid
from repro.experiments.stats import record_bench_cycle
from repro.sim.batchpipe import BatchCell, run_batch
from repro.sim.pipeline import MultiSlicePipeline
from repro.sim.soa import TraceArrays
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase

PHASE = Phase(
    name="bench.cycle",
    instructions_m=10,
    ilp=3.5,
    mem_refs_per_inst=0.3,
    l1_miss_rate=0.15,
    working_set=((256, 0.6), (2048, 0.9)),
    branch_fraction=0.15,
    mispredict_rate=0.05,
)

TRACE_OPS = 60_000
CONFIG = VCoreConfig(slices=8, l2_kb=512)

COLUMNS = [field.name for field in dataclasses.fields(TraceArrays)]


def _counters(blocks):
    return [
        {kind.value: c.value(kind) for kind in CounterKind} for c in blocks
    ]


def _require_native():
    if native.batch_core() is None:
        pytest.skip(
            f"native batch core unavailable: {native.batch_core_error()}"
        )


@pytest.mark.benchmark(group="cycle")
def test_native_cell_speedup(benchmark, announce):
    """One kernel cell >= 3x faster than the per-cycle scan, bit-identical."""
    _require_native()
    trace = TraceGenerator(PHASE, seed=0).generate_arrays(TRACE_OPS)

    pipeline = MultiSlicePipeline(CONFIG)
    ops = trace.to_ops()
    start = time.perf_counter()
    result = pipeline.run(ops)
    reference_s = time.perf_counter() - start
    reference = (
        result,
        _counters(pipeline.counters),
        pipeline.memory.stats(),
    )

    def native_run():
        start = time.perf_counter()
        (outcome,) = run_batch([BatchCell(trace=trace, config=CONFIG)])
        elapsed = time.perf_counter() - start
        snapshot = (
            outcome.result,
            _counters(outcome.counters),
            outcome.memory_stats,
        )
        return elapsed, snapshot

    with perf.fast_paths(True):
        native_run()  # warm caches outside the timed region
        native_s, fast = benchmark.pedantic(
            native_run, rounds=1, iterations=1
        )
    speedup = reference_s / native_s

    announce(f"\n=== Cycle tier: {TRACE_OPS} ops on {CONFIG} ===")
    announce(f"per-cycle scan:  {reference_s:6.3f} s")
    announce(f"native kernel:   {native_s:6.3f} s")
    announce(f"speedup:         {speedup:6.1f}x")

    record_bench_cycle(
        "pipeline",
        {
            "trace_ops": TRACE_OPS,
            "config": str(CONFIG),
            "reference_seconds": round(reference_s, 4),
            "fast_seconds": round(native_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert fast == reference
    # Conservative floor; the kernel is typically two orders of
    # magnitude ahead on this trace.
    assert speedup >= 3.0


@pytest.mark.benchmark(group="cycle")
def test_trace_generator_speedup(benchmark, announce):
    """Column generation: same columns, same RNG state, >= 10x faster."""
    _require_native()

    def generate():
        generator = TraceGenerator(PHASE, seed=0)
        start = time.perf_counter()
        trace = generator.generate_arrays(TRACE_OPS)
        return time.perf_counter() - start, trace, generator.rng.getstate()

    with perf.fast_paths(False):
        reference_s, reference, reference_state = generate()
    with perf.fast_paths(True):
        generate()  # warm the loaded core outside the timed region
        fast_s, fast, fast_state = benchmark.pedantic(
            generate, rounds=1, iterations=1
        )
    speedup = reference_s / fast_s

    announce(f"\n=== Trace generator: {TRACE_OPS} ops ===")
    announce(f"scalar loop:  {reference_s * 1e3:8.1f} ms")
    announce(f"compiled:     {fast_s * 1e3:8.1f} ms")
    announce(f"speedup:      {speedup:8.2f}x")

    record_bench_cycle(
        "trace_generator",
        {
            "trace_ops": TRACE_OPS,
            "reference_seconds": round(reference_s, 4),
            "fast_seconds": round(fast_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    for name in COLUMNS:
        assert np.array_equal(getattr(fast, name), getattr(reference, name))
    assert fast_state == reference_state
    # Conservative floor; the compiled port is typically ~40x ahead of
    # the scalar loop on this trace.
    assert speedup >= 10.0


@pytest.mark.benchmark(group="cycle")
def test_batch_tier_throughput(benchmark, announce):
    """Struct-of-arrays batch tier >= 8x the per-cell object pipeline.

    Full tier-agreement grid, jobs=1 on both sides so the comparison
    is pure engine speed: batched lockstep stepping through the
    compiled kernel versus one object-pipeline run per cell (the
    per-cell side runs with the native core off, so each cell takes
    the per-cycle engine).  Results must be bit-identical; the
    ``cells_per_second`` series lands in ``BENCH_CYCLE.json``.
    """
    _require_native()
    enabled = native.native_enabled()
    native.set_native_enabled(False)
    try:
        per_cell, per_cell_timing = tier_agreement_grid(jobs=1, batch=False)
    finally:
        native.set_native_enabled(enabled)

    tier_agreement_grid(jobs=1, batch=True)  # warm outside the timed region
    batched, batched_timing = benchmark.pedantic(
        lambda: tier_agreement_grid(jobs=1, batch=True),
        rounds=1,
        iterations=1,
    )
    speedup = (
        batched_timing["cells_per_second"]
        / per_cell_timing["cells_per_second"]
    )

    announce(f"\n=== Batch tier ({batched_timing['cells']} cells) ===")
    announce(f"per-cell:  {per_cell_timing['cells_per_second']:8.1f} cells/s")
    announce(f"batched:   {batched_timing['cells_per_second']:8.1f} cells/s")
    announce(f"speedup:   {speedup:8.1f}x")

    record_bench_cycle(
        "batch_tier",
        {
            "cells_per_second": {
                "per_cell": per_cell_timing["cells_per_second"],
                "batched": batched_timing["cells_per_second"],
            },
            "per_cell": per_cell_timing,
            "batched": batched_timing,
            "speedup": round(speedup, 1),
        },
    )
    assert batched == per_cell
    # The floor is the batch tier's original acceptance bar.
    assert speedup >= 8.0


@pytest.mark.benchmark(group="cycle")
def test_tier_sweep_sharding(benchmark, announce):
    """Job count is invisible in the results, visible in the clock."""
    apps = ("apache", "mcf")

    serial, serial_timing = tier_agreement_grid(
        app_names=apps, instructions=6000, jobs=1
    )
    jobs = max(2, min(4, os.cpu_count() or 1))
    parallel, parallel_timing = benchmark.pedantic(
        lambda: tier_agreement_grid(app_names=apps, instructions=6000, jobs=jobs),
        rounds=1,
        iterations=1,
    )

    announce(f"\n=== Tier-agreement sweep ({serial_timing['cells']} cells) ===")
    announce(f"serial (jobs=1):   {serial_timing['wall_seconds']:6.3f} s")
    announce(f"parallel (jobs={jobs}): {parallel_timing['wall_seconds']:6.3f} s")

    record_bench_cycle(
        "tier_sweep",
        {
            "serial": serial_timing,
            "parallel": parallel_timing,
        },
    )
    assert list(serial) == list(parallel)
    assert serial == parallel
    if (os.cpu_count() or 1) >= 2:
        # With real cores available the pool must pay for itself; the
        # generous factor absorbs process start-up on small grids.
        assert parallel_timing["wall_seconds"] < serial_timing["wall_seconds"] * 1.2
