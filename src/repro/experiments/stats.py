"""Multi-seed statistics and the parallel sweep executor.

Single runs carry seed-dependent noise (measurement noise, exploration
choices).  This module repeats an experiment across seeds and reports
mean and spread, so claims like "CASH lands at 1.2x optimal" come with
error bars.

Experiment grids are embarrassingly parallel: every (application,
allocator, seed) cell is an independent simulation with an explicit
seed.  :func:`run_cells` maps a list of :class:`CellSpec` over a
process pool and returns results in spec order, so a parallel sweep is
byte-for-byte identical to the serial one — only faster.  ``jobs=1``
(or a single cell) runs inline with no pool at all.

Multi-tenant provider runs shard the same way: a
:class:`ProviderCellSpec` freezes one whole
:meth:`~repro.cloud.provider.CloudProvider.run` (customer mix,
overcommit, fabric shape, seed) and :func:`run_cells` dispatches both
spec kinds over the one executor, so a (seed × policy-mix ×
overcommit) provider grid fans out exactly like a single-tenant sweep.
Provider timings land in ``BENCH_CLOUD.json``
(:func:`record_bench_cloud`) next to the engine's ``BENCH_PERF.json``.

Worker processes are configured exactly once, by the pool
``initializer`` (:func:`_worker_setup`): the FAST switch and the
sanitizer flag travel through its arguments, so no per-cell code
re-derives process state and fork and spawn start methods behave
identically.  Each worker keeps its own operating-point tables, so a
table is built at most once per worker; every pool task returns its
cell's store-counter delta next to the result, and the parent adds
them up so :func:`repro.sim.optstore.counters_fleet` covers the whole
sweep.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import perf
from repro.analysis import sanitize
from repro.arch.vcore import VCoreConfig
from repro.cloud.traffic import TrafficSpec
from repro.experiments.harness import RunResult
from repro.experiments.scenarios import (
    run_app_with_allocator,
    run_provider_mix,
    run_service_cell,
    run_tier_batch,
    run_tier_cell,
)

try:  # POSIX advisory file locks guard the bench-report merge.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]
from repro.sim import optstore


@dataclass(frozen=True)
class Summary:
    """Mean and sample standard deviation of a metric across seeds."""

    values: tuple

    def __post_init__(self) -> None:
        # Accept any iterable of numbers; freeze it as a tuple so the
        # dataclass stays hashable and the statistics stay stable.
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a summary needs at least one value")

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def median(self) -> float:
        """Middle value (average of the middle two for even counts)."""
        ordered = sorted(self.values)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[middle])
        return (ordered[middle - 1] + ordered[middle]) / 2.0

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.std:.4f}"


@dataclass(frozen=True)
class CellSpec:
    """One independent experiment cell of a sweep grid.

    Frozen and fully value-typed so it pickles cleanly into worker
    processes; the explicit ``seed`` is what makes a parallel sweep
    reproduce the serial one exactly.
    """

    app_name: str
    kind: str
    intervals: int = 1000
    seed: int = 0
    candidates: Optional[Tuple[VCoreConfig, ...]] = None


@dataclass(frozen=True)
class ProviderCellSpec:
    """One multi-tenant provider run of a sweep grid.

    ``mix`` is the frozen (app_name, policy) pair per tenant; tenant
    ``i`` arrives at ``i * arrival_stride``.  Like :class:`CellSpec`
    the spec is fully value-typed (it pickles into worker processes)
    and the explicit seed makes sharded grids bit-identical to serial
    ones.
    """

    mix: Tuple[Tuple[str, str], ...]
    intervals: int = 300
    seed: int = 0
    overcommit: float = 1.0
    fabric_width: int = 16
    fabric_height: int = 16
    arrival_stride: int = 5


@dataclass(frozen=True)
class TierCellSpec:
    """One cycle-tier vs fast-tier agreement cell of a sweep grid.

    Freezes a single (application phase, virtual core) measurement:
    generate a trace of ``instructions`` micro-ops with the explicit
    ``seed``, run it on the cycle tier, and pair the measured IPC with
    the analytic prediction.  Fully value-typed like the other specs so
    it pickles into worker processes and sharded grids stay
    bit-identical to serial ones.
    """

    app_name: str
    phase_index: int
    config: VCoreConfig
    instructions: int = 4000
    seed: int = 0


@dataclass(frozen=True)
class TierBatchSpec:
    """A worker-sized batch of tier cells for the struct-of-arrays tier.

    Where a :class:`TierCellSpec` dispatches one (phase, config)
    simulation, a batch spec carries a whole slab of them so one worker
    runs every cell in one :func:`repro.sim.batchpipe.run_batch` call —
    traces shared across configurations are generated, encoded and
    renamed once, and the dispatch cost amortizes over the batch.  Its
    result is the tuple of per-cell :class:`~repro.sim.ssim.CycleResult`s
    in cell order, bit-identical to dispatching each cell singly.
    """

    cells: Tuple[TierCellSpec, ...]


@dataclass(frozen=True)
class ServiceCellSpec:
    """One provider-service run of a sweep grid.

    Wraps a frozen :class:`~repro.cloud.traffic.TrafficSpec` (the
    open-loop demand) plus the provider-side knobs.  Fully value-typed
    like the other specs: it pickles into worker processes, and the
    traffic seed makes sharded grids bit-identical to serial ones.
    """

    traffic: TrafficSpec
    overcommit: float = 1.0
    fabric_width: int = 24
    fabric_height: int = 24
    converged_after: int = 12
    reprobe_every: int = 48


AnyCellSpec = Union[
    CellSpec,
    ProviderCellSpec,
    ServiceCellSpec,
    TierCellSpec,
    TierBatchSpec,
]


def run_cell(spec: AnyCellSpec):
    """Run one cell (module-level so process pools can pickle it)."""
    if isinstance(spec, TierBatchSpec):
        return tuple(run_tier_batch(spec.cells))
    if isinstance(spec, ServiceCellSpec):
        return run_service_cell(spec)
    if isinstance(spec, ProviderCellSpec):
        return run_provider_mix(
            spec.mix,
            intervals=spec.intervals,
            seed=spec.seed,
            overcommit=spec.overcommit,
            fabric_width=spec.fabric_width,
            fabric_height=spec.fabric_height,
            arrival_stride=spec.arrival_stride,
        )
    if isinstance(spec, TierCellSpec):
        return run_tier_cell(
            spec.app_name,
            spec.phase_index,
            spec.config,
            instructions=spec.instructions,
            seed=spec.seed,
        )
    return run_app_with_allocator(
        spec.app_name,
        spec.kind,
        intervals=spec.intervals,
        candidates=spec.candidates,
        seed=spec.seed,
    )


class WorkerLostError(RuntimeError):
    """A sweep worker died before every cell returned.

    Raised by :func:`run_cells` in place of the pool's bare
    :class:`~concurrent.futures.process.BrokenProcessPool` (chained as
    its cause): names the first cell without a result and how many
    cells were lost.
    """


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: one per CPU."""
    return os.cpu_count() or 1


def _worker_setup(fast: bool, sanitize_enabled: bool) -> None:
    """Pool initializer: configure a worker once, not once per cell.

    Everything a cell's engine behaviour depends on travels here
    explicitly — the FAST switch and the sanitizer flag — so a worker
    is configured exactly like its parent whether the pool forked or
    spawned it, and no per-cell code re-derives process state.
    """
    perf.set_fast_paths(fast)
    sanitize.set_enabled(sanitize_enabled)


def _run_cell_counted(spec: AnyCellSpec) -> Tuple[object, Dict[str, int]]:
    """Pool task: one cell's result and the store-counter delta it
    caused in this worker.  Calls :func:`run_cell` through the module
    global, so a wrapper installed on it sees every cell."""
    before = optstore.counters_local()
    result = run_cell(spec)
    return result, optstore.counters_since(before)


def _group_tier_batches(
    specs: List[AnyCellSpec], jobs: int
) -> Tuple[List[AnyCellSpec], List[List[int]]]:
    """Fold the :class:`TierCellSpec` entries into per-worker batches.

    Returns ``(grouped_specs, slots)`` where ``slots[j]`` lists the
    original result positions grouped spec ``j`` covers (one position
    for pass-through specs, a slab of them for a batch).  Tier cells
    are chunked contiguously into at most ``jobs`` batches so every
    worker receives one slab; order within and across slabs is the
    original spec order, keeping sharded results byte-stable.
    """
    tier_positions = [
        index
        for index, spec in enumerate(specs)
        if isinstance(spec, TierCellSpec)
    ]
    if len(tier_positions) <= 1:
        return specs, [[index] for index in range(len(specs))]
    batches = min(jobs, len(tier_positions))
    size, extra = divmod(len(tier_positions), batches)
    chunks: List[List[int]] = []
    cursor = 0
    for index in range(batches):
        take = size + (1 if index < extra else 0)
        chunks.append(tier_positions[cursor : cursor + take])
        cursor += take
    grouped: List[AnyCellSpec] = []
    slots: List[List[int]] = []
    chunk_index = 0
    for index, spec in enumerate(specs):
        if not isinstance(spec, TierCellSpec):
            grouped.append(spec)
            slots.append([index])
            continue
        if chunk_index < len(chunks) and index == chunks[chunk_index][0]:
            chunk = chunks[chunk_index]
            chunk_index += 1
            grouped.append(
                TierBatchSpec(
                    cells=tuple(specs[position] for position in chunk)
                )
            )
            slots.append(list(chunk))
        # Tier cells that are not a chunk head ride inside their batch.
    return grouped, slots


def run_cells(
    specs: Sequence[AnyCellSpec],
    jobs: Optional[int] = None,
    tier_batch: bool = False,
) -> List:
    """Run every cell; results come back in spec order regardless of
    completion order (``ProcessPoolExecutor.map`` preserves input
    order), so downstream reports are byte-stable across job counts.
    Single-tenant and provider specs may share one batch; each result
    slot carries whatever its spec kind produces (a
    :class:`~repro.experiments.harness.RunResult` or a
    :class:`~repro.cloud.service.ServiceReport`).

    With ``tier_batch`` enabled the :class:`TierCellSpec` entries are
    grouped into per-worker :class:`TierBatchSpec` slabs before
    dispatch and the slab results are flattened back into the original
    slots afterwards — the struct-of-arrays tier then runs each slab's
    cells in one kernel call.  Batching is invisible in the results
    (bit-identical per cell); it only changes the wall clock.

    A pool worker that dies mid-sweep raises :class:`WorkerLostError`,
    naming the first cell without a result and how many were lost.
    """
    specs = list(specs)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if tier_batch:
        grouped, slots = _group_tier_batches(specs, jobs)
        grouped_results = run_cells(grouped, jobs=jobs)
        flat: List = [None] * len(specs)
        for spec, positions, result in zip(grouped, slots, grouped_results):
            if isinstance(spec, TierBatchSpec):
                for position, cell_result in zip(positions, result):
                    flat[position] = cell_result
            else:
                flat[positions[0]] = result
        return flat
    if jobs == 1 or len(specs) <= 1:
        return [run_cell(spec) for spec in specs]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        initializer=_worker_setup,
        initargs=(perf.FAST, sanitize.ENABLED),
    ) as pool:
        counted: List[Tuple[object, Dict[str, int]]] = []
        try:
            for result in pool.map(_run_cell_counted, specs):
                counted.append(result)
        except BrokenProcessPool as error:
            lost = len(specs) - len(counted)
            raise WorkerLostError(
                f"a sweep worker died; {lost} of {len(specs)} cells lost, "
                f"the first without a result: {specs[len(counted)]!r}"
            ) from error
    for _, delta in counted:
        optstore.absorb(delta)
    return [result for result, _ in counted]


@dataclass(frozen=True)
class SeededResult:
    """Cost and violation statistics for one (app, allocator) cell."""

    app_name: str
    allocator_kind: str
    cost: Summary
    violation_percent: Summary
    seeds: tuple


def run_across_seeds(
    app_name: str,
    kind: str,
    seeds: Sequence[int] = (0, 1, 2),
    intervals: int = 1000,
    jobs: Optional[int] = 1,
) -> SeededResult:
    """Run one experiment cell across several seeds."""
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [
        CellSpec(app_name=app_name, kind=kind, intervals=intervals, seed=seed)
        for seed in seeds
    ]
    results = run_cells(specs, jobs=jobs)
    return SeededResult(
        app_name=app_name,
        allocator_kind=kind,
        cost=Summary(tuple(r.cost_dollars for r in results)),
        violation_percent=Summary(tuple(r.violation_percent for r in results)),
        seeds=tuple(seeds),
    )


def seed_stability_report(
    app_names: Sequence[str],
    kind: str = "cash",
    seeds: Sequence[int] = (0, 1, 2),
    intervals: int = 1000,
    jobs: Optional[int] = 1,
) -> Dict[str, SeededResult]:
    """Stability of one allocator across seeds for several apps.

    The whole (app × seed) grid is submitted as one flat batch so a
    process pool can overlap everything, then regrouped per app.
    """
    names = list(app_names)
    specs = [
        CellSpec(app_name=name, kind=kind, intervals=intervals, seed=seed)
        for name in names
        for seed in seeds
    ]
    results = run_cells(specs, jobs=jobs)
    report: Dict[str, SeededResult] = {}
    stride = len(tuple(seeds))
    for index, name in enumerate(names):
        cell_results = results[index * stride : (index + 1) * stride]
        report[name] = SeededResult(
            app_name=name,
            allocator_kind=kind,
            cost=Summary(tuple(r.cost_dollars for r in cell_results)),
            violation_percent=Summary(
                tuple(r.violation_percent for r in cell_results)
            ),
            seeds=tuple(seeds),
        )
    return report


def sweep(
    app_names: Sequence[str],
    kinds: Sequence[str],
    seeds: Sequence[int] = (0,),
    intervals: int = 1000,
    jobs: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, SeededResult]], Dict[str, object]]:
    """The full (app × allocator × seed) grid, parallel over cells.

    Returns ``(results[kind][app], timing)`` where ``timing`` is a
    JSON-ready report (wall seconds, jobs, cell count, cells/second)
    suitable for :func:`record_bench_perf`.
    """
    names = list(app_names)
    kind_list = list(kinds)
    seed_list = list(seeds)
    specs = [
        CellSpec(app_name=name, kind=kind, intervals=intervals, seed=seed)
        for name in names
        for kind in kind_list
        for seed in seed_list
    ]
    if jobs is None:
        jobs = default_jobs()
    start = time.perf_counter()
    results = run_cells(specs, jobs=jobs)
    elapsed = time.perf_counter() - start
    grouped: Dict[str, Dict[str, SeededResult]] = {k: {} for k in kind_list}
    stride = len(seed_list)
    cursor = 0
    for name in names:
        for kind in kind_list:
            cell_results = results[cursor : cursor + stride]
            cursor += stride
            grouped[kind][name] = SeededResult(
                app_name=name,
                allocator_kind=kind,
                cost=Summary(tuple(r.cost_dollars for r in cell_results)),
                violation_percent=Summary(
                    tuple(r.violation_percent for r in cell_results)
                ),
                seeds=tuple(seed_list),
            )
    timing: Dict[str, object] = {
        "cells": len(specs),
        "jobs": jobs,
        "intervals": intervals,
        "wall_seconds": round(elapsed, 4),
        "cells_per_second": round(len(specs) / elapsed, 4) if elapsed else None,
        "apps": names,
        "kinds": kind_list,
        "seeds": seed_list,
    }
    from repro.sim.optables import optable_cache_stats

    timing["optable_store"] = optable_cache_stats()
    return grouped, timing


def _load_report(target: Path) -> Dict[str, object]:
    """The sections of the report at ``target``, or a ``ValueError``."""
    try:
        data = json.loads(target.read_text())
    except ValueError as error:
        raise ValueError(
            f"{target} is not valid JSON ({error}); fix or delete it, "
            "then record again"
        ) from error
    if not isinstance(data, dict):
        raise ValueError(
            f"{target} is not a JSON object of sections; fix or delete "
            "it, then record again"
        )
    return data


def record_bench_perf(
    section: str,
    payload: Dict[str, object],
    path: str = "BENCH_PERF.json",
) -> Path:
    """Merge ``payload`` under ``section`` in the timing report file.

    Concurrency-safe merge-update: the read-merge-write runs under an
    advisory file lock (on POSIX hosts) and the new report is staged in
    a unique temp file in the target directory then published with an
    atomic rename — so parallel benchmark runs writing different
    sections interleave cleanly instead of one clobbering the other's
    keys, and a reader never observes a half-written file.

    A missing file starts a fresh report.  An existing one that is not
    a JSON object raises :class:`ValueError` and stays untouched:
    writing only the new section would drop every other one.
    """
    target = Path(path)
    lock_path = target.with_name(target.name + ".lock")
    lock_handle = None
    if fcntl is not None:
        lock_handle = open(lock_path, "a+")
        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
    try:
        data: Dict[str, object] = {}
        if target.exists():
            data = _load_report(target)
        data[section] = payload
        handle, scratch_name = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=str(target.parent)
        )
        try:
            with os.fdopen(handle, "w") as scratch:
                scratch.write(
                    json.dumps(data, indent=2, sort_keys=True) + "\n"
                )
            os.replace(scratch_name, target)
        finally:
            if os.path.exists(scratch_name):
                os.unlink(scratch_name)
    finally:
        if lock_handle is not None:
            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
            lock_handle.close()
    return target


BENCH_CLOUD_PATH = "BENCH_CLOUD.json"
"""Provider-loop timings live here, next to ``BENCH_PERF.json``."""


def record_bench_cloud(
    section: str,
    payload: Dict[str, object],
    path: str = BENCH_CLOUD_PATH,
) -> Path:
    """Merge ``payload`` under ``section`` in ``BENCH_CLOUD.json``."""
    return record_bench_perf(section, payload, path=path)


BENCH_CYCLE_PATH = "BENCH_CYCLE.json"
"""Cycle-tier timings (the native kernel against the per-cycle engine,
and the tier-agreement sweep) live here, next to the other benchmark
reports."""


def record_bench_cycle(
    section: str,
    payload: Dict[str, object],
    path: str = BENCH_CYCLE_PATH,
) -> Path:
    """Merge ``payload`` under ``section`` in ``BENCH_CYCLE.json``."""
    return record_bench_perf(section, payload, path=path)
