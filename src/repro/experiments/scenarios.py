"""Canonical experiment definitions for every figure and table.

Each function here builds exactly the comparison a paper artefact
reports:

* :func:`compare_allocators` — Fig. 7 / Table III: Optimal, Convex
  Optimization, Race-to-Idle, and CASH on the fine-grain architecture;
* :func:`compare_architectures` — Fig. 10: {coarse, fine} × {race,
  adaptive};
* :func:`apache_timeseries` — Fig. 9: the oscillating-load apache run;
* :func:`x264_timeseries` — Figs. 2 and 8: the x264 phase study;
* :func:`multitenant_grid` — the Sec. VI multi-tenant provider
  economics: a (policy-mix × overcommit × seed) grid of
  :class:`~repro.cloud.provider.CloudProvider` runs, sharded over the
  same process pool as the single-tenant sweeps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.baselines.convex import ConvexOptimizationAllocator, average_points
from repro.baselines.heterogeneous import (
    BIG_CONFIG,
    coarse_grain_configs,
)
from repro.baselines.oracle import OracleAllocator
from repro.baselines.race import RaceToIdleAllocator, worst_case_config
from repro.arch.reconfig import ReconfigCostModel
from repro.experiments.harness import (
    Allocator,
    CASHAllocator,
    LatencySimulator,
    RunResult,
    ThroughputSimulator,
    qos_target_for,
)
from repro.sim.optables import OperatingPointTable
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.apps import APP_NAMES, get_app
from repro.workloads.phase import PhasedApplication
from repro.workloads.requests import OscillatingLoad

APACHE_TARGET_LATENCY_CYCLES = 110_000.0
"""Fig. 9: 110 Kcycles per request, the smallest worst-case latency."""

DEFAULT_INTERVALS = 1000
"""The paper samples performance 1000 times per application."""

REALISTIC_RECONFIG_COSTS = ReconfigCostModel(dirty_fraction=0.25)
"""Section VI-A: the 8000-cycle L2 flush is the all-lines-dirty worst
case; "in practice we expect that we will not flush the whole cache as
only a small number of lines will be dirty"."""


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, as the paper aggregates costs.

    The logarithms add left to right in a loop, not with builtin
    ``sum()``, which compensates float rounding from CPython 3.12 on:
    the mean is then the same on every supported interpreter.
    """
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values}")
    total = 0.0
    for value in values:
        total += math.log(value)
    return math.exp(total / len(values))


def default_load_for(app: PhasedApplication) -> OscillatingLoad:
    """The condensed oscillating request stream of Fig. 9."""
    return OscillatingLoad(
        mean_rate=800.0,
        amplitude=550.0,
        period_cycles=3.2e8,
        floor=100.0,
    )


def latency_worst_case_config(
    sim: LatencySimulator,
    candidates: Optional[Sequence[VCoreConfig]] = None,
) -> VCoreConfig:
    """Cheapest config meeting the latency target at peak load, any phase."""
    pool = list(candidates) if candidates is not None else list(sim.space)
    peak = sim.load.peak_rate
    feasible = [
        config
        for config in pool
        if all(
            sim.qos_of(phase, config, peak) >= 1.0 for phase in sim.app.phases
        )
    ]
    if feasible:
        return min(feasible, key=lambda c: c.cost_rate(sim.cost_model))
    return max(
        pool,
        key=lambda c: min(
            sim.qos_of(phase, c, peak) for phase in sim.app.phases
        ),
    )


class _LatencyConvexAllocator(ConvexOptimizationAllocator):
    """Convex baseline rebased onto latency QoS points."""

    def __init__(
        self,
        sim: LatencySimulator,
        candidates: Optional[Sequence[VCoreConfig]] = None,
    ) -> None:
        # Build average-case points at the mean request rate, one per
        # configuration, mirroring the offline-profile construction.
        pool = list(candidates) if candidates is not None else list(sim.space)
        # Every sum here adds left to right in a loop, not with builtin
        # ``sum()``, which compensates float rounding from CPython 3.12
        # on (as ``convex.average_points`` adds its cycle counts).
        mean_rate = getattr(sim.load, "mean_rate", None)
        if mean_rate is None:
            rates = list(sim.load)
            total_rate = 0.0
            for rate in rates:
                total_rate += rate
            mean_rate = total_rate / len(rates)
        from repro.runtime.optimizer import ConfigPoint

        weights = [phase.instructions for phase in sim.app.phases]
        total = 0.0
        for w in weights:
            total += w
        points = []
        for config in pool:
            weighted = 0.0
            for w, phase in zip(weights, sim.app.phases):
                weighted += w * sim.qos_of(phase, config, mean_rate)
            qos = weighted / total
            points.append(
                ConfigPoint(
                    config=config,
                    speedup=qos,
                    cost_rate=config.cost_rate(sim.cost_model),
                )
            )
        # Bypass the parent constructor: install precomputed points.
        # As an OperatingPointTable (like ``average_points``) the static
        # profile's envelope is built once per cell, not per interval.
        self.qos_goal = 1.0
        self.points = OperatingPointTable(tuple(points))
        base_point = min(points, key=lambda p: p.cost_rate)
        self._base_qos = max(base_point.speedup, 1e-9)
        from repro.runtime.controller import DeadbeatController

        self.controller = DeadbeatController(
            qos_goal=self.qos_goal, base_qos=self._base_qos
        )
        self._max_average_qos = max(p.speedup for p in points)


def make_throughput_simulator(
    app: PhasedApplication,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    seed: int = 0,
    interval_cycles: float = 2.5e5,
) -> ThroughputSimulator:
    """Simulator with the paper's QoS rule.

    The default control interval (250 Kcycles) gives ~60-90 samples per
    application phase, so the 1000-sample runs see every phase several
    times while phase *transitions* stay rare relative to samples — the
    regime the paper's violation percentages describe.
    """
    goal = qos_target_for(app, model, space)
    return ThroughputSimulator(
        app=app,
        qos_goal=goal,
        model=model,
        space=space,
        seed=seed,
        interval_cycles=interval_cycles,
        reconfig_costs=REALISTIC_RECONFIG_COSTS,
    )


def make_latency_simulator(
    app: PhasedApplication,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    seed: int = 0,
) -> LatencySimulator:
    return LatencySimulator(
        app=app,
        load=default_load_for(app),
        target_latency_cycles=APACHE_TARGET_LATENCY_CYCLES,
        model=model,
        space=space,
        seed=seed,
    )


def _build_allocator(
    kind: str,
    app: PhasedApplication,
    sim: ThroughputSimulator | LatencySimulator,
    model: PerformanceModel,
    space: ConfigurationSpace,
    candidates: Optional[Sequence[VCoreConfig]] = None,
    seed: int = 0,
) -> Allocator:
    """Instantiate one of the four allocator kinds for a simulator."""
    configs = list(candidates) if candidates is not None else list(space)
    if isinstance(sim, ThroughputSimulator):
        goal = sim.qos_goal
        if kind == "optimal":
            return OracleAllocator(qos_goal=goal)
        if kind == "race":
            config = worst_case_config(
                app, goal, model, space, sim.cost_model, candidates=configs
            )
            return RaceToIdleAllocator(
                config=config, qos_goal=goal, cost_model=sim.cost_model
            )
        if kind == "convex":
            return ConvexOptimizationAllocator(
                app=app,
                qos_goal=goal,
                model=model,
                space=space,
                cost_model=sim.cost_model,
                candidates=configs,
            )
        if kind == "cash":
            return CASHAllocator(configs=configs, qos_goal=goal, seed=seed)
    else:
        if kind == "optimal":
            return OracleAllocator(qos_goal=1.0)
        if kind == "race":
            config = latency_worst_case_config(sim, candidates=configs)
            return RaceToIdleAllocator(
                config=config,
                qos_goal=1.0,
                cost_model=sim.cost_model,
                can_idle=False,
            )
        if kind == "convex":
            return _LatencyConvexAllocator(sim, candidates=configs)
        if kind == "cash":
            # Server load drifts continuously (the oscillating request
            # rate), so per-configuration estimates lag by roughly the
            # per-interval load delta; a wider guard band absorbs that
            # tracking error.
            return CASHAllocator(
                configs=configs, qos_goal=1.0, guard_band=0.09, seed=seed
            )
    raise ValueError(f"unknown allocator kind {kind!r}")


def run_app_with_allocator(
    app_name: str,
    kind: str,
    intervals: int = DEFAULT_INTERVALS,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    candidates: Optional[Sequence[VCoreConfig]] = None,
    seed: int = 0,
) -> RunResult:
    """Run one (application, allocator) cell."""
    app = get_app(app_name)
    if app.qos_kind == "throughput":
        sim = make_throughput_simulator(app, model, space, seed=seed)
        allocator = _build_allocator(
            kind, app, sim, model, space, candidates=candidates, seed=seed
        )
        # Warm up for one full pass over the application so recorded
        # samples describe steady-state operation: the runtime has seen
        # every phase at least once (Section VI-C's measurements follow
        # the oracle construction, which is itself per-phase steady
        # state).
        pass_cycles = app.total_instructions / sim.qos_goal
        warmup = int(pass_cycles / sim.interval_cycles) + 1
        return sim.run(allocator, intervals=intervals, warmup_intervals=warmup)
    sim = make_latency_simulator(app, model, space, seed=seed)
    allocator = _build_allocator(
        kind, app, sim, model, space, candidates=candidates, seed=seed
    )
    return sim.run(allocator, intervals=intervals)


ALLOCATOR_KINDS: Tuple[Tuple[str, str], ...] = (
    ("optimal", "Optimal"),
    ("convex", "Convex Optimization"),
    ("race", "Race to Idle"),
    ("cash", "CASH"),
)


def compare_allocators(
    app_names: Optional[Sequence[str]] = None,
    intervals: int = DEFAULT_INTERVALS,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, Dict[str, RunResult]]:
    """Fig. 7 / Table III: all four allocators on every application.

    Returns ``results[allocator_name][app_name]``.  Every (app,
    allocator) cell is independent and explicitly seeded, so ``jobs``
    only changes wall-clock time, never the results.
    """
    # Imported here: stats imports this module for run_app_with_allocator.
    from repro.experiments.stats import CellSpec, run_cells

    names = list(app_names) if app_names is not None else list(APP_NAMES)
    specs = [
        CellSpec(app_name=app_name, kind=kind, intervals=intervals, seed=seed)
        for app_name in names
        for kind, _ in ALLOCATOR_KINDS
    ]
    cell_results = iter(run_cells(specs, jobs=jobs))
    results: Dict[str, Dict[str, RunResult]] = {
        label: {} for _, label in ALLOCATOR_KINDS
    }
    for app_name in names:
        for _, label in ALLOCATOR_KINDS:
            results[label][app_name] = next(cell_results)
    return results


ARCHITECTURE_KINDS: Tuple[Tuple[str, str, str], ...] = (
    ("coarse", "race", "CoarseGrain race"),
    ("coarse", "cash", "CoarseGrain adapt"),
    ("fine", "race", "FineGrain race"),
    ("fine", "cash", "CASH"),
)


def compare_architectures(
    app_names: Optional[Sequence[str]] = None,
    intervals: int = DEFAULT_INTERVALS,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, Dict[str, RunResult]]:
    """Fig. 10: coarse vs fine grain × race vs adaptive.

    The coarse-grain architecture offers only the big (8S/4MB) and
    little (1S/128KB) cores; its race-to-idle variant cannot switch
    cores at all and must race the big one.
    """
    from repro.experiments.stats import CellSpec, run_cells

    names = list(app_names) if app_names is not None else list(APP_NAMES)
    coarse = tuple(coarse_grain_configs())
    specs = []
    for app_name in names:
        for grain, kind, _ in ARCHITECTURE_KINDS:
            candidates = coarse if grain == "coarse" else None
            if grain == "coarse" and kind == "race":
                # A fixed heterogeneous machine races the big core only.
                candidates = (BIG_CONFIG,)
            specs.append(
                CellSpec(
                    app_name=app_name,
                    kind=kind,
                    intervals=intervals,
                    seed=seed,
                    candidates=candidates,
                )
            )
    cell_results = iter(run_cells(specs, jobs=jobs))
    results: Dict[str, Dict[str, RunResult]] = {
        label: {} for _, _, label in ARCHITECTURE_KINDS
    }
    for app_name in names:
        for _, _, label in ARCHITECTURE_KINDS:
            results[label][app_name] = next(cell_results)
    return results


def x264_timeseries(
    intervals: int = 220,
    kinds: Sequence[str] = ("convex", "race", "cash"),
    seed: int = 0,
) -> Dict[str, RunResult]:
    """Figs. 2 and 8: per-interval cost rate and normalized performance.

    220 one-Mcycle intervals ≈ one full pass over the 10 x264 phases
    (the figures' 0–180 Mcycle x-axis).
    """
    labels = dict(ALLOCATOR_KINDS)
    return {
        labels[k]: run_app_with_allocator("x264", k, intervals=intervals, seed=seed)
        for k in kinds
    }


PROVIDER_APP_MIX: Tuple[str, ...] = (
    "bzip",
    "hmmer",
    "sjeng",
    "lib",
    "omnetpp",
    "ferret",
)
"""The customer mix every provider cell cycles through (all throughput
apps, so per-tenant QoS goals come from the paper's rule)."""

PROVIDER_POLICY_MIXES: Tuple[str, ...] = ("race", "cash", "half")
"""Fleet policies: every tenant racing its reservation, every tenant
running CASH, or an alternating half-and-half mix."""


def provider_mix(
    policy_mix: str, tenants: int = 12
) -> Tuple[Tuple[str, str], ...]:
    """(app, policy) pairs for one fleet of ``tenants`` customers."""
    if policy_mix not in PROVIDER_POLICY_MIXES:
        raise ValueError(
            f"policy_mix must be one of {PROVIDER_POLICY_MIXES}, "
            f"got {policy_mix!r}"
        )
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    pairs = []
    for index in range(tenants):
        app_name = PROVIDER_APP_MIX[index % len(PROVIDER_APP_MIX)]
        if policy_mix == "half":
            policy = "cash" if index % 2 == 0 else "race"
        else:
            policy = policy_mix
        pairs.append((app_name, policy))
    return tuple(pairs)


def run_provider_mix(
    mix: Sequence[Tuple[str, str]],
    intervals: int = 300,
    seed: int = 0,
    overcommit: float = 1.0,
    fabric_width: int = 16,
    fabric_height: int = 16,
    arrival_stride: int = 5,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
):
    """Run one multi-tenant provider cell; returns a ServiceReport.

    Tenant ``i`` runs ``mix[i]`` and arrives at interval
    ``i * arrival_stride`` — everything is derived from the arguments,
    so a cell is a pure function of its spec and parallel runs
    reproduce serial ones exactly.
    """
    from repro.arch.fabric import Fabric
    from repro.cloud.provider import CloudProvider
    from repro.cloud.tenant import Tenant

    tenants = []
    for index, (app_name, policy) in enumerate(mix):
        app = get_app(app_name)
        tenants.append(
            Tenant(
                tenant_id=index,
                app=app,
                qos_goal=qos_target_for(app, model, space),
                policy=policy,
                arrival_interval=index * arrival_stride,
            )
        )
    provider = CloudProvider(
        fabric=Fabric(width=fabric_width, height=fabric_height),
        model=model,
        space=space,
        overcommit=overcommit,
        seed=seed,
    )
    return provider.run(tenants, intervals=intervals)


def multitenant_grid(
    policy_mixes: Sequence[str] = PROVIDER_POLICY_MIXES,
    overcommits: Sequence[float] = (1.0, 1.5),
    seeds: Sequence[int] = (0,),
    tenants: int = 12,
    intervals: int = 300,
    fabric_width: int = 16,
    fabric_height: int = 16,
    jobs: Optional[int] = 1,
):
    """The provider-economics grid: (policy-mix × overcommit × seed).

    Returns ``(reports, timing)`` where ``reports`` maps
    ``(policy_mix, overcommit, seed)`` to its
    :class:`~repro.cloud.service.ServiceReport` and ``timing`` is a
    JSON-ready wall-clock record for ``BENCH_CLOUD.json``.  Cells fan
    out over the same process pool as the single-tenant sweeps; results
    are collected in spec order, so ``jobs`` never changes any report.
    """
    import time

    from repro.experiments.stats import (
        ProviderCellSpec,
        default_jobs,
        run_cells,
    )

    if jobs is None:
        jobs = default_jobs()
    specs = [
        ProviderCellSpec(
            mix=provider_mix(policy_mix, tenants=tenants),
            intervals=intervals,
            seed=seed,
            overcommit=overcommit,
            fabric_width=fabric_width,
            fabric_height=fabric_height,
        )
        for policy_mix in policy_mixes
        for overcommit in overcommits
        for seed in seeds
    ]
    start = time.perf_counter()
    results = run_cells(specs, jobs=jobs)
    elapsed = time.perf_counter() - start
    reports = {}
    cursor = iter(results)
    for policy_mix in policy_mixes:
        for overcommit in overcommits:
            for seed in seeds:
                reports[(policy_mix, overcommit, seed)] = next(cursor)
    timing = {
        "cells": len(specs),
        "tenants": tenants,
        "intervals": intervals,
        "fabric": f"{fabric_width}x{fabric_height}",
        "jobs": jobs,
        "wall_seconds": round(elapsed, 4),
        "cells_per_second": round(len(specs) / elapsed, 4) if elapsed else None,
        "policy_mixes": list(policy_mixes),
        "overcommits": list(overcommits),
        "seeds": list(seeds),
    }
    from repro.sim.optables import optable_cache_stats

    timing["optable_store"] = optable_cache_stats()
    return reports, timing


def run_service_cell(spec):
    """Run one service cell from its frozen spec.

    A cell is a pure function of the spec (traffic and noise streams
    are seed-derived), so sharded grids reproduce serial ones exactly,
    and FAST on/off, which switches the fabric, tables and noise to
    their scalar twins under the engine's one interval loop, does not
    change the report.
    """
    from repro.arch.fabric import Fabric
    from repro.cloud.service import ServiceEngine
    from repro.cloud.traffic import generate_traffic

    scenario = generate_traffic(spec.traffic)
    engine = ServiceEngine(
        scenario,
        fabric=Fabric(width=spec.fabric_width, height=spec.fabric_height),
        overcommit=spec.overcommit,
        converged_after=spec.converged_after,
        reprobe_every=spec.reprobe_every,
    )
    return engine.run()


def service_grid(
    tenant_counts: Sequence[int] = (256, 1024),
    horizon: int = 2000,
    seeds: Sequence[int] = (0,),
    overcommit: float = 2.0,
    fabric_width: int = 24,
    fabric_height: int = 24,
    activity: float = 0.15,
    jobs: Optional[int] = 1,
):
    """The always-on service grid: (tenant count × seed) churn cells.

    Returns ``(reports, timing)`` where ``reports`` maps
    ``(tenants, seed)`` to its
    :class:`~repro.cloud.service.ServiceReport` and ``timing`` is a
    JSON-ready record for ``BENCH_CLOUD.json`` — its headline rate is
    **tenant-intervals/second**, the resident tenant-intervals the
    engine covers per wall-clock second (it steps only the active
    ones).
    """
    import time

    from repro.cloud.traffic import TrafficSpec
    from repro.experiments.stats import (
        ServiceCellSpec,
        default_jobs,
        run_cells,
    )

    if jobs is None:
        jobs = default_jobs()
    specs = [
        ServiceCellSpec(
            traffic=TrafficSpec(
                tenants=tenants,
                horizon=horizon,
                seed=seed,
                activity=activity,
                lifetime_min=max(horizon / 16.0, 1.0),
                diurnal_period=max(horizon // 2, 1),
                diurnal_amplitude=0.5,
                flash_crowds=2,
                flash_duration=max(horizon // 50, 1),
                flash_boost=4.0,
            ),
            overcommit=overcommit,
            fabric_width=fabric_width,
            fabric_height=fabric_height,
        )
        for tenants in tenant_counts
        for seed in seeds
    ]
    start = time.perf_counter()
    results = run_cells(specs, jobs=jobs)
    elapsed = time.perf_counter() - start
    reports = {}
    cursor = iter(results)
    for tenants in tenant_counts:
        for seed in seeds:
            reports[(tenants, seed)] = next(cursor)
    tenant_intervals = sum(report.tenant_intervals for report in results)
    active_steps = sum(report.active_steps for report in results)
    timing = {
        "cells": len(specs),
        "tenant_counts": list(tenant_counts),
        "horizon": horizon,
        "fabric": f"{fabric_width}x{fabric_height}",
        "jobs": jobs,
        "wall_seconds": round(elapsed, 4),
        "tenant_intervals": tenant_intervals,
        "active_steps": active_steps,
        "tenant_intervals_per_second": (
            round(tenant_intervals / elapsed, 2) if elapsed else None
        ),
        "seeds": list(seeds),
    }
    from repro.sim.optables import optable_cache_stats

    timing["optable_store"] = optable_cache_stats()
    return reports, timing


TIER_APPS: Tuple[str, ...] = ("x264", "apache", "mcf")
"""Applications covered by the default tier-agreement sweep: the three
workloads the paper leans on for its mechanism studies (the x264 phase
study, the apache latency runs, the memory-bound mcf)."""

TIER_CONFIGS: Tuple[VCoreConfig, ...] = (
    VCoreConfig(slices=1, l2_kb=64),
    VCoreConfig(slices=2, l2_kb=128),
    VCoreConfig(slices=4, l2_kb=256),
    VCoreConfig(slices=8, l2_kb=512),
)
"""Virtual cores the tier-agreement sweep measures: the 1..8-Slice
scaling ladder with proportionally composed L2s."""


def run_tier_cell(
    app_name: str,
    phase_index: int,
    config: VCoreConfig,
    instructions: int = 4000,
    seed: int = 0,
):
    """Run one tier-agreement cell: cycle tier vs fast tier for one
    (application phase, virtual core) pair.

    Returns the :class:`~repro.sim.ssim.CycleResult`, which carries the
    measured pipeline run and the analytic prediction side by side.  A
    cell is a pure function of its arguments (the trace seed is
    explicit), so sharded grids reproduce serial ones exactly.
    """
    from repro.sim.ssim import SSim

    app = get_app(app_name)
    if not 0 <= phase_index < len(app.phases):
        raise ValueError(
            f"{app_name} has {len(app.phases)} phases, "
            f"got phase_index {phase_index}"
        )
    phase = app.phases[phase_index]
    return SSim().run_cycle_accurate(
        phase, config, instructions=instructions, seed=seed
    )


def run_tier_batch(cells: Sequence) -> List:
    """Run a slab of tier cells through the struct-of-arrays batch tier.

    ``cells`` are :class:`~repro.experiments.stats.TierCellSpec`-shaped
    records (``app_name``, ``phase_index``, ``config``,
    ``instructions``, ``seed``).  Cells sharing one (phase,
    instructions, seed) generate and encode their trace exactly once —
    the normal sweep shape puts the configuration innermost, so a
    four-config ladder costs one trace — then every cell advances in
    lockstep through :func:`repro.sim.batchpipe.run_batch`.  Returns
    one :class:`~repro.sim.ssim.CycleResult` per cell in order, each
    bit-identical to what :func:`run_tier_cell` produces for the same
    spec.
    """
    from repro.sim.batchpipe import BatchCell, run_batch
    from repro.sim.ssim import CycleResult, SSim
    from repro.sim.trace import TraceGenerator

    cells = list(cells)
    ssim = SSim()
    traces: Dict[tuple, object] = {}
    batch = []
    phases = []
    for spec in cells:
        app = get_app(spec.app_name)
        if not 0 <= spec.phase_index < len(app.phases):
            raise ValueError(
                f"{spec.app_name} has {len(app.phases)} phases, "
                f"got phase_index {spec.phase_index}"
            )
        phase = app.phases[spec.phase_index]
        phases.append(phase)
        key = (
            spec.app_name,
            spec.phase_index,
            spec.instructions,
            spec.seed,
        )
        trace = traces.get(key)
        if trace is None:
            generator = TraceGenerator(
                phase,
                ssim.slice_params.physical_registers,
                seed=spec.seed,
            )
            trace = generator.generate_arrays(spec.instructions)
            traces[key] = trace
        batch.append(BatchCell(trace=trace, config=spec.config))
    outcomes = run_batch(batch, ssim.slice_params, ssim.cache_params)
    return [
        CycleResult(
            pipeline=outcome.result,
            predicted_ipc=ssim.perf_model.ipc(phase, spec.config),
        )
        for spec, phase, outcome in zip(cells, phases, outcomes)
    ]


def tier_agreement_grid(
    app_names: Sequence[str] = TIER_APPS,
    configs: Sequence[VCoreConfig] = TIER_CONFIGS,
    instructions: int = 4000,
    seed: int = 0,
    jobs: Optional[int] = 1,
    batch: bool = True,
):
    """The tier-agreement sweep: every (app phase × VCoreConfig) cell.

    Runs the cycle tier on a synthetic trace of each phase on each
    virtual core and pairs it with the fast tier's IPC prediction —
    the full-grid version of :meth:`~repro.sim.ssim.SSim.compare_tiers`
    that the paper's validation argument rests on.  Returns
    ``(results, timing)`` where ``results`` maps ``(app_name,
    phase_index, config)`` to its :class:`~repro.sim.ssim.CycleResult`
    and ``timing`` is a JSON-ready wall-clock record for
    ``BENCH_CYCLE.json``.  Cells shard over the same process pool as
    the other sweeps and come back in spec order, so ``jobs`` never
    changes any result.

    ``batch`` (the default) folds the cells into per-worker slabs for
    the struct-of-arrays batch tier (``repro figure tiers --batch``),
    which generates one trace per phase and shares it across the
    configuration ladder; ``batch=False`` dispatches every cell singly
    through :func:`run_tier_cell`, one call of the same kernel per cell
    (``SSim.run_cycle_accurate``) on a trace generated for that cell.
    Either way the per-cell results are bit-identical — the flag only
    moves the wall clock.
    """
    import time

    from repro.experiments.stats import (
        TierCellSpec,
        default_jobs,
        run_cells,
    )

    if jobs is None:
        jobs = default_jobs()
    names = list(app_names)
    config_list = list(configs)
    keys = [
        (name, phase_index, config)
        for name in names
        for phase_index in range(len(get_app(name).phases))
        for config in config_list
    ]
    specs = [
        TierCellSpec(
            app_name=name,
            phase_index=phase_index,
            config=config,
            instructions=instructions,
            seed=seed,
        )
        for name, phase_index, config in keys
    ]
    start = time.perf_counter()
    results = run_cells(specs, jobs=jobs, tier_batch=batch)
    elapsed = time.perf_counter() - start
    reports = dict(zip(keys, results))
    timing = {
        "cells": len(specs),
        "instructions": instructions,
        "jobs": jobs,
        "batch": batch,
        "wall_seconds": round(elapsed, 4),
        "cells_per_second": round(len(specs) / elapsed, 4) if elapsed else None,
        "apps": names,
        "configs": [str(config) for config in config_list],
        "seed": seed,
    }
    return reports, timing


def apache_timeseries(
    intervals: int = 112,
    kinds: Sequence[str] = ("convex", "race", "cash"),
    seed: int = 0,
) -> Dict[str, RunResult]:
    """Fig. 9: apache under the oscillating request stream.

    112 ten-Mcycle intervals match the figure's 1.12 Gcycle span
    (three and a half oscillation periods).
    """
    labels = dict(ALLOCATOR_KINDS)
    return {
        labels[k]: run_app_with_allocator(
            "apache", k, intervals=intervals, seed=seed
        )
        for k in kinds
    }
