"""Formatting results in the paper's rows (Table III, Figs. 7–10)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.experiments.harness import RunResult
from repro.experiments.scenarios import geometric_mean


def cost_table(
    results: Mapping[str, Mapping[str, RunResult]],
    reference: str = "Optimal",
) -> str:
    """Render Table III: geometric-mean cost and ratio to optimal."""
    lines = ["Allocator                Geometric Mean   Ratio to " + reference]
    geo: Dict[str, float] = {}
    for allocator, runs in results.items():
        geo[allocator] = geometric_mean(
            [run.cost_dollars for run in runs.values()]
        )
    base = geo.get(reference)
    for allocator, value in geo.items():
        ratio = value / base if base else float("nan")
        lines.append(f"{allocator:<24} ${value:<15.4f} {ratio:.2f}")
    return "\n".join(lines)


def per_app_table(
    results: Mapping[str, Mapping[str, RunResult]],
) -> str:
    """Render Fig. 7 / Fig. 10 as text: per-app cost and violations."""
    allocators = list(results)
    apps = sorted(
        {app for runs in results.values() for app in runs}
    )
    header = f"{'app':<12}" + "".join(f"{name:>24}" for name in allocators)
    lines = [header, "-" * len(header)]
    for app in apps:
        costs = "".join(
            f"{results[name][app].cost_dollars:>17.4f}$"
            + f"{results[name][app].violation_percent:>5.1f}%"
            for name in allocators
        )
        lines.append(f"{app:<12}" + costs)
    geo_cells = "".join(
        f"{geometric_mean([r.cost_dollars for r in results[name].values()]):>17.4f}$"
        + f"{sum(r.violation_percent for r in results[name].values()) / len(results[name]):>5.1f}%"
        for name in allocators
    )
    lines.append(f"{'geomean':<12}" + geo_cells)
    return "\n".join(lines)


def geomean_costs(
    results: Mapping[str, Mapping[str, RunResult]],
) -> Dict[str, float]:
    return {
        allocator: geometric_mean([run.cost_dollars for run in runs.values()])
        for allocator, runs in results.items()
    }


def mean_violations(
    results: Mapping[str, Mapping[str, RunResult]],
) -> Dict[str, float]:
    return {
        allocator: sum(run.violation_percent for run in runs.values())
        / len(runs)
        for allocator, runs in results.items()
    }


def provider_table(reports: Mapping[tuple, object]) -> str:
    """Render the multi-tenant grid: one row per provider cell.

    ``reports`` maps ``(policy_mix, overcommit, seed)`` to a
    :class:`~repro.cloud.service.ServiceReport` (the shape
    :func:`~repro.experiments.scenarios.multitenant_grid` returns).
    """
    header = (
        f"{'mix':<6}{'over':>6}{'seed':>6}{'admit':>7}{'reject':>8}"
        f"{'util %':>8}{'$/hr':>10}{'viol %':>8}{'defrag':>8}"
    )
    lines = [header, "-" * len(header)]
    for (policy_mix, overcommit, seed), report in reports.items():
        lines.append(
            f"{policy_mix:<6}{overcommit:>6.2f}{seed:>6}"
            f"{report.admitted:>7}{report.rejected:>8}"
            f"{report.mean_utilization * 100:>8.1f}"
            f"{report.revenue_rate:>10.4f}"
            f"{report.mean_violation_percent:>8.1f}"
            f"{report.defragmentations:>8}"
        )
    return "\n".join(lines)


def service_table(reports: Mapping[tuple, object]) -> str:
    """Render the always-on service grid: one row per churn cell.

    ``reports`` maps ``(tenants, seed)`` to a
    :class:`~repro.cloud.service.ServiceReport` (the shape
    :func:`~repro.experiments.scenarios.service_grid` returns).
    ``t-ivals`` is tenant-intervals — the dense-equivalent work the
    event engine covered — and ``steps``/``decides`` show how much of
    it needed a controller step, and of those how many consulted the
    allocator (the rest were convergence-hibernation replays).
    """
    header = (
        f"{'tenants':>8}{'seed':>6}{'admit':>7}{'reject':>8}"
        f"{'t-ivals':>10}{'steps':>9}{'decides':>9}"
        f"{'util %':>8}{'$/hr':>10}{'viol %':>8}"
    )
    lines = [header, "-" * len(header)]
    for (tenants, seed), report in reports.items():
        lines.append(
            f"{tenants:>8}{seed:>6}"
            f"{report.admitted:>7}{report.rejected:>8}"
            f"{report.tenant_intervals:>10}"
            f"{report.active_steps:>9}{report.decide_steps:>9}"
            f"{report.mean_utilization * 100:>8.1f}"
            f"{report.revenue_rate:>10.4f}"
            f"{report.mean_violation_percent:>8.1f}"
        )
    return "\n".join(lines)


def tier_table(results: Mapping[tuple, object]) -> str:
    """Render the tier-agreement sweep: one row per (phase, config).

    ``results`` maps ``(app_name, phase_index, config)`` to a
    :class:`~repro.sim.ssim.CycleResult` (the shape
    :func:`~repro.experiments.scenarios.tier_agreement_grid` returns).
    Each row pairs the cycle tier's measured IPC with the fast tier's
    prediction and their relative error; the footer gives the mean and
    worst error over the grid — the number the paper's two-tier
    validation argument rests on.
    """
    header = (
        f"{'app':<12}{'phase':>6}{'config':>10}{'cycles':>10}"
        f"{'IPC':>8}{'pred':>8}{'err %':>8}"
    )
    lines = [header, "-" * len(header)]
    errors: List[float] = []
    for (app_name, phase_index, config), cell in results.items():
        error = cell.relative_error
        errors.append(error)
        lines.append(
            f"{app_name:<12}{phase_index:>6}{str(config):>10}"
            f"{cell.pipeline.cycles:>10}"
            f"{cell.measured_ipc:>8.3f}{cell.predicted_ipc:>8.3f}"
            f"{error * 100:>8.1f}"
        )
    if errors:
        mean_error = sum(errors) / len(errors)
        lines.append(
            f"{'mean |err|':<28}{'':>10}{'':>8}{'':>8}"
            f"{mean_error * 100:>8.1f}"
        )
        lines.append(
            f"{'max |err|':<28}{'':>10}{'':>8}{'':>8}"
            f"{max(errors) * 100:>8.1f}"
        )
    return "\n".join(lines)


def timeseries_table(
    results: Mapping[str, RunResult],
    stride: int = 10,
) -> str:
    """Render Fig. 2/8/9-style time series as aligned text columns."""
    names = list(results)
    any_run = next(iter(results.values()))
    # Hoisted out of the row loop: the series is O(intervals) to build,
    # so computing it per sampled row made the table quadratic.
    perf_series = {
        name: results[name].normalized_performance_series() for name in names
    }
    lines = [
        f"{'Mcycles':>8}"
        + "".join(f"{name + ' $/h':>22}{name + ' perf':>12}" for name in names)
    ]
    for i in range(0, any_run.num_intervals, stride):
        row = f"{any_run.records[i].start_cycle / 1e6:>8.0f}"
        for name in names:
            record = results[name].records[i]
            row += f"{record.cost_rate:>22.4f}{perf_series[name][i]:>12.2f}"
        lines.append(row)
    return "\n".join(lines)
