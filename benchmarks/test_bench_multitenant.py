"""Provider-level extension benchmark: tenant density on one fabric.

Not a paper artefact, but the paper's own motivation ("deployment of
such a system would then also benefit cloud providers by attracting
more customers", Section I): quantify what fine-grain adaptivity buys
the *provider*.  The same customer mix runs on the same 16x16 fabric
under two fleet policies — every tenant racing its worst-case
reservation vs every tenant running the CASH runtime — and we compare
occupied footprint, tenant bills, and QoS.

Provider runs are closed tenant lists on the service engine.  The
speed benchmark pins its fast paths (operating-point table cache,
indexed fabric, compiled placement): a 64-tenant, 500-interval run
with fast paths on must beat the scalar twins by >= 3x while producing
the identical ``ServiceReport``.  Timings are persisted to
``BENCH_CLOUD.json`` (next to the engine's ``BENCH_PERF.json``) so
runs can be compared across commits.
"""

import time

import pytest

from repro import perf
from repro.arch.fabric import Fabric
from repro.cloud import CloudProvider, Tenant
from repro.cloud.service import ServiceEngine
from repro.cloud.traffic import TrafficSpec, generate_traffic
from repro.experiments.harness import qos_target_for
from repro.experiments.stats import record_bench_cloud
from repro.workloads.apps import get_app

MIX = ["bzip", "hmmer", "sjeng", "lib", "omnetpp", "ferret"]


def build_tenants(policy):
    tenants = []
    for index, name in enumerate(MIX):
        app = get_app(name)
        tenants.append(
            Tenant(
                tenant_id=index,
                app=app,
                qos_goal=qos_target_for(app),
                policy=policy,
                arrival_interval=index * 10,
            )
        )
    return tenants


def run_fleets():
    reports = {}
    for policy in ("race", "cash"):
        provider = CloudProvider(fabric=Fabric(width=16, height=16), seed=7)
        reports[policy] = (
            provider,
            provider.run(build_tenants(policy), intervals=500),
        )
    return reports


@pytest.mark.benchmark(group="multitenant")
def test_provider_density(benchmark, announce):
    reports = benchmark.pedantic(run_fleets, rounds=1, iterations=1)

    announce("\n=== Provider view: race fleet vs CASH fleet (16x16 fabric) ===")
    announce(
        f"{'fleet':<8}{'admitted':>9}{'util %':>8}{'mean bill':>11}"
        f"{'mean viol %':>12}{'mean tiles':>11}"
    )
    stats = {}
    for policy, (provider, report) in reports.items():
        accounts = list(report.accounts.values())
        bills = sum(a.mean_cost_rate for a in accounts) / len(accounts)
        tiles = sum(a.mean_footprint_tiles for a in accounts) / len(accounts)
        stats[policy] = {
            "bills": bills,
            "tiles": tiles,
            "viol": report.mean_violation_percent,
            "util": report.mean_utilization,
        }
        announce(
            f"{policy:<8}{report.admitted:>9}"
            f"{report.mean_utilization * 100:>8.0f}"
            f"{bills:>11.4f}{report.mean_violation_percent:>12.1f}"
            f"{tiles:>11.1f}"
        )

    # The CASH fleet occupies (and bills for) much less silicon while
    # keeping violations bounded — that slack is rentable capacity.
    assert stats["cash"]["tiles"] < 0.8 * stats["race"]["tiles"]
    assert stats["cash"]["bills"] < stats["race"]["bills"]
    assert stats["race"]["viol"] == 0.0
    assert stats["cash"]["viol"] < 12.0

    record_bench_cloud(
        "density",
        {
            policy: {
                "admitted": report.admitted,
                "mean_utilization": round(report.mean_utilization, 4),
                "mean_bill_rate": round(values["bills"], 4),
                "mean_violation_percent": round(values["viol"], 2),
                "mean_footprint_tiles": round(values["tiles"], 2),
            }
            for (policy, (_, report)), values in zip(
                reports.items(), stats.values()
            )
        },
    )


def build_big_fleet(tenants=64, arrival_stride=3):
    """A 64-tenant mixed fleet with staggered arrivals and departures."""
    fleet = []
    for index in range(tenants):
        app = get_app(MIX[index % len(MIX)])
        fleet.append(
            Tenant(
                tenant_id=index,
                app=app,
                qos_goal=qos_target_for(app),
                policy="cash" if index % 2 == 0 else "race",
                arrival_interval=index * arrival_stride,
                departure_interval=(
                    250 + index * 3 if index % 4 == 0 else None
                ),
            )
        )
    return fleet


def run_big_fleet(intervals=500):
    provider = CloudProvider(
        fabric=Fabric(width=16, height=16), seed=11, overcommit=2.0
    )
    return provider.run(build_big_fleet(), intervals=intervals)


@pytest.mark.benchmark(group="multitenant")
def test_provider_loop_speed(benchmark, announce):
    """Fast provider loop >= 3x the scalar reference, same report."""
    with perf.fast_paths(False):
        start = time.perf_counter()
        reference = run_big_fleet()
        reference_s = time.perf_counter() - start

    def fast_run():
        with perf.fast_paths(True):
            return run_big_fleet()

    start = time.perf_counter()
    fast = benchmark.pedantic(fast_run, rounds=1, iterations=1)
    fast_s = time.perf_counter() - start
    speedup = reference_s / fast_s

    announce("\n=== Provider loop: 64 tenants x 500 intervals (16x16) ===")
    announce(f"scalar reference: {reference_s:8.3f} s")
    announce(f"fast paths:       {fast_s:8.3f} s")
    announce(f"speedup:          {speedup:8.1f}x")

    assert fast == reference, "fast provider loop changed the report"
    assert speedup >= 3.0

    record_bench_cloud(
        "provider_loop",
        {
            "tenants": 64,
            "intervals": 500,
            "fabric": "16x16",
            "reference_seconds": round(reference_s, 3),
            "fast_seconds": round(fast_s, 3),
            "speedup": round(speedup, 2),
        },
    )


def churn_spec(tenants, horizon, seed=13):
    """The service-tier churn scenario: heavy-tailed lifetimes, low duty
    cycle, a diurnal cycle, and two flash crowds."""
    return TrafficSpec(
        tenants=tenants,
        horizon=horizon,
        seed=seed,
        activity=0.12,
        mean_burst=6.0,
        lifetime_min=150.0,
        lifetime_shape=1.4,
        diurnal_period=max(horizon // 4, 1),
        diurnal_amplitude=0.5,
        flash_crowds=2,
        flash_duration=max(horizon // 100, 1),
        flash_boost=4.0,
    )


def run_service(spec, fast):
    scenario = generate_traffic(spec)
    with perf.fast_paths(fast):
        engine = ServiceEngine(
            scenario, fabric=Fabric(24, 24), overcommit=3.0
        )
        start = time.perf_counter()
        report = engine.run()
        elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.mark.benchmark(group="multitenant")
def test_service_tier_throughput(benchmark, announce):
    """Fast paths >= 10x their scalar twins in tenant-intervals/second.

    Both modes run the engine's one interval loop.  With the fast paths
    off (the fabric's scalar seed search, scalar tables and noise), the
    engine cannot finish the 4096-tenant x 20k-interval scenario in
    benchmark time, so that mode's rate is measured on a smaller cell
    of the same churn family.  Bit-identity of the two modes is
    asserted on the same small cell.  The ``dense_*`` and ``event_*``
    keys of ``BENCH_CLOUD.json`` hold the scalar and the fast run.
    """
    small = churn_spec(tenants=192, horizon=600)
    dense_report, dense_s = run_service(small, fast=False)
    fast_small_report, _ = run_service(small, fast=True)
    assert fast_small_report == dense_report, (
        "fast paths diverged from their scalar twins"
    )
    dense_rate = dense_report.tenant_intervals / dense_s

    big = churn_spec(tenants=4096, horizon=20_000)

    def fast_run():
        return run_service(big, fast=True)

    fast_report, fast_s = benchmark.pedantic(
        fast_run, rounds=1, iterations=1
    )
    fast_rate = fast_report.tenant_intervals / fast_s
    ratio = fast_rate / dense_rate

    announce("\n=== Service tier: fast paths vs scalar twins (24x24) ===")
    announce(
        f"scalar  192 x   600: {dense_report.tenant_intervals:>9,} "
        f"t-ivals in {dense_s:7.2f} s = {dense_rate:>9,.0f}/s"
    )
    announce(
        f"fast   4096 x 20000: {fast_report.tenant_intervals:>9,} "
        f"t-ivals in {fast_s:7.2f} s = {fast_rate:>9,.0f}/s"
    )
    announce(f"ratio: {ratio:14.1f}x")
    announce(
        f"hibernation: {fast_report.decide_steps:,} decides / "
        f"{fast_report.active_steps:,} active steps"
    )

    assert ratio >= 10.0

    record_bench_cloud(
        "service",
        {
            "dense_tenants": 192,
            "dense_intervals": 600,
            "event_tenants": 4096,
            "event_intervals": 20_000,
            "fabric": "24x24",
            "dense_tenant_intervals_per_second": round(dense_rate, 1),
            "event_tenant_intervals_per_second": round(fast_rate, 1),
            "ratio": round(ratio, 2),
            "event_active_steps": fast_report.active_steps,
            "event_decide_steps": fast_report.decide_steps,
            "event_admitted": fast_report.admitted,
        },
    )


@pytest.mark.benchmark(group="multitenant")
def test_service_ten_thousand_tenants(benchmark, announce):
    """10k-tenant open-loop traffic is feasible on the one interval loop."""
    spec = churn_spec(tenants=10_240, horizon=8_000)

    def fast_run():
        return run_service(spec, fast=True)

    report, elapsed = benchmark.pedantic(fast_run, rounds=1, iterations=1)
    rate = report.tenant_intervals / elapsed

    announce("\n=== Service tier: 10k-tenant feasibility (24x24) ===")
    announce(
        f"{report.admitted:,} admitted / {report.rejected:,} rejected; "
        f"{report.tenant_intervals:,} t-ivals in {elapsed:.2f} s "
        f"= {rate:,.0f}/s"
    )

    assert report.admitted + report.rejected == 10_240
    assert report.tenant_intervals > 0

    record_bench_cloud(
        "service_10k",
        {
            "tenants": 10_240,
            "intervals": 8_000,
            "fabric": "24x24",
            "admitted": report.admitted,
            "rejected": report.rejected,
            "tenant_intervals": report.tenant_intervals,
            "tenant_intervals_per_second": round(rate, 1),
            "seconds": round(elapsed, 2),
        },
    )
