"""Service engine, fast paths on == off, bit for bit.

The acceptance claim for the service engine: at a fixed seed a run
with the fast paths on and one with them off (the fabric's placement,
admission, noise and operating-point tables each switch to a scalar
twin; the interval loop is the same) produce the identical
``ServiceReport`` — per-tenant accounting included — across worker
counts and with the sanitizer armed.  Open churn and closed tenant
lists (``CloudProvider`` runs) are both covered.  The Hypothesis
property drives randomized churn schedules (tenant counts, activity,
bursts, flash crowds, diurnal cycles, seeds) through both modes.

Both modes share the loop, so their agreement cannot show which
tenants it steps.  ``assert_steps_follow_traffic`` counts that from the
traffic timelines alone: a wake bucket that drops or repeats a tenant
fails it even when the two modes agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.analysis import sanitize
from repro.arch.fabric import Fabric
from repro.cloud import CloudProvider, Tenant
from repro.cloud.service import ServiceEngine
from repro.cloud.traffic import TrafficScenario, TrafficSpec, generate_traffic
from repro.experiments.harness import qos_target_for
from repro.experiments.scenarios import provider_mix, run_provider_mix
from repro.experiments.stats import (
    CellSpec,
    ProviderCellSpec,
    ServiceCellSpec,
    run_cells,
)
from repro.sim.optables import cache_clear
from repro.workloads.apps import get_app


@pytest.fixture(autouse=True)
def restore_modes():
    previous = sanitize.ENABLED
    yield
    perf.set_fast_paths(True)
    sanitize.set_enabled(previous)


def run_engine(spec, fast, overcommit=2.0):
    scenario = generate_traffic(spec)
    with perf.fast_paths(fast):
        engine = ServiceEngine(
            scenario, fabric=Fabric(16, 16), overcommit=overcommit
        )
        return engine.run()


DEPARTURE_INTERVALS = 120


def departure_tenants():
    """A closed mixed-policy list with staggered arrivals *and*
    departures."""
    names = ["bzip", "hmmer", "sjeng", "lib", "omnetpp", "ferret"]
    tenants = []
    for index, name in enumerate(names):
        app = get_app(name)
        tenants.append(
            Tenant(
                tenant_id=index,
                app=app,
                qos_goal=qos_target_for(app),
                policy="cash" if index % 2 == 0 else "race",
                arrival_interval=index * 7,
                departure_interval=40 + index * 11 if index % 3 == 0 else None,
            )
        )
    return tenants


def run_departure_scenario():
    """The departure list on an overcommitted fabric."""
    provider = CloudProvider(
        fabric=Fabric(width=16, height=16), seed=7, overcommit=1.5
    )
    return provider.run(departure_tenants(), intervals=DEPARTURE_INTERVALS)


def run_closed(name):
    """A ``CloudProvider`` run: a policy mix, the departure scenario, or
    a half mix at a non-default seed and overcommit."""
    if name == "departures":
        return run_departure_scenario()
    if name == "seed3":
        return run_provider_mix(
            provider_mix("half", tenants=6), intervals=60, seed=3, overcommit=1.5
        )
    return run_provider_mix(provider_mix(name, tenants=8), intervals=80, seed=0)


def assert_steps_follow_traffic(report, scenario):
    """Each admitted tenant stepped once in every interval of its
    residency, ``[arrival, min(departure, horizon))``, where its traffic
    is active, and ``tenant_intervals`` sums those residencies."""
    horizon = scenario.spec.horizon
    residencies = 0
    for traffic in scenario.tenants:
        tenant = traffic.tenant
        account = report.accounts.get(tenant.tenant_id)
        if account is None:
            continue  # rejected
        departure = tenant.departure_interval
        stop = horizon if departure is None else min(departure, horizon)
        residency = range(tenant.arrival_interval, stop)
        active = [i for i in residency if traffic.is_active(i)]
        assert account.active_intervals == len(active), tenant.tenant_id
        residencies += len(residency)
    assert report.tenant_intervals == residencies


def assert_reports_identical(fast, reference):
    assert fast.accounts == reference.accounts
    assert fast.tenant_intervals == reference.tenant_intervals
    assert fast.active_steps == reference.active_steps
    assert fast.decide_steps == reference.decide_steps
    assert (
        fast.utilization_tile_intervals
        == reference.utilization_tile_intervals
    )
    assert fast == reference


class TestFastVsReference:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_basic_churn_identical(self, seed):
        spec = TrafficSpec(
            tenants=12, horizon=160, seed=seed, activity=0.3, mean_burst=6.0
        )
        assert_reports_identical(
            run_engine(spec, fast=True), run_engine(spec, fast=False)
        )

    def test_flash_and_diurnal_identical(self):
        spec = TrafficSpec(
            tenants=16,
            horizon=200,
            seed=2,
            activity=0.2,
            mean_burst=5.0,
            diurnal_period=100,
            diurnal_amplitude=0.6,
            flash_crowds=2,
            flash_duration=20,
            flash_boost=5.0,
        )
        assert_reports_identical(
            run_engine(spec, fast=True), run_engine(spec, fast=False)
        )

    def test_overcommit_pressure_identical(self):
        spec = TrafficSpec(
            tenants=24, horizon=150, seed=5, activity=0.35, mean_burst=8.0
        )
        assert_reports_identical(
            run_engine(spec, fast=True, overcommit=3.0),
            run_engine(spec, fast=False, overcommit=3.0),
        )

    @pytest.mark.parametrize(
        "name", ["race", "cash", "half", "departures", "seed3"]
    )
    def test_closed_identical(self, name):
        with perf.fast_paths(True):
            fast = run_closed(name)
        with perf.fast_paths(False):
            reference = run_closed(name)
        assert_reports_identical(fast, reference)

    def test_departures_step_their_residencies(self):
        report = run_departure_scenario()
        scenario = TrafficScenario.from_tenants(
            departure_tenants(), DEPARTURE_INTERVALS, seed=7
        )
        departing = {
            traffic.tenant.tenant_id
            for traffic in scenario.tenants
            if traffic.tenant.departure_interval is not None
            and traffic.tenant.departure_interval < DEPARTURE_INTERVALS
        }
        assert departing & set(report.accounts)  # someone admitted departs
        assert_steps_follow_traffic(report, scenario)

    @settings(max_examples=12, deadline=None)
    @given(
        tenants=st.integers(min_value=2, max_value=14),
        horizon=st.integers(min_value=40, max_value=180),
        seed=st.integers(min_value=0, max_value=2**31),
        activity=st.floats(min_value=0.1, max_value=0.6),
        mean_burst=st.floats(min_value=2.0, max_value=10.0),
        flash_crowds=st.integers(min_value=0, max_value=2),
        diurnal=st.booleans(),
    )
    def test_random_churn_identical(
        self, tenants, horizon, seed, activity, mean_burst, flash_crowds, diurnal
    ):
        spec = TrafficSpec(
            tenants=tenants,
            horizon=horizon,
            seed=seed,
            activity=activity,
            mean_burst=mean_burst,
            lifetime_min=float(max(horizon // 4, 1)),
            diurnal_period=horizon // 2 if diurnal else 0,
            diurnal_amplitude=0.5,
            flash_crowds=flash_crowds,
            flash_duration=max(horizon // 10, 1),
            flash_boost=4.0,
        )
        fast = run_engine(spec, fast=True)
        assert_reports_identical(fast, run_engine(spec, fast=False))
        assert_steps_follow_traffic(fast, generate_traffic(spec))
        # Every stepped tenant holds at least its footprint through the
        # interval it ran in, and the fabric bounds what can be held.
        footprints = sum(
            account.footprint_tiles for account in fast.accounts.values()
        )
        assert footprints <= fast.utilization_tile_intervals
        assert (
            fast.utilization_tile_intervals
            <= fast.fabric_tiles * fast.intervals
        )


class TestShardedVsSerial:
    SPECS = tuple(
        ServiceCellSpec(
            traffic=TrafficSpec(
                tenants=tenants,
                horizon=100,
                seed=seed,
                activity=0.3,
                mean_burst=5.0,
            ),
            overcommit=2.0,
            fabric_width=16,
            fabric_height=16,
        )
        for tenants in (6, 10)
        for seed in (0, 1)
    )

    def test_jobs_invisible_in_reports(self):
        serial = run_cells(self.SPECS, jobs=1)
        sharded = run_cells(self.SPECS, jobs=4)
        assert len(serial) == len(self.SPECS)
        for left, right in zip(serial, sharded):
            assert_reports_identical(left, right)

    def test_mixed_batch_dispatch(self):
        """Single-tenant and provider specs share one executor batch."""
        specs = [
            CellSpec(app_name="x264", kind="cash", intervals=40, seed=0),
            ProviderCellSpec(mix=provider_mix("cash", tenants=4), intervals=40),
        ]
        serial = run_cells(specs, jobs=1)
        sharded = run_cells(specs, jobs=2)
        assert serial[0].records == sharded[0].records
        assert_reports_identical(serial[1], sharded[1])


class TestSanitized:
    def test_sanitized_run_identical_both_modes(self):
        spec = TrafficSpec(
            tenants=10, horizon=120, seed=4, activity=0.3, mean_burst=6.0
        )
        with sanitize.sanitized(False):
            cache_clear()
            plain_fast = run_engine(spec, fast=True)
            plain_dense = run_engine(spec, fast=False)
        with sanitize.sanitized(True):
            cache_clear()
            checked_fast = run_engine(spec, fast=True)
            checked_dense = run_engine(spec, fast=False)
        assert_reports_identical(plain_fast, plain_dense)
        assert_reports_identical(checked_fast, plain_fast)
        assert_reports_identical(checked_dense, plain_dense)
