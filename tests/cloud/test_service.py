"""The provider service (``repro.cloud.service``).

Covers the engine's behavioral surface: report accounting sanity,
convergence hibernation (decide steps < active steps), idle-tenant
parking, and incremental ``run(until)`` segments (tier-1: in both
engine modes a segmented run must equal the uninterrupted one bit for
bit).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.arch.fabric import Fabric
from repro.arch.vcore import VCoreConfig
from repro.cloud import service
from repro.cloud.service import ServiceEngine
from repro.cloud.tenant import Tenant
from repro.cloud.traffic import (
    TenantTraffic,
    TrafficScenario,
    TrafficSpec,
    generate_traffic,
)
from repro.experiments.harness import qos_target_for
from repro.runtime.optimizer import (
    IDLE_POINT,
    ConfigPoint,
    Schedule,
    ScheduleEntry,
)
from repro.workloads.apps import get_app


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


def small_scenario(tenants=10, horizon=160, seed=3, **overrides):
    base = dict(
        tenants=tenants,
        horizon=horizon,
        seed=seed,
        activity=0.3,
        mean_burst=6.0,
        lifetime_min=60.0,
    )
    base.update(overrides)
    return generate_traffic(TrafficSpec(**base))


def build_engine(scenario=None, **overrides):
    if scenario is None:
        scenario = small_scenario()
    kwargs = dict(fabric=Fabric(16, 16), overcommit=2.0)
    kwargs.update(overrides)
    return ServiceEngine(scenario, **kwargs)


class TestReportAccounting:
    def test_report_sanity(self):
        engine = build_engine()
        report = engine.run()
        assert report.intervals == engine.scenario.spec.horizon
        assert report.admitted > 0
        assert report.admitted + report.rejected <= len(
            engine.scenario.tenants
        )
        assert len(report.accounts) == report.admitted
        assert 0 < report.active_steps <= report.tenant_intervals
        assert 0.0 <= report.mean_utilization <= 1.0
        assert report.revenue_rate > 0.0
        total_active = sum(
            account.active_intervals for account in report.accounts.values()
        )
        assert total_active == report.active_steps

    def test_hibernation_reduces_decides(self):
        engine = build_engine(converged_after=4, reprobe_every=24)
        report = engine.run()
        assert 0 < report.decide_steps < report.active_steps

    def test_hibernation_disabled_when_converged_after_zero(self):
        engine = build_engine(converged_after=0)
        report = engine.run()
        assert report.decide_steps == report.active_steps

    @pytest.mark.parametrize("fast", [True, False])
    def test_last_burst_interval_counts_toward_utilization(self, fast):
        """A tenant parks after the interval it ran in is sampled."""
        app = get_app("bzip")
        tenant = Tenant(
            tenant_id=0, app=app, qos_goal=qos_target_for(app), policy="race"
        )
        scenario = TrafficScenario(
            spec=TrafficSpec(tenants=1, horizon=4),
            tenants=(TenantTraffic(tenant=tenant, bursts=((0, 1),)),),
            flash_windows=(),
        )
        with perf.fast_paths(fast):
            report = ServiceEngine(scenario, fabric=Fabric(16, 16)).run()
        footprint = report.accounts[0].footprint_tiles
        assert footprint > 0
        assert report.utilization_tile_intervals == footprint

    @pytest.mark.parametrize("fast", [True, False])
    def test_traffic_past_departure_is_not_stepped(self, fast):
        """A hand-built timeline may outlive its tenant's residency; the
        tenant settles at its departure and is not stepped after it."""
        app = get_app("bzip")
        tenant = Tenant(
            tenant_id=0,
            app=app,
            qos_goal=qos_target_for(app),
            policy="race",
            departure_interval=3,
        )
        scenario = TrafficScenario(
            spec=TrafficSpec(tenants=1, horizon=8),
            tenants=(TenantTraffic(tenant=tenant, bursts=((0, 6),)),),
            flash_windows=(),
        )
        with perf.fast_paths(fast):
            report = ServiceEngine(scenario, fabric=Fabric(16, 16)).run()
        assert report.accounts[0].active_intervals == 3
        assert report.tenant_intervals == 3

    def test_parking_releases_idle_tenants(self):
        engine = build_engine()
        engine.run()
        # After the horizon every still-resident tenant whose traffic
        # has gone quiet must hold no tiles.
        for tenant_id, resident in engine._residents.items():
            if not resident.traffic.is_active(engine.scenario.spec.horizon):
                assert not engine.fabric.has_allocation(tenant_id)


class TestAdmissionTables:
    def test_one_table_lookup_per_admitted_phase(self, monkeypatch):
        # Both engine modes resolve a tenant's phase tables when it is
        # admitted and never look one up per step (with the fast paths
        # off the lookup builds each table with the scalar loop), and
        # both report the same run.
        lookups = []
        original = service.operating_point_table

        def counting(phase, *args, **kwargs):
            lookups.append(phase.name)
            return original(phase, *args, **kwargs)

        monkeypatch.setattr(service, "operating_point_table", counting)
        reports = {}
        for fast in (True, False):
            scenario = small_scenario(tenants=16, horizon=200)
            del lookups[:]
            with perf.fast_paths(fast):
                report = build_engine(scenario).run()
            tenants = {t.tenant.tenant_id: t.tenant for t in scenario.tenants}
            admitted = [tenants[tenant_id] for tenant_id in report.accounts]
            assert len(admitted) == report.admitted > 1
            assert report.decide_steps > report.admitted
            assert len(lookups) == sum(len(t.app.phases) for t in admitted)
            reports[fast] = report
        assert reports[False] == reports[True]


class TestStepMechanics:
    TIED = (VCoreConfig(2, 128), VCoreConfig(3, 64))
    """Two configurations of four tiles each."""

    @staticmethod
    def _schedule(configs):
        entries = [
            ScheduleEntry(
                IDLE_POINT
                if config is None
                else ConfigPoint(config, 1.0 + index, 0.1),
                1.0 / len(configs),
            )
            for index, config in enumerate(configs)
        ]
        return Schedule(entries=tuple(entries))

    def test_peak_footprint_keeps_the_first_of_tied_legs(self):
        engine = build_engine()
        first, second = self.TIED
        assert first.tiles == second.tiles
        assert engine._peak_footprint(self._schedule(self.TIED)) is first
        swapped = self._schedule(self.TIED[::-1])
        assert engine._peak_footprint(swapped) is second
        idle_first = self._schedule((None, second, first))
        assert engine._peak_footprint(idle_first) is second
        assert engine._peak_footprint(self._schedule((None,))) is None

    @settings(max_examples=60, deadline=None)
    @given(
        legs=st.lists(
            st.one_of(
                st.none(),
                st.builds(
                    VCoreConfig,
                    st.integers(1, 8),
                    st.sampled_from([64 << i for i in range(8)]),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_peak_footprint_is_max_by_tiles(self, legs):
        schedule = self._schedule(legs)
        configs = schedule.configs()
        expected = max(configs, key=lambda c: c.tiles) if configs else None
        assert build_engine()._peak_footprint(schedule) is expected

    @pytest.mark.parametrize("fast", [True, False])
    def test_no_noise_draws_nothing(self, fast):
        # Each resident draws from its NoiseStream (compiled blocks on
        # the fast path with the core loaded, ``random.Random.gauss``
        # otherwise); a fresh stream for the same tenant, built in the
        # same mode, is the state before any draw.
        with perf.fast_paths(fast):
            engine = build_engine(noise_std_frac=0.0)
            report = engine.run(until=100)
            assert report.decide_steps > 0
            assert engine._residents
            for tenant_id, resident in engine._residents.items():
                assert resident.draw is None
                untouched = service._noise_stream(engine.noise_seed, tenant_id)
                assert resident.noise.getstate() == untouched.getstate()
            # With noise on, the same tenants draw from their streams.
            noisy = build_engine()
            noisy.run(until=100)
            moved = [
                resident.noise.getstate()
                != service._noise_stream(noisy.noise_seed, tenant_id).getstate()
                for tenant_id, resident in noisy._residents.items()
            ]
        assert any(moved)


class TestRunSegments:
    @pytest.mark.parametrize("fast", [True, False])
    def test_run_until_is_resumable(self, fast):
        with perf.fast_paths(fast):
            straight = build_engine().run()
            engine = build_engine()
            engine.run(until=50)
            engine.run(until=110)
            segmented = engine.run()
        assert segmented == straight

    def test_until_must_advance(self):
        engine = build_engine()
        engine.run(until=50)
        with pytest.raises(ValueError):
            engine.run(until=40)

    def test_until_beyond_horizon_rejected(self):
        engine = build_engine()
        with pytest.raises(ValueError):
            engine.run(until=engine.scenario.spec.horizon + 1)
