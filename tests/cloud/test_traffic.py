"""Open-loop tenant traffic generation (``repro.cloud.traffic``).

The traffic model is a frozen, seeded spec: the same ``TrafficSpec``
must always expand to the same fleet, burst for burst.  These tests pin
determinism, spec validation, burst-schedule invariants, the
``is_active``/``next_active`` fast queries against a brute-force scan,
and the demand shaping (diurnal rate curve, flash crowds), plus the
closed tenant list as degenerate traffic (``TrafficScenario.from_tenants``).
"""

import pytest

from repro.cloud.tenant import Tenant
from repro.cloud.traffic import (
    TenantTraffic,
    TrafficScenario,
    TrafficSpec,
    generate_traffic,
)
from repro.workloads.apps import get_app


def small_spec(**overrides):
    base = dict(tenants=24, horizon=300, seed=5, activity=0.25)
    base.update(overrides)
    return TrafficSpec(**base)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = TrafficSpec(tenants=4, horizon=100)
        assert spec.tenants == 4
        assert spec.seed == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tenants", 0),
            ("horizon", 0),
            ("arrival_span", 1.5),
            ("arrival_span", -0.1),
            ("lifetime_shape", 0.0),
            ("lifetime_min", 0.0),
            ("activity", 0.0),
            ("activity", 1.5),
            ("mean_burst", 0.5),
            ("diurnal_period", -1),
            ("diurnal_amplitude", 2.0),
            ("flash_crowds", -2),
            ("flash_boost", 0.5),
            ("apps", ()),
            ("policies", ()),
            ("policies", ("cash", "bogus")),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            small_spec(**{field: value})

    def test_flash_duration_checked_when_crowds_requested(self):
        with pytest.raises(ValueError):
            small_spec(flash_crowds=1, flash_duration=0)

    def test_spec_is_hashable_and_frozen(self):
        spec = small_spec()
        assert hash(spec) == hash(small_spec())
        with pytest.raises(AttributeError):
            spec.tenants = 99


class TestDeterminism:
    def test_same_spec_same_fleet(self):
        left = generate_traffic(small_spec())
        right = generate_traffic(small_spec())
        assert left.flash_windows == right.flash_windows
        assert len(left.tenants) == len(right.tenants)
        for a, b in zip(left.tenants, right.tenants):
            assert a.tenant.tenant_id == b.tenant.tenant_id
            assert a.tenant.app.name == b.tenant.app.name
            assert a.tenant.policy == b.tenant.policy
            assert a.bursts == b.bursts

    def test_seed_changes_fleet(self):
        left = generate_traffic(small_spec(seed=5))
        right = generate_traffic(small_spec(seed=6))
        assert any(
            a.bursts != b.bursts
            for a, b in zip(left.tenants, right.tenants)
        )


class TestFleetShape:
    def test_tenant_ids_ascend_with_arrival(self):
        scenario = generate_traffic(small_spec())
        arrivals = [t.tenant.arrival_interval for t in scenario.tenants]
        assert arrivals == sorted(arrivals)
        ids = [t.tenant.tenant_id for t in scenario.tenants]
        assert ids == list(range(len(ids)))

    def test_bursts_inside_lifetime(self):
        scenario = generate_traffic(small_spec())
        horizon = scenario.spec.horizon
        for traffic in scenario.tenants:
            tenant = traffic.tenant
            end = (
                tenant.departure_interval
                if tenant.departure_interval is not None
                else horizon
            )
            assert traffic.bursts, "every tenant gets at least one burst"
            first_start, _ = traffic.bursts[0]
            assert first_start == tenant.arrival_interval
            previous_end = None
            for start, stop in traffic.bursts:
                assert start < stop <= end
                if previous_end is not None:
                    assert start > previous_end, "bursts never touch"
                previous_end = stop

    def test_policies_and_apps_cycle(self):
        spec = small_spec(policies=("cash", "race"), tenants=8)
        scenario = generate_traffic(spec)
        policies = [t.tenant.policy for t in scenario.tenants]
        assert policies == ["cash", "race"] * 4


class TestActivityQueries:
    def brute_force_active(self, traffic, interval):
        return any(
            start <= interval < stop for start, stop in traffic.bursts
        )

    def test_is_active_matches_brute_force(self):
        scenario = generate_traffic(small_spec())
        for traffic in scenario.tenants[:8]:
            for interval in range(scenario.spec.horizon):
                assert traffic.is_active(interval) == (
                    self.brute_force_active(traffic, interval)
                ), (traffic.tenant.tenant_id, interval)

    def test_next_active_matches_brute_force(self):
        scenario = generate_traffic(small_spec())
        horizon = scenario.spec.horizon
        for traffic in scenario.tenants[:8]:
            for interval in range(horizon):
                expected = next(
                    (
                        i
                        for i in range(interval, horizon)
                        if self.brute_force_active(traffic, i)
                    ),
                    None,
                )
                assert traffic.next_active(interval) == expected

    def test_active_intervals_counts_bursts(self):
        scenario = generate_traffic(small_spec())
        for traffic in scenario.tenants:
            total = sum(stop - start for start, stop in traffic.bursts)
            assert traffic.active_intervals == total


class TestDemandShaping:
    def test_flash_crowds_raise_activity_inside_windows(self):
        calm = generate_traffic(small_spec(flash_crowds=0))
        spec = small_spec(flash_crowds=2, flash_duration=40, flash_boost=8.0)
        flashed = generate_traffic(spec)
        assert len(flashed.flash_windows) == 2
        for start, stop in flashed.flash_windows:
            assert 0 <= start < stop <= spec.horizon

        def activity_in_windows(scenario, windows):
            hits = span = 0
            for begin, end in windows:
                span += (end - begin) * len(scenario.tenants)
                for traffic in scenario.tenants:
                    hits += sum(
                        1
                        for i in range(begin, end)
                        if traffic.is_active(i)
                    )
            return hits / span

        windows = flashed.flash_windows
        assert activity_in_windows(flashed, windows) > activity_in_windows(
            calm, windows
        )

    def test_diurnal_cycle_modulates_gaps(self):
        spec = small_spec(
            tenants=48,
            horizon=400,
            diurnal_period=400,
            diurnal_amplitude=0.6,
            # Everyone arrives immediately and lives past the horizon,
            # so the only first-half/second-half asymmetry is diurnal.
            arrival_span=0.05,
            lifetime_min=500.0,
        )
        scenario = generate_traffic(spec)
        # Demand peaks in the first half-period and troughs in the
        # second; aggregate activity must follow.
        half = spec.horizon // 2

        def occupancy(begin, end):
            return sum(
                sum(1 for i in range(begin, end) if t.is_active(i))
                for t in scenario.tenants
            )

        assert occupancy(0, half) > occupancy(half, spec.horizon)


class TestClosedTenantList:
    def tenants(self):
        app = get_app("hmmer")
        return [
            Tenant(tenant_id=0, app=app, qos_goal=1.0),
            Tenant(
                tenant_id=1,
                app=app,
                qos_goal=1.0,
                arrival_interval=5,
                departure_interval=20,
            ),
            Tenant(
                tenant_id=2, app=app, qos_goal=1.0, departure_interval=90
            ),
            Tenant(tenant_id=3, app=app, qos_goal=1.0, arrival_interval=40),
        ]

    def test_one_burst_over_each_residency(self):
        scenario = TrafficScenario.from_tenants(
            self.tenants(), horizon=40, seed=9
        )
        assert [t.bursts for t in scenario.tenants] == [
            ((0, 40),),  # resident to the horizon
            ((5, 20),),  # departure is exclusive
            ((0, 40),),  # departure past the horizon is clipped
            (),  # arrives at the horizon: never active
        ]
        assert scenario.flash_windows == ()
        assert scenario.spec.tenants == 4
        assert scenario.horizon == 40
        assert scenario.spec.seed == 9

    def test_activity_queries(self):
        scenario = TrafficScenario.from_tenants(
            self.tenants(), horizon=40, seed=0
        )
        leaver = scenario.tenants[1]
        assert not leaver.is_active(4)
        assert leaver.is_active(5) and leaver.is_active(19)
        assert not leaver.is_active(20)
        assert leaver.next_active(0) == 5
        assert leaver.next_active(12) == 12
        assert leaver.next_active(20) is None
        late = scenario.tenants[3]
        assert not late.is_active(39)
        assert late.next_active(0) is None

    def test_duplicate_ids_rejected(self):
        tenants = self.tenants()
        with pytest.raises(ValueError, match="unique"):
            TrafficScenario.from_tenants(
                tenants + tenants[:1], horizon=40, seed=0
            )
