"""The multi-tenant provider: closed tenant lists on the service engine."""

import pytest

from repro.arch.fabric import Fabric
from repro.cloud import CloudProvider, Tenant
from repro.cloud.service import ServiceEngine
from repro.cloud.traffic import TrafficScenario
from repro.experiments.harness import qos_target_for
from repro.workloads.apps import get_app


def make_tenant(tenant_id, name="hmmer", policy="cash", **kwargs):
    app = get_app(name)
    return Tenant(
        tenant_id=tenant_id,
        app=app,
        qos_goal=qos_target_for(app),
        policy=policy,
        **kwargs,
    )


class TestProviderBasics:
    def test_single_cash_tenant_meets_qos(self):
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run([make_tenant(0, "bzip")], intervals=500)
        account = report.accounts[0]
        assert account.active_intervals == 500
        # Cold start included, so allow generous but bounded violations.
        assert account.violation_percent < 15.0
        assert account.mean_cost_rate > 0

    def test_race_tenant_never_violates(self):
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run(
            [make_tenant(0, "sjeng", policy="race")], intervals=300
        )
        assert report.accounts[0].violation_percent == 0.0

    def test_cash_tenant_cheaper_than_race(self):
        race_report = CloudProvider(fabric=Fabric(width=16, height=16)).run(
            [make_tenant(0, "bzip", policy="race")], intervals=500
        )
        cash_report = CloudProvider(fabric=Fabric(width=16, height=16)).run(
            [make_tenant(0, "bzip", policy="cash")], intervals=500
        )
        assert (
            cash_report.accounts[0].mean_cost_rate
            < race_report.accounts[0].mean_cost_rate
        )

    def test_arrivals_and_departures(self):
        tenants = [
            make_tenant(0, arrival_interval=0, departure_interval=50),
            make_tenant(1, arrival_interval=20),
        ]
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run(tenants, intervals=100)
        assert report.accounts[0].active_intervals == 50
        assert report.accounts[1].active_intervals == 80

    def test_rejected_tenants_counted(self):
        # A tiny fabric cannot hold many worst-case reservations.
        tenants = [make_tenant(i, "mcf") for i in range(6)]
        provider = CloudProvider(fabric=Fabric(width=6, height=6))
        report = provider.run(tenants, intervals=30)
        assert report.rejected >= 1
        assert report.admitted + report.rejected == 6

    def test_admitted_matches_decision_log(self):
        """The incremental admitted counter equals a decision-log scan."""
        tenants = [make_tenant(i, "mcf") for i in range(8)]
        provider = CloudProvider(fabric=Fabric(width=8, height=8))
        report = provider.run(tenants, intervals=30)
        scanned = sum(
            1
            for decision in provider.admission.decisions
            if decision.admitted
        )
        assert report.admitted == scanned

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            CloudProvider().run([], intervals=0)


class TestProviderCapacity:
    def test_fabric_allocations_stay_disjoint(self):
        tenants = [make_tenant(i, name) for i, name in
                   enumerate(["hmmer", "sjeng", "bzip", "lib"])]
        engine = ServiceEngine(
            TrafficScenario.from_tenants(tenants, horizon=150, seed=0),
            fabric=Fabric(width=16, height=16),
        )
        # Inspect mid-run: at the horizon every tenant has parked.
        for until in (30, 75, 149):
            engine.run(until=until)
            allocations = engine.fabric.allocations
            assert len(allocations) == len(tenants)
            owned = {}
            for vcore_id, allocation in allocations.items():
                for position in allocation.positions:
                    assert position not in owned
                    owned[position] = vcore_id
        engine.run()
        assert not engine.fabric.allocations

    def test_utilization_tracked(self):
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run([make_tenant(0)], intervals=60)
        assert 0.0 < report.mean_utilization < 1.0

    def test_cash_frees_capacity_vs_race(self):
        """The provider-level payoff: CASH tenants' mean footprint is
        far below their worst-case reservation."""
        fabric = Fabric(width=16, height=16)
        provider = CloudProvider(fabric=fabric)
        tenant = make_tenant(0, "bzip", policy="cash")
        report = provider.run([tenant], intervals=500)
        reservation = provider.admission.reservation_for(tenant)
        assert (
            report.accounts[0].mean_footprint_tiles < reservation.tiles
        )

    def test_revenue_rate_positive(self):
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run([make_tenant(0)], intervals=60)
        assert report.revenue_rate > 0
