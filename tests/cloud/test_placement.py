"""Service placement hysteresis and reservation-bounded menus."""

from repro.arch.fabric import Fabric
from repro.arch.vcore import VCoreConfig
from repro.cloud import CloudProvider, Tenant
from repro.cloud.service import ServiceEngine, build_tenant_allocator
from repro.cloud.traffic import TrafficScenario
from repro.experiments.harness import qos_target_for
from repro.workloads.apps import get_app


def make_tenant(tenant_id, name="bzip", policy="cash"):
    app = get_app(name)
    return Tenant(
        tenant_id=tenant_id,
        app=app,
        qos_goal=qos_target_for(app),
        policy=policy,
    )


def make_engine():
    """An engine that is never run: tests drive its placement directly."""
    scenario = TrafficScenario.from_tenants([make_tenant(0)], horizon=1, seed=0)
    return ServiceEngine(scenario, fabric=Fabric(width=16, height=16))


class TestPlacementHysteresis:
    def test_superset_allocation_hosts_in_place(self):
        engine = make_engine()
        engine.fabric.allocate(1, VCoreConfig(4, 512))
        # A smaller request is hosted without reallocation.
        assert engine._place(1, VCoreConfig(2, 128)) is True
        assert engine.fabric.allocation(1).config == VCoreConfig(4, 512)

    def test_growth_reallocates_to_componentwise_max(self):
        engine = make_engine()
        engine.fabric.allocate(1, VCoreConfig(4, 128))
        assert engine._place(1, VCoreConfig(2, 512)) is True
        held = engine.fabric.allocation(1).config
        assert held.slices == 4 and held.l2_kb == 512

    def test_sustained_small_footprint_shrinks(self):
        engine = make_engine()
        engine.fabric.allocate(1, VCoreConfig(8, 1024))
        small = VCoreConfig(1, 64)
        for _ in range(8):
            engine._place(1, small)
        # After the streak the holding is released down to the request.
        assert engine.fabric.allocation(1).config == small

    def test_brief_dip_does_not_shrink(self):
        engine = make_engine()
        big = VCoreConfig(8, 1024)
        engine.fabric.allocate(1, big)
        for _ in range(3):
            engine._place(1, VCoreConfig(1, 64))
        engine._place(1, big)  # footprint back up: streak resets
        for _ in range(3):
            engine._place(1, VCoreConfig(1, 64))
        assert engine.fabric.allocation(1).config == big

    def test_fresh_tenant_gets_allocated(self):
        engine = make_engine()
        assert engine._place(2, VCoreConfig(2, 128)) is True
        assert engine.fabric.allocation(2).config == VCoreConfig(2, 128)


class TestReservationBoundedMenu:
    def test_cash_menu_never_exceeds_reservation(self):
        engine = make_engine()
        tenant = make_tenant(0)
        decision = engine.admission.request(tenant)
        allocator = build_tenant_allocator(
            tenant, decision.reservation, engine.space, engine.cost_model
        )
        for config in allocator.runtime.configs:
            assert config.slices <= decision.reservation.slices
            assert config.l2_banks <= decision.reservation.l2_banks

    def test_cash_fleet_has_no_placement_failures(self):
        """With reservation-bounded menus and admission control, every
        placement fits by construction: no tenant ever waits."""
        tenants = [
            make_tenant(i, name)
            for i, name in enumerate(["bzip", "hmmer", "sjeng", "lib"])
        ]
        provider = CloudProvider(fabric=Fabric(width=16, height=16))
        report = provider.run(tenants, intervals=300)
        assert all(
            account.waiting_intervals == 0
            for account in report.accounts.values()
        )
