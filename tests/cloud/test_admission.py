"""Worst-case-footprint admission control."""

import pytest

from repro.arch.fabric import Fabric, TileKind
from repro.cloud.admission import AdmissionController
from repro.cloud.tenant import Tenant
from repro.experiments.harness import qos_target_for
from repro.workloads.apps import get_app


def make_tenant(tenant_id, name="hmmer", policy="cash"):
    app = get_app(name)
    return Tenant(
        tenant_id=tenant_id,
        app=app,
        qos_goal=qos_target_for(app),
        policy=policy,
    )


class TestAdmission:
    def test_reservation_is_worst_case_config(self):
        controller = AdmissionController(Fabric())
        tenant = make_tenant(0)
        reservation = controller.reservation_for(tenant)
        # The reservation must meet the tenant's QoS in every phase.
        from repro.sim.perfmodel import DEFAULT_PERF_MODEL

        for phase in tenant.app.phases:
            assert DEFAULT_PERF_MODEL.ipc(phase, reservation) >= tenant.qos_goal

    def test_admits_until_capacity(self):
        controller = AdmissionController(Fabric(width=8, height=8))
        admitted = 0
        for tenant_id in range(64):
            decision = controller.request(make_tenant(tenant_id))
            if decision.admitted:
                admitted += 1
            else:
                break
        assert 0 < admitted < 64
        # The reserved totals never exceed capacity.
        assert controller.reserved(TileKind.SLICE) <= 32
        assert controller.reserved(TileKind.L2_BANK) <= 32

    def test_rejection_names_the_bottleneck(self):
        controller = AdmissionController(Fabric(width=6, height=6))
        last = None
        for tenant_id in range(40):
            last = controller.request(make_tenant(tenant_id, "mcf"))
            if not last.admitted:
                break
        assert last is not None and not last.admitted
        assert "insufficient" in last.reason

    def test_release_frees_reservation(self):
        controller = AdmissionController(Fabric(width=8, height=8))
        decision = controller.request(make_tenant(0))
        assert decision.admitted
        before = controller.reserved(TileKind.SLICE)
        controller.release(0)
        assert controller.reserved(TileKind.SLICE) < before

    def test_duplicate_admission_rejected(self):
        controller = AdmissionController(Fabric())
        controller.request(make_tenant(0))
        second = controller.request(make_tenant(0))
        assert not second.admitted
        assert second.reason == "already admitted"

    def test_overcommit_admits_more(self):
        strict = AdmissionController(Fabric(width=8, height=8), overcommit=1.0)
        loose = AdmissionController(Fabric(width=8, height=8), overcommit=2.0)

        def count(controller):
            admitted = 0
            for tenant_id in range(64):
                if controller.request(make_tenant(tenant_id)).admitted:
                    admitted += 1
            return admitted

        assert count(loose) > count(strict)

    def test_rejects_bad_overcommit(self):
        with pytest.raises(ValueError):
            AdmissionController(Fabric(), overcommit=0.5)

    def test_incremental_counters_match_decision_scan(self):
        """The O(1) admitted counters agree with full scans, and the
        reserved totals with the admitted, unreleased reservations.

        ``CloudProvider.run`` now reports admissions from the
        controller's decision-time counter instead of re-scanning the
        decision log; this pins the counter to the scan it replaced,
        releases included.
        """
        controller = AdmissionController(
            Fabric(width=10, height=10), overcommit=1.5
        )
        live = {}
        for tenant_id in range(48):
            requests = [make_tenant(tenant_id, "mcf")]
            if tenant_id % 5 == 0:
                requests.append(make_tenant(tenant_id))  # duplicate
            for tenant in requests:
                decision = controller.request(tenant)
                if decision.admitted:
                    live[tenant_id] = decision.reservation
            if tenant_id % 7 == 3:
                controller.release(tenant_id)
                live.pop(tenant_id, None)

        scanned_admits = sum(
            1 for decision in controller.decisions if decision.admitted
        )
        scanned_duplicates = sum(
            1
            for decision in controller.decisions
            if decision.reason == "already admitted"
        )
        assert controller.admitted_count == scanned_admits
        assert controller.already_admitted_count == scanned_duplicates
        assert live
        assert controller.reserved(TileKind.SLICE) == sum(
            config.slices for config in live.values()
        )
        assert controller.reserved(TileKind.L2_BANK) == sum(
            config.l2_banks for config in live.values()
        )
