"""Tenants and per-tenant accounting."""

import pytest

from repro.cloud.service import ServiceAccount
from repro.cloud.tenant import Tenant
from repro.workloads.apps import get_app


def make_tenant(**overrides):
    defaults = dict(
        tenant_id=0, app=get_app("hmmer"), qos_goal=1.0, policy="cash"
    )
    defaults.update(overrides)
    return Tenant(**defaults)


class TestTenant:
    def test_valid(self):
        tenant = make_tenant()
        assert tenant.policy == "cash"

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            make_tenant(tenant_id=-1)
        with pytest.raises(ValueError):
            make_tenant(qos_goal=0)
        with pytest.raises(ValueError):
            make_tenant(policy="greedy")
        with pytest.raises(ValueError):
            make_tenant(arrival_interval=-1)
        with pytest.raises(ValueError):
            make_tenant(arrival_interval=5, departure_interval=5)

    def test_departure_after_arrival_ok(self):
        tenant = make_tenant(arrival_interval=3, departure_interval=9)
        assert tenant.departure_interval == 9


class TestTenantAccount:
    """A tenant's account is a :class:`ServiceAccount`."""

    def test_empty_account(self):
        account = ServiceAccount(tenant_id=1)
        assert account.intervals == 0
        assert account.mean_cost_rate == 0.0
        assert account.violation_percent == 0.0
        assert account.mean_footprint_tiles == 0.0

    def test_aggregates(self):
        account = ServiceAccount(tenant_id=1)
        account.active_intervals = 10
        account.violations = 2
        account.dollars_time = 0.5
        account.footprint_tiles = 4 + 8
        assert account.intervals == 10
        assert account.mean_cost_rate == pytest.approx(0.05)
        assert account.violation_percent == pytest.approx(20.0)
        assert account.mean_footprint_tiles == pytest.approx(12 / 10)

    def test_intervals_is_read_only(self):
        account = ServiceAccount(tenant_id=1)
        with pytest.raises(AttributeError):
            account.intervals = 3
