"""Sharding closed provider runs over workers is invisible in reports.

``ProviderCellSpec`` cells run ``CloudProvider.run`` — a closed tenant
list on the service engine — inside the sweep executor.  The test runs
a grid of policy mixes and overcommit levels serially and across four
workers and asserts every ``ServiceReport`` is identical field for
field.  Fast-vs-reference identity of the same closed runs lives in
``test_service_fast_equivalence.py``.
"""

import pytest

from repro import perf
from repro.experiments.scenarios import provider_mix
from repro.experiments.stats import ProviderCellSpec, run_cells


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


def _assert_reports_identical(left, right):
    assert left.accounts == right.accounts
    assert left.tenant_intervals == right.tenant_intervals
    assert left.utilization_tile_intervals == right.utilization_tile_intervals
    assert left.mean_utilization == right.mean_utilization
    assert left.revenue_rate == right.revenue_rate
    assert left.defragmentations == right.defragmentations
    assert left == right


class TestShardedVsSerial:
    SPECS = tuple(
        ProviderCellSpec(
            mix=provider_mix(policy_mix, tenants=6),
            intervals=50,
            seed=seed,
            overcommit=overcommit,
        )
        for policy_mix in ("race", "cash")
        for overcommit in (1.0, 1.5)
        for seed in (0,)
    )

    def test_jobs_invisible_in_reports(self):
        serial = run_cells(self.SPECS, jobs=1)
        sharded = run_cells(self.SPECS, jobs=4)
        assert len(serial) == len(self.SPECS)
        for left, right in zip(serial, sharded):
            _assert_reports_identical(left, right)
