"""The counters of the operating-point store.

Covers the shape of the store's statistics and how pool-worker counts
are absorbed into the fleet view and cleared between benchmark passes.
"""

import pytest

from repro.sim import optstore
from repro.sim.optables import cache_clear, optable_cache_stats


@pytest.fixture(autouse=True)
def clean_store():
    """Every test starts and ends with zero counters and no L1."""
    cache_clear()
    optstore.reset_counters(fleet=True)
    yield
    cache_clear()
    optstore.reset_counters(fleet=True)


class TestStats:
    def test_stats_shape(self):
        stats = optable_cache_stats()
        assert set(stats) == {"l1", "local", "fleet"}
        assert set(stats["local"]) == set(optstore.COUNTERS)
        assert set(stats["fleet"]) == set(optstore.COUNTERS)

    def test_fleet_equals_local_without_a_store(self):
        optstore.bump("l1_hits", 3)
        assert optstore.counters_fleet() == optstore.counters_local()

    def test_reset_counters(self):
        optstore.bump("builds", 5)
        optstore.absorb(dict.fromkeys(optstore.COUNTERS, 2))
        optstore.reset_counters()
        assert optstore.counters_local()["builds"] == 0
        # Absorbed worker counts survive a local reset, not a fleet one.
        assert optstore.counters_fleet()["builds"] == 2
        optstore.reset_counters(fleet=True)
        assert optstore.counters_fleet()["builds"] == 0
