"""The operating-point store never changes a result.

Every cell set here is run against the scalar reference (fast paths
off, serial) and must match record-for-record from a cold store at any
job count.  With fast paths off the store must not even be consulted,
nor the vectorized IPC kernel that fills it.  A pooled sweep's store
counters reach the parent through the pool's result pipe.
"""

from pathlib import Path

import pytest

from repro import perf
from repro.cloud.traffic import TrafficSpec
from repro.experiments.stats import CellSpec, ServiceCellSpec, run_cells
from repro.sim import optstore
from repro.sim.optables import cache_clear, cache_info
from repro.sim.perfmodel import PerformanceModel

SPECS = tuple(
    CellSpec(app_name=app, kind=kind, intervals=30, seed=seed)
    for app, kind, seed in (
        ("x264", "cash", 0),
        ("x264", "optimal", 1),
        ("apache", "cash", 0),
    )
)

BYPASS_SPECS = (
    CellSpec(app_name="x264", kind="convex", intervals=30, seed=0),
    CellSpec(app_name="apache", kind="optimal", intervals=30, seed=1),
    ServiceCellSpec(
        traffic=TrafficSpec(
            tenants=16,
            horizon=200,
            seed=3,
            activity=0.3,
            mean_burst=6.0,
            lifetime_min=60.0,
        ),
        overcommit=2.0,
        fabric_width=16,
        fabric_height=16,
    ),
)
"""Readers of operating points beyond ``SPECS``: the convex profile,
the latency oracle's per-interval points and the service's
admission-time tables."""


@pytest.fixture(autouse=True)
def pristine_tiers():
    previous = perf.FAST
    perf.set_fast_paths(True)
    cache_clear()
    optstore.reset_counters(fleet=True)
    yield
    cache_clear()
    optstore.reset_counters(fleet=True)
    perf.set_fast_paths(previous)


@pytest.fixture(scope="module")
def reference():
    """Scalar-reference results: fast paths off, serial."""
    cache_clear()
    with perf.fast_paths(False):
        return run_cells(SPECS, jobs=1)


def assert_identical(results, reference):
    assert len(results) == len(reference)
    for left, right in zip(results, reference):
        assert left.app_name == right.app_name
        assert left.mean_cost_rate == right.mean_cost_rate
        assert left.cost_dollars == right.cost_dollars
        assert left.violation_percent == right.violation_percent
        assert left.records == right.records


class TestTierStatesMatchReference:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cold(self, jobs, reference):
        assert_identical(run_cells(SPECS, jobs=jobs), reference)


class TestReferenceModeBypassesTiers:
    def test_fast_off_touches_no_tier(self, reference, monkeypatch):
        fast = run_cells(BYPASS_SPECS, jobs=1)
        cache_clear()
        optstore.reset_counters(fleet=True)

        def refuse(*args, **kwargs):
            raise AssertionError("the vectorized IPC kernel ran")

        monkeypatch.setattr(PerformanceModel, "ipc_grid", refuse)
        with perf.fast_paths(False):
            assert_identical(run_cells(SPECS, jobs=1), reference)
            scalar = run_cells(BYPASS_SPECS, jobs=1)
        assert_identical(scalar[:2], fast[:2])
        assert scalar[2] == fast[2]
        counts = optstore.counters_local()
        assert all(value == 0 for value in counts.values())
        assert cache_info()["size"] == 0


def _shm_store_entries():
    """Names of shared-memory segments an operating-point store made."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {path.name for path in root.glob("cashopt-*")}


class TestPooledCounters:
    def test_worker_counters_return_through_the_result_pipe(self, reference):
        before = _shm_store_entries()
        run_cells(SPECS, jobs=1)
        serial = optstore.counters_fleet()
        cache_clear()  # forked workers must start from an empty L1
        optstore.reset_counters(fleet=True)
        assert_identical(run_cells(SPECS, jobs=3), reference)
        pooled = optstore.counters_fleet()

        lookups = serial["l1_hits"] + serial["l1_misses"]
        assert lookups > 0
        assert pooled["l1_hits"] + pooled["l1_misses"] == lookups
        # At most once per worker: each of the 3 may build a table.
        assert serial["builds"] <= pooled["builds"] <= 3 * serial["builds"]
        assert optstore.counters_local()["builds"] == 0
        assert _shm_store_entries() - before == set()
