"""The fast engine is an optimization, never a model change.

Every cell here is run twice — fast paths on (vectorized kernel,
memoized tables, incremental envelopes) and off (the seed's scalar
reference paths) — and must produce *identical* results, record for
record.  Likewise the sweep executor: job count must be invisible in
the outputs.
"""

import pytest

from repro import perf
from repro.experiments.scenarios import (
    compare_allocators,
    run_app_with_allocator,
)
from repro.experiments.stats import (
    CellSpec,
    run_across_seeds,
    run_cells,
    seed_stability_report,
)

# One phase-heavy throughput app and both latency apps under all four
# allocator kinds (the latency simulator hands the oracle and race its
# lazy point view on the fast path), plus one more throughput app.
CELLS = (
    ("x264", "cash"),
    ("x264", "optimal"),
    ("x264", "race"),
    ("x264", "convex"),
    ("apache", "cash"),
    ("apache", "optimal"),
    ("apache", "race"),
    ("apache", "convex"),
    ("mailserver", "cash"),
    ("mailserver", "optimal"),
    ("mailserver", "race"),
    ("mailserver", "convex"),
    ("mcf", "cash"),
)


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


class TestFastVsReference:
    @pytest.mark.parametrize("app_name,kind", CELLS)
    def test_cell_outputs_identical(self, app_name, kind):
        with perf.fast_paths(True):
            fast = run_app_with_allocator(app_name, kind, intervals=60, seed=0)
        with perf.fast_paths(False):
            reference = run_app_with_allocator(
                app_name, kind, intervals=60, seed=0
            )
        assert fast.mean_cost_rate == reference.mean_cost_rate
        assert fast.cost_dollars == reference.cost_dollars
        assert fast.violation_percent == reference.violation_percent
        assert fast.records == reference.records

    def test_nondefault_seed_identical(self):
        with perf.fast_paths(True):
            fast = run_app_with_allocator("x264", "cash", intervals=60, seed=3)
        with perf.fast_paths(False):
            reference = run_app_with_allocator(
                "x264", "cash", intervals=60, seed=3
            )
        assert fast.records == reference.records


class TestParallelVsSerial:
    SPECS = tuple(
        CellSpec(app_name=app, kind=kind, intervals=40, seed=seed)
        for app, kind in (("x264", "cash"), ("hmmer", "optimal"))
        for seed in (0, 1)
    )

    def test_run_cells_order_and_results(self):
        serial = run_cells(self.SPECS, jobs=1)
        parallel = run_cells(self.SPECS, jobs=2)
        assert len(serial) == len(self.SPECS)
        for left, right in zip(serial, parallel):
            assert left.app_name == right.app_name
            assert left.mean_cost_rate == right.mean_cost_rate
            assert left.violation_percent == right.violation_percent
            assert left.records == right.records

    def test_run_across_seeds_identical(self):
        serial = run_across_seeds(
            "x264", "cash", seeds=(0, 1), intervals=40, jobs=1
        )
        parallel = run_across_seeds(
            "x264", "cash", seeds=(0, 1), intervals=40, jobs=2
        )
        assert serial == parallel

    def test_seed_stability_report_identical(self):
        serial = seed_stability_report(
            ["x264"], seeds=(0, 1), intervals=40, jobs=1
        )
        parallel = seed_stability_report(
            ["x264"], seeds=(0, 1), intervals=40, jobs=2
        )
        assert serial == parallel

    def test_compare_allocators_identical(self):
        serial = compare_allocators(
            app_names=["x264"], intervals=40, jobs=1
        )
        parallel = compare_allocators(
            app_names=["x264"], intervals=40, jobs=2
        )
        assert serial.keys() == parallel.keys()
        for label in serial:
            for app_name in serial[label]:
                left = serial[label][app_name]
                right = parallel[label][app_name]
                assert left.mean_cost_rate == right.mean_cost_rate
                assert left.records == right.records

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_cells(self.SPECS, jobs=0)
