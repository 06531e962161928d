"""The sanitizer observes; it never changes a result.

The acceptance claim for ``REPRO_SANITIZE=1``: the full engine runs
with every runtime check armed — freeze-on-publish verification on the
table cache and fabric shadow recounts — without a single violation,
and every output is bit-identical to the unsanitized
run, across FAST on/off and ``jobs`` ∈ {1, 4}.

Workers inherit the sanitizer through both the module flag (fork) and
the ``REPRO_SANITIZE`` environment variable (spawn), so the parallel
cells here really do run their checks inside the pool processes.
"""

import pytest

from repro import perf
from repro.analysis import sanitize
from repro.experiments.scenarios import run_app_with_allocator
from repro.experiments.stats import CellSpec, run_cells
from repro.sim.optables import cache_clear

SPECS = tuple(
    CellSpec(app_name=app, kind=kind, intervals=40, seed=seed)
    for app, kind in (("x264", "cash"), ("apache", "optimal"))
    for seed in (0, 1)
)


@pytest.fixture(autouse=True)
def restore_modes(monkeypatch):
    # Capture the flag before the test (and before monkeypatch touches
    # REPRO_SANITIZE): this teardown runs while the monkeypatched env
    # is still in place, so re-reading os.environ here would leak a
    # test-local setenv into the rest of the session.
    previous = sanitize.ENABLED
    yield
    perf.set_fast_paths(True)
    sanitize.set_enabled(previous)
    cache_clear()


def run_cell_outputs(app_name, kind):
    result = run_app_with_allocator(app_name, kind, intervals=60, seed=0)
    return (
        result.mean_cost_rate,
        result.cost_dollars,
        result.violation_percent,
        tuple(result.records),
    )


class TestSanitizerIsPureObservation:
    @pytest.mark.parametrize(
        "app_name,kind", [("x264", "cash"), ("mcf", "race")]
    )
    def test_sanitized_run_identical_fast_on(self, app_name, kind):
        with perf.fast_paths(True):
            cache_clear()
            with sanitize.sanitized(False):
                plain = run_cell_outputs(app_name, kind)
            cache_clear()
            with sanitize.sanitized(True):
                checked = run_cell_outputs(app_name, kind)
        assert plain == checked

    def test_sanitized_run_identical_fast_off(self):
        with perf.fast_paths(False):
            with sanitize.sanitized(False):
                plain = run_cell_outputs("x264", "cash")
            with sanitize.sanitized(True):
                checked = run_cell_outputs("x264", "cash")
        assert plain == checked

    def test_sanitized_fast_matches_sanitized_reference(self):
        with sanitize.sanitized(True):
            with perf.fast_paths(True):
                cache_clear()
                fast = run_cell_outputs("x264", "cash")
            with perf.fast_paths(False):
                reference = run_cell_outputs("x264", "cash")
        assert fast == reference


class TestSanitizedParallelSweeps:
    def test_jobs_invisible_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.set_enabled(True)
        serial = run_cells(SPECS, jobs=1)
        parallel = run_cells(SPECS, jobs=4)
        for left, right in zip(serial, parallel):
            assert left.app_name == right.app_name
            assert left.mean_cost_rate == right.mean_cost_rate
            assert left.violation_percent == right.violation_percent
            assert left.records == right.records

    def test_sanitized_sweep_matches_unsanitized(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sanitize.set_enabled(False)
        plain = run_cells(SPECS, jobs=4)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitize.set_enabled(True)
        checked = run_cells(SPECS, jobs=4)
        for left, right in zip(plain, checked):
            assert left.mean_cost_rate == right.mean_cost_rate
            assert left.records == right.records
