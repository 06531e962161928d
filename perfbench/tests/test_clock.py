"""The host-speed probes are invisible in results, leave nothing behind,
fire in serial grids and in pool workers, and scale times as documented.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench/tests/test_clock.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(PERFBENCH.parent / "src"))

import clock  # noqa: E402
import workloads  # noqa: E402


def _wrapped_attributes():
    import importlib

    from repro.experiments import stats

    found = {("stats", "run_cell"): stats.run_cell}
    for entry in clock.TICKS:
        owner = getattr(importlib.import_module(entry.module), entry.owner)
        found[(entry.owner, entry.attribute)] = owner.__dict__[entry.attribute]
    return found


def _fingerprints(results):
    return [
        workloads.fingerprint(report)
        for _, report in sorted(results[0].items(), key=lambda item: repr(item[0]))
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_probed_grid_is_bit_identical_and_unwrapped(tmp_path, jobs):
    from repro.experiments.scenarios import multitenant_grid
    from repro.sim.optables import cache_clear

    before = _wrapped_attributes()
    probe = clock.Probe(tmp_path)
    cache_clear()
    probe.install()
    try:
        probed = multitenant_grid(seeds=(3,), intervals=60, jobs=jobs)
    finally:
        probe.uninstall()
    cache_clear()
    plain = multitenant_grid(seeds=(3,), intervals=60, jobs=jobs)

    assert _fingerprints(probed) == _fingerprints(plain)
    assert _wrapped_attributes() == before
    processes = probe.read()
    # Every cell probes at its start and end; a pool's cells run in the workers.
    assert sum(len(worker.probes_ns) for worker in processes) >= 2 * 6
    assert all(worker.busy_ns > 0 for worker in processes)
    if jobs == 1:
        assert len(processes) == 1


def test_ticks_probe_long_cells(tmp_path, monkeypatch):
    from repro.experiments.scenarios import compare_allocators

    monkeypatch.setattr(clock, "PERIOD_NS", 0)
    probe = clock.Probe(tmp_path)
    probe.install()
    try:
        compare_allocators(app_names=("x264",), intervals=20, seed=0, jobs=1)
    finally:
        probe.uninstall()
    (worker,) = probe.read()
    # With no period every harness leg probes, far beyond the 2 per cell.
    assert len(worker.probes_ns) > 10 * 4


def test_scale_is_reference_over_measured():
    reference = clock.REFERENCE_PROBE_NS
    assert clock.scale(2.0, [reference, 2 * reference, 2 * reference]) == pytest.approx(1.0)


def test_grid_seconds_serial():
    reference = clock.REFERENCE_PROBE_NS
    worker = clock.Worker(busy_ns=3_000_000_000, probes_ns=[2 * reference] * 10)
    wall_ns = 3_000_000_000 + 20 * reference + 400_000_000
    net, scaled = clock.grid_seconds(wall_ns, [worker])
    assert net == pytest.approx(3.4)
    assert scaled == pytest.approx(1.7)


def test_grid_seconds_pool_takes_the_longest_scaled_worker():
    reference = clock.REFERENCE_PROBE_NS
    slow = clock.Worker(busy_ns=4_000_000_000, probes_ns=[2 * reference] * 4)
    fast = clock.Worker(busy_ns=3_000_000_000, probes_ns=[reference] * 4)
    wall_ns = 4_000_000_000 + 8 * reference + 1_000_000_000
    net, scaled = clock.grid_seconds(wall_ns, [slow, fast])
    assert net == pytest.approx(5.0)
    # Outside time 1 s at the median of all probes (1.5x), then the
    # fast worker's 3 s beats the slow worker's 4 s / 2.
    assert scaled == pytest.approx(1.0 / 1.5 + 3.0)
