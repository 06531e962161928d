"""Disk-warm startup speed of the tiered operating-point store.

Re-warming a large surface grid from a populated cache directory is at
least 3x faster than the cold computation, with bit-identical
``(phase, digest, fingerprint)`` reports.  Wall-clock numbers land in
``BENCH_PERF.json`` next to the other engine-speed sections.
"""

import pytest

from repro import cacheconf, perf
from repro.analysis import sanitize
from repro.experiments.stats import record_bench_perf, warm_surface_grid
from repro.sim import optstore
from repro.sim.optables import cache_clear

# A large grid (64 x 64 = 4096 configurations per surface) so the warm
# path's savings dominate fixed costs in the disk benchmark.
BIG_SLICES = tuple(range(1, 65))
BIG_L2 = tuple(64 * (i + 1) for i in range(64))
WARM_APPS = ("x264", "apache")


@pytest.fixture(autouse=True)
def pristine_tiers():
    previous = perf.FAST
    previous_sanitize = sanitize.ENABLED
    perf.set_fast_paths(True)
    sanitize.set_enabled(False)
    cache_clear()
    optstore.reset_counters(fleet=True)
    cacheconf.set_cache_dir(None)
    yield
    cache_clear()
    optstore.reset_counters(fleet=True)
    cacheconf.set_cache_dir(None)
    sanitize.set_enabled(previous_sanitize)
    perf.set_fast_paths(previous)


@pytest.mark.benchmark(group="optable-store")
def test_disk_warm_restart_at_least_3x_faster(benchmark, announce, tmp_path):
    cacheconf.set_cache_dir(tmp_path)

    cold, cold_timing = warm_surface_grid(
        WARM_APPS, slice_counts=BIG_SLICES, l2_sizes_kb=BIG_L2, jobs=1
    )
    # A fresh "process": empty L1 — only the disk is warm.
    cache_clear()
    optstore.reset_counters()
    warm, warm_timing = benchmark.pedantic(
        lambda: warm_surface_grid(
            WARM_APPS, slice_counts=BIG_SLICES, l2_sizes_kb=BIG_L2, jobs=1
        ),
        rounds=1,
        iterations=1,
    )
    counts = optstore.counters_local()
    cold_s = float(cold_timing["wall_seconds"])
    warm_s = float(warm_timing["wall_seconds"])
    speedup = cold_s / warm_s if warm_s else float("inf")

    announce("\n=== Disk-warm restart (4096-config surfaces) ===")
    announce(f"surfaces:   {cold_timing['surfaces']}")
    announce(f"cold pass:  {cold_s * 1e3:8.1f} ms")
    announce(f"warm pass:  {warm_s * 1e3:8.1f} ms")
    announce(f"speedup:    {speedup:8.1f}x")

    assert warm == cold  # bit-identical (phase, digest, fingerprint)
    assert counts["l3_hits"] == cold_timing["surfaces"]
    assert counts["builds"] == 0

    record_bench_perf(
        "optable_store",
        {
            "apps": list(WARM_APPS),
            "surfaces": cold_timing["surfaces"],
            "grid_configs": len(BIG_SLICES) * len(BIG_L2),
            "cold_seconds": round(cold_s, 4),
            "disk_warm_seconds": round(warm_s, 4),
            "speedup": round(speedup, 1),
        },
    )
    assert speedup >= 3.0
