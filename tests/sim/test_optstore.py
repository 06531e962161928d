"""The disk tier and counters of the operating-point store.

Covers the acceptance claims of the tiered store: content digests are
stable; disk entries survive a round trip bit-identically and any
truncated/bit-flipped entry degrades to a clean rebuild; warm-up
builds each surface once and a disk-warm table matches the scalar
reference; and a ``cache clear`` leaves the engine fully functional.
"""

import numpy as np
import pytest

from repro import cacheconf, perf
from repro.analysis import sanitize
from repro.arch.vcore import ConfigurationSpace
from repro.sim import optstore
from repro.sim.optables import (
    build_table_scalar,
    cache_clear,
    ensure_surface,
    operating_point_table,
    optable_cache_stats,
)
from repro.workloads.apps import make_x264

SPACE = ConfigurationSpace(slice_counts=(1, 2, 4), l2_sizes_kb=(64, 256))
VALUES = len(SPACE.slice_counts) * len(SPACE.l2_sizes_kb)


@pytest.fixture(autouse=True)
def clean_store():
    """Every test starts and ends with zero counters, no L1, no disk
    tier."""
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


def surface(seed=0):
    """A synthetic (speedups, hull) payload for direct tier tests."""
    rng = np.random.default_rng(seed)
    speedups = rng.uniform(0.5, 8.0, size=VALUES)
    hull = np.array([[0.0, 0.0], [float(speedups.max()), 1.0]])
    return speedups, hull


class TestDigest:
    def test_digest_is_deterministic(self):
        key = ("phase", 1.5, (2, 3))
        assert optstore.table_digest(key, 6) == optstore.table_digest(key, 6)

    def test_digest_separates_keys_and_grids(self):
        assert optstore.table_digest(("a",), 6) != optstore.table_digest(
            ("b",), 6
        )
        assert optstore.table_digest(("a",), 6) != optstore.table_digest(
            ("a",), 8
        )

    def test_schema_version_participates(self, monkeypatch):
        key = ("phase",)
        before = optstore.table_digest(key, 6)
        monkeypatch.setattr(cacheconf, "SCHEMA_VERSION", 999)
        assert optstore.table_digest(key, 6) != before


class TestDiskTier:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cacheconf.set_cache_dir(tmp_path)
        speedups, hull = surface()
        digest = optstore.table_digest(("round-trip",), VALUES)
        with optstore.build_guard():
            fingerprint = optstore.publish(digest, speedups, hull)
        loaded = optstore.lookup(digest, VALUES)
        assert loaded is not None
        assert loaded.checksum == fingerprint
        assert loaded.speedups.tobytes() == speedups.tobytes()
        assert loaded.hull is not None
        assert loaded.hull.tobytes() == hull.tobytes()
        assert not loaded.speedups.flags.writeable

    def test_disk_off_means_no_files_and_no_hits(self, tmp_path):
        speedups, hull = surface()
        digest = optstore.table_digest(("disk-off",), VALUES)
        with optstore.build_guard():
            optstore.publish(digest, speedups, hull)
        assert optstore.lookup(digest, VALUES) is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_damaged_entry_is_a_miss_then_self_heals(self, tmp_path, damage):
        cacheconf.set_cache_dir(tmp_path)
        speedups, hull = surface()
        digest = optstore.table_digest(("damaged", damage), VALUES)
        with optstore.build_guard():
            fingerprint = optstore.publish(digest, speedups, hull)
        (path,) = tmp_path.glob("*.npz")
        raw = bytearray(path.read_bytes())
        if damage == "truncate":
            raw = raw[: len(raw) // 2]
        else:
            raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))

        assert optstore.lookup(digest, VALUES) is None
        counts = optstore.counters_local()
        assert counts["corrupt"] >= 1
        assert counts["l3_misses"] >= 1

        # The rebuild overwrites the damaged file and the cache heals.
        with optstore.build_guard():
            assert optstore.publish(digest, speedups, hull) == fingerprint
        healed = optstore.lookup(digest, VALUES)
        assert healed is not None
        assert healed.checksum == fingerprint
        assert healed.speedups.tobytes() == speedups.tobytes()

    def test_wrong_grid_size_is_a_miss(self, tmp_path):
        cacheconf.set_cache_dir(tmp_path)
        speedups, hull = surface()
        digest = optstore.table_digest(("wrong-size",), VALUES)
        with optstore.build_guard():
            optstore.publish(digest, speedups, hull)
        assert optstore.lookup(digest, VALUES + 1) is None

    def test_disk_clear_counts_entries(self, tmp_path):
        cacheconf.set_cache_dir(tmp_path)
        for index in range(3):
            speedups, hull = surface(index)
            with optstore.build_guard():
                optstore.publish(
                    optstore.table_digest(("clear", index), VALUES),
                    speedups,
                    hull,
                )
        assert optstore.disk_clear() == 3
        assert optstore.disk_clear() == 0


class TestWarmPaths:
    def test_ensure_surface_builds_once_and_is_stable(self, tmp_path):
        cacheconf.set_cache_dir(tmp_path)
        phase = make_x264().phases[0]
        cold = ensure_surface(phase, space=SPACE)
        builds = optstore.counters_local()["builds"]
        warm = ensure_surface(phase, space=SPACE)
        assert warm == cold
        assert optstore.counters_local()["builds"] == builds

    def test_disk_warm_table_matches_scalar_reference(self, tmp_path):
        cacheconf.set_cache_dir(tmp_path)
        phase = make_x264().phases[0]
        ensure_surface(phase, space=SPACE)
        cache_clear()
        table = operating_point_table(phase, space=SPACE)
        reference = build_table_scalar(phase, space=SPACE)
        assert tuple(table) == tuple(reference)
        assert table.envelope() is not None
        hull, _ = table.envelope()
        ref_hull, _ = reference.envelope()
        assert list(hull) == list(ref_hull)
        assert optstore.counters_local()["l3_hits"] >= 1

    def test_cache_clear_on_idle_store_keeps_engine_green(self, tmp_path):
        # The `repro cache clear` sequence against an idle store.
        cacheconf.set_cache_dir(tmp_path)
        phase = make_x264().phases[0]
        ensure_surface(phase, space=SPACE)
        cache_clear()
        assert optstore.disk_clear() >= 1
        table = operating_point_table(phase, space=SPACE)
        assert tuple(table) == tuple(build_table_scalar(phase, space=SPACE))


class TestStats:
    def test_stats_shape(self):
        stats = optable_cache_stats()
        assert set(stats) == {"l1", "local", "fleet", "disk"}
        assert set(stats["local"]) == set(optstore.COUNTERS)
        assert set(stats["fleet"]) == set(optstore.COUNTERS)
        assert stats["disk"]["enabled"] is False

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
