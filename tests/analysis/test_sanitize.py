"""The runtime sanitizer: freeze-on-publish and shadow recounts.

Each engine hook gets a corruption test (tamper with the shared state,
watch ``SanitizerViolation`` name the rule/owner/site) and a clean twin
(the untampered engine runs sanitized without a single violation).
"""

import random
from types import MappingProxyType

import numpy as np
import pytest

from repro import perf
from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerViolation
from repro.arch.fabric import Fabric, TileKind
from repro.arch.vcore import VCoreConfig
from repro.sim.optables import cache_clear, operating_point_table
from repro.sim.trace import TraceGenerator
from repro.workloads.apps import get_app


@pytest.fixture(autouse=True)
def sanitizer_on():
    with sanitize.sanitized(True):
        yield
    cache_clear()


@pytest.fixture
def fast():
    previous = perf.FAST
    perf.set_fast_paths(True)
    yield
    perf.set_fast_paths(previous)


class TestFreeze:
    def test_dict_becomes_readonly_view(self):
        frozen = sanitize.freeze({"a": [1, 2]}, "cache-publish", "test")
        assert isinstance(frozen, MappingProxyType)
        assert frozen["a"] == (1, 2)
        with pytest.raises(TypeError):
            frozen["b"] = 3

    def test_ndarray_marked_readonly_in_place(self):
        array = np.arange(4.0)
        frozen = sanitize.freeze(array, "cache-publish", "test")
        assert frozen is array
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 99.0

    def test_unfreezable_object_is_a_violation(self):
        class Opaque:
            pass

        with pytest.raises(SanitizerViolation) as excinfo:
            sanitize.freeze(Opaque(), "cache-publish", "owner-site")
        violation = excinfo.value
        assert violation.rule == "cache-publish"
        assert violation.owner == "owner-site"
        assert "Opaque" in violation.detail

    def test_sealable_object_gets_sealed(self):
        class Sealable:
            def __init__(self):
                self.sealed = False

            def seal(self):
                self.sealed = True

        value = Sealable()
        assert sanitize.freeze(value, "cache-publish", "test") is value
        assert value.sealed


class TestVerifyFrozen:
    def test_writeable_ndarray_is_a_violation(self):
        with pytest.raises(SanitizerViolation) as excinfo:
            sanitize.verify_frozen(
                np.arange(3.0), "cache-publish", "owner", "site"
            )
        assert "writeable" in str(excinfo.value)

    def test_bare_dict_is_a_violation(self):
        with pytest.raises(SanitizerViolation):
            sanitize.verify_frozen({}, "cache-publish", "owner", "site")

    def test_mutable_nested_in_tuple_is_found(self):
        with pytest.raises(SanitizerViolation):
            sanitize.verify_frozen(
                (1, [2]), "cache-publish", "owner", "site"
            )

    def test_frozen_forms_pass(self):
        sanitize.verify_frozen(
            (1, "x", frozenset({2}), MappingProxyType({"k": (3,)})),
            "cache-publish",
            "owner",
            "site",
        )

    def test_disabled_by_default_without_env(self, monkeypatch):
        # The module-level default tracks REPRO_SANITIZE at import; the
        # enable/disable API is what tests and the CI job flip.
        with sanitize.sanitized(False):
            assert not sanitize.enabled()
        assert sanitize.enabled()


class TestViolationPickling:
    def test_violation_survives_a_pool_result_pipe(self):
        # A violation raised inside a sanitized pool worker travels
        # back to the parent pickled; a round trip must rebuild the
        # exception (not TypeError and break the pool).
        import pickle

        original = SanitizerViolation(
            "cache-publish", "repro.sim.optables", "publish", "bare dict"
        )
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, SanitizerViolation)
        assert (clone.rule, clone.owner, clone.site, clone.detail) == (
            original.rule,
            original.owner,
            original.site,
            original.detail,
        )
        assert str(clone) == str(original)


class TestOptablesPublish:
    def test_published_table_is_sealed_and_readonly(self, fast):
        cache_clear()
        phase = get_app("x264").phases[0]
        table = operating_point_table(phase)
        assert table.sealed
        assert not table.speedup_array.flags.writeable
        with pytest.raises(TypeError):
            table._ipc[table.points[0].config] = 0.0

    def test_tampered_cached_table_raises_on_next_hit(self, fast):
        cache_clear()
        phase = get_app("x264").phases[0]
        table = operating_point_table(phase)
        # Simulate a stray writer thawing the published array.
        table.speedup_array.setflags(write=True)
        with pytest.raises(SanitizerViolation) as excinfo:
            operating_point_table(phase)
        assert excinfo.value.rule == "cache-publish"
        assert "optables" in excinfo.value.owner

    def test_clean_cache_hits_stay_silent(self, fast):
        cache_clear()
        phase = get_app("x264").phases[0]
        first = operating_point_table(phase)
        second = operating_point_table(phase)
        assert first is second


class TestFabricShadowRecount:
    def test_corrupted_free_index_is_caught(self, fast):
        fabric = Fabric(width=4, height=4)
        # Corrupt the incremental index: claim an allocated tile free.
        config = VCoreConfig(slices=2, l2_kb=128)
        fabric.allocate(vcore_id=1, config=config)
        x, y = next(
            position
            for position, tile in fabric._tiles.items()
            if tile.owner_vcore == 1 and tile.kind is TileKind.SLICE
        )
        fabric._free_index[TileKind.SLICE][y * fabric.width + x] = True
        with pytest.raises(SanitizerViolation) as excinfo:
            for _ in range(2 * sanitize.SHADOW_SAMPLE_PERIOD):
                fabric._free_positions(TileKind.SLICE)
        assert excinfo.value.rule == "shadow-recount"
        assert "_free_index" in excinfo.value.owner

    def test_corrupted_count_is_caught(self, fast):
        fabric = Fabric(width=4, height=4)
        banks = fabric._free_index[TileKind.L2_BANK]
        banks[np.flatnonzero(banks)[-1]] = False
        with pytest.raises(SanitizerViolation) as excinfo:
            for _ in range(2 * sanitize.SHADOW_SAMPLE_PERIOD):
                fabric.count_free(TileKind.L2_BANK)
        assert excinfo.value.rule == "shadow-recount"
        assert "_free_index" in excinfo.value.owner

    def test_allocation_checks_the_free_tiles_it_places_on(self, fast):
        # A corrupted mask that keeps every free count right (one owned
        # Slice marked free, one free Slice marked taken) is only visible
        # in which tiles are free, and allocation must still catch it.
        fabric = Fabric(width=4, height=4)
        allocation = fabric.allocate(vcore_id=1, config=VCoreConfig(1, 64))
        ((x, y),) = allocation.slice_positions
        slices = fabric._free_index[TileKind.SLICE]
        last_free = np.flatnonzero(slices)[-1]
        slices[y * fabric.width + x] = True
        slices[last_free] = False
        with pytest.raises(SanitizerViolation) as excinfo:
            for vcore_id in range(2, 2 + sanitize.SHADOW_SAMPLE_PERIOD):
                allocation = fabric.allocate(vcore_id, VCoreConfig(1, 64))
                fabric.release(allocation.vcore_id)
        assert excinfo.value.rule == "shadow-recount"
        assert excinfo.value.site == "_free_ids"

    def test_clean_fabric_runs_sampled_checks_silently(self, fast):
        fabric = Fabric(width=4, height=4)
        config = VCoreConfig(slices=2, l2_kb=128)
        allocation = fabric.allocate(vcore_id=1, config=config)
        for _ in range(2 * sanitize.SHADOW_SAMPLE_PERIOD):
            fabric._free_positions(TileKind.SLICE)
            fabric.count_free(TileKind.L2_BANK)
        fabric.release(allocation.vcore_id)
        for _ in range(2 * sanitize.SHADOW_SAMPLE_PERIOD):
            fabric._free_positions(TileKind.L2_BANK)


class TestTraceGeneration:
    def test_fast_and_scalar_agree_under_sanitizer(self):
        phase = get_app("x264").phases[0]
        results = {}
        for mode in (True, False):
            previous = perf.FAST
            perf.set_fast_paths(mode)
            try:
                generator = TraceGenerator(phase, seed=99)
                trace = generator.generate_arrays(3000)
                results[mode] = (trace.to_ops(), generator.rng.getstate())
            finally:
                perf.set_fast_paths(previous)
        assert results[True][0] == results[False][0]
        assert results[True][1] == results[False][1]
