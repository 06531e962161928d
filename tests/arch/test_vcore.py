"""Virtual core configurations and the configuration grid."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE


class TestVCoreConfig:
    def test_banks_from_kb(self):
        assert VCoreConfig(1, 64).l2_banks == 1
        assert VCoreConfig(1, 8192).l2_banks == 128

    def test_tiles(self):
        assert VCoreConfig(4, 256).tiles == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VCoreConfig(0, 64)
        with pytest.raises(ValueError):
            VCoreConfig(1, 0)

    def test_rejects_fractional_banks(self):
        with pytest.raises(ValueError):
            VCoreConfig(1, 100).l2_banks

    def test_str_formats(self):
        assert str(VCoreConfig(1, 64)) == "1S/64KB"
        assert str(VCoreConfig(8, 8192)) == "8S/8MB"

    def test_ordering(self):
        assert VCoreConfig(1, 64) < VCoreConfig(2, 64)
        assert VCoreConfig(1, 64) < VCoreConfig(1, 128)

    def test_cost_rate_delegates(self):
        config = VCoreConfig(2, 128)
        assert config.cost_rate() == pytest.approx(
            DEFAULT_COST_MODEL.rate(2, 128)
        )

    def test_hit_delay_grows_with_cache(self):
        small = VCoreConfig(1, 64).mean_l2_hit_delay()
        large = VCoreConfig(1, 8192).mean_l2_hit_delay()
        assert large > small

    def test_geometry(self):
        geometry = VCoreConfig(2, 256).geometry()
        assert geometry.num_banks == 4
        assert geometry.num_slices == 2


class TestCachedShape:
    """``l2_banks`` and ``tiles`` are computed once and kept on the
    instance; nothing that compares, hashes, orders or prints a config
    may see them."""

    def test_measured_config_equals_a_fresh_one(self):
        measured = VCoreConfig(3, 512)
        assert (measured.l2_banks, measured.tiles) == (8, 11)
        fresh = VCoreConfig(3, 512)
        assert measured == fresh
        assert hash(measured) == hash(fresh)
        assert repr(measured) == repr(fresh) == "VCoreConfig(slices=3, l2_kb=512)"
        assert measured <= fresh <= measured
        assert not measured < fresh and not fresh < measured
        others = [VCoreConfig(4, 64), VCoreConfig(1, 8192), VCoreConfig(3, 256)]
        assert sorted(others + [measured]) == sorted(others + [fresh])
        assert {measured: "a"}[fresh] == "a"

    @pytest.mark.parametrize("how", ["copy", "pickle"])
    @pytest.mark.parametrize("read_first", [True, False])
    def test_copies_keep_value_and_shape(self, how, read_first):
        config = VCoreConfig(2, 1024)
        if read_first:
            assert config.tiles == 18
        if how == "copy":
            twin = copy.copy(config)
        else:
            twin = pickle.loads(pickle.dumps(config))
        assert twin == config
        assert hash(twin) == hash(config)
        assert repr(twin) == repr(config)
        assert (twin.l2_banks, twin.tiles) == (16, 18)

    def test_fractional_banks_raise_on_every_read(self):
        config = VCoreConfig(1, 100)
        for _ in range(2):
            with pytest.raises(ValueError):
                config.l2_banks
            with pytest.raises(ValueError):
                config.tiles


class TestDefaultSpace:
    def test_64_configurations(self):
        # 8 Slice counts x 8 power-of-two L2 sizes (Section II-A).
        assert len(DEFAULT_CONFIG_SPACE) == 64

    def test_slice_range(self):
        assert DEFAULT_CONFIG_SPACE.slice_counts == tuple(range(1, 9))

    def test_l2_range_64kb_to_8mb(self):
        sizes = DEFAULT_CONFIG_SPACE.l2_sizes_kb
        assert sizes[0] == 64 and sizes[-1] == 8192
        for a, b in zip(sizes, sizes[1:]):
            assert b == 2 * a

    def test_minimum_and_maximum(self):
        assert DEFAULT_CONFIG_SPACE.minimum == VCoreConfig(1, 64)
        assert DEFAULT_CONFIG_SPACE.maximum == VCoreConfig(8, 8192)

    def test_contains_and_index(self):
        config = VCoreConfig(3, 512)
        assert config in DEFAULT_CONFIG_SPACE
        assert DEFAULT_CONFIG_SPACE[DEFAULT_CONFIG_SPACE.index_of(config)] == config

    def test_index_of_unknown(self):
        with pytest.raises(KeyError):
            DEFAULT_CONFIG_SPACE.index_of(VCoreConfig(16, 64))

    def test_iteration_covers_all(self):
        assert len(set(DEFAULT_CONFIG_SPACE)) == 64


class TestNeighbors:
    def test_interior_has_four(self):
        neighbors = DEFAULT_CONFIG_SPACE.neighbors(VCoreConfig(4, 512))
        assert len(neighbors) == 4
        assert VCoreConfig(3, 512) in neighbors
        assert VCoreConfig(5, 512) in neighbors
        assert VCoreConfig(4, 256) in neighbors
        assert VCoreConfig(4, 1024) in neighbors

    def test_corner_has_two(self):
        neighbors = DEFAULT_CONFIG_SPACE.neighbors(VCoreConfig(1, 64))
        assert sorted(neighbors) == [VCoreConfig(1, 128), VCoreConfig(2, 64)]

    def test_edge_has_three(self):
        neighbors = DEFAULT_CONFIG_SPACE.neighbors(VCoreConfig(1, 512))
        assert len(neighbors) == 3

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_CONFIG_SPACE.neighbors(VCoreConfig(9, 64))

    @given(
        s=st.sampled_from(range(1, 9)),
        kb=st.sampled_from([64 * 2 ** i for i in range(8)]),
    )
    def test_neighbor_relation_is_symmetric(self, s, kb):
        config = VCoreConfig(s, kb)
        for neighbor in DEFAULT_CONFIG_SPACE.neighbors(config):
            assert config in DEFAULT_CONFIG_SPACE.neighbors(neighbor)


class TestCustomSpace:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(slice_counts=())
        with pytest.raises(ValueError):
            ConfigurationSpace(l2_sizes_kb=())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(slice_counts=(1, 1, 2))

    def test_two_point_menu(self):
        space = ConfigurationSpace(slice_counts=(1, 8), l2_sizes_kb=(128, 4096))
        assert len(space) == 4

    def test_sorted_by_cost(self):
        ordered = DEFAULT_CONFIG_SPACE.sorted_by_cost()
        rates = [c.cost_rate() for c in ordered]
        assert rates == sorted(rates)
        assert ordered[0] == VCoreConfig(1, 64)
        assert ordered[-1] == VCoreConfig(8, 8192)
