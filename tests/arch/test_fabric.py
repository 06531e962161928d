"""Spatial allocation on the 2D fabric (Fig. 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.fabric import Fabric, FabricError, TileKind, _distance_matrix
from repro.arch.network import manhattan
from repro.arch.vcore import VCoreConfig


class TestConstruction:
    def test_tile_count(self):
        fabric = Fabric(width=8, height=8)
        assert len(fabric.tiles) == 64

    def test_default_mix_is_half_and_half(self):
        fabric = Fabric(width=8, height=8)
        slices = sum(
            1 for t in fabric.tiles.values() if t.kind is TileKind.SLICE
        )
        assert slices == 32

    def test_bank_ratio(self):
        fabric = Fabric(width=6, height=6, bank_ratio=2)
        slices = sum(
            1 for t in fabric.tiles.values() if t.kind is TileKind.SLICE
        )
        assert slices == 12  # one in three tiles

    def test_slice_ids_unique(self):
        fabric = Fabric(width=8, height=8)
        ids = [
            t.slice_unit.slice_id
            for t in fabric.tiles.values()
            if t.kind is TileKind.SLICE
        ]
        assert len(set(ids)) == len(ids)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Fabric(width=0, height=4)
        with pytest.raises(ValueError):
            Fabric(width=4, height=4, bank_ratio=0)

    def test_tile_lookup(self):
        fabric = Fabric(width=4, height=4)
        assert fabric.tile((0, 0)).position == (0, 0)
        with pytest.raises(KeyError):
            fabric.tile((99, 99))


class TestAllocation:
    def test_allocates_requested_resources(self):
        fabric = Fabric()
        allocation = fabric.allocate(1, VCoreConfig(4, 512))
        assert len(allocation.slice_positions) == 4
        assert len(allocation.bank_positions) == 8

    def test_tiles_marked_owned(self):
        fabric = Fabric()
        allocation = fabric.allocate(1, VCoreConfig(2, 128))
        for position in allocation.positions:
            assert fabric.tile(position).owner_vcore == 1

    def test_compactness(self):
        """A small virtual core occupies a tight neighbourhood."""
        fabric = Fabric()
        allocation = fabric.allocate(1, VCoreConfig(2, 128))
        assert allocation.mean_slice_to_bank_distance() <= 4.0

    def test_duplicate_vcore_id(self):
        fabric = Fabric()
        fabric.allocate(1, VCoreConfig(1, 64))
        with pytest.raises(FabricError):
            fabric.allocate(1, VCoreConfig(1, 64))

    def test_insufficient_slices(self):
        fabric = Fabric(width=4, height=4)  # 8 slices
        with pytest.raises(FabricError):
            fabric.allocate(1, VCoreConfig(9, 64))

    def test_insufficient_banks(self):
        fabric = Fabric(width=4, height=4)  # 8 banks = 512 KB
        with pytest.raises(FabricError):
            fabric.allocate(1, VCoreConfig(1, 1024))

    def test_release_frees_tiles(self):
        fabric = Fabric()
        fabric.allocate(1, VCoreConfig(4, 512))
        before = fabric.count_free(TileKind.SLICE)
        fabric.release(1)
        assert fabric.count_free(TileKind.SLICE) == before + 4

    def test_release_unknown(self):
        with pytest.raises(FabricError):
            Fabric().release(42)

    def test_reallocate_resizes(self):
        fabric = Fabric()
        fabric.allocate(1, VCoreConfig(8, 2048))
        allocation = fabric.reallocate(1, VCoreConfig(1, 64))
        assert allocation.config == VCoreConfig(1, 64)
        assert len(fabric.allocations) == 1

    def test_utilization(self):
        fabric = Fabric(width=4, height=4)
        assert fabric.utilization() == 0.0
        fabric.allocate(1, VCoreConfig(2, 128))
        assert fabric.utilization() == pytest.approx(4 / 16)

    @settings(max_examples=25, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from([64, 128, 256, 512]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_allocations_never_overlap(self, requests):
        """Property: no tile is ever granted to two virtual cores."""
        fabric = Fabric()
        owned = {}
        for vcore_id, (slices, l2_kb) in enumerate(requests):
            try:
                allocation = fabric.allocate(vcore_id, VCoreConfig(slices, l2_kb))
            except FabricError:
                continue
            for position in allocation.positions:
                assert position not in owned, "tile double-booked"
                owned[position] = vcore_id

    def test_allocation_kinds_are_correct(self):
        fabric = Fabric()
        allocation = fabric.allocate(1, VCoreConfig(3, 256))
        for position in allocation.slice_positions:
            assert fabric.tile(position).kind is TileKind.SLICE
        for position in allocation.bank_positions:
            assert fabric.tile(position).kind is TileKind.L2_BANK


class TestDefragmentation:
    def test_defragment_preserves_allocations(self):
        fabric = Fabric()
        for vcore_id in range(4):
            fabric.allocate(vcore_id, VCoreConfig(2, 128))
        fabric.release(1)  # punch a hole
        fabric.defragment()
        assert set(fabric.allocations) == {0, 2, 3}
        for allocation in fabric.allocations.values():
            assert allocation.config == VCoreConfig(2, 128)

    def test_defragment_enables_large_allocation(self):
        """After fragmentation, rescheduling makes room — 'fixing
        fragmentation problems is as simple as rescheduling Slices'."""
        fabric = Fabric(width=8, height=8)
        for vcore_id in range(8):
            fabric.allocate(vcore_id, VCoreConfig(2, 128))
        for vcore_id in (1, 3, 5, 7):
            fabric.release(vcore_id)
        fabric.defragment()
        # 16 free slices exist; a big core must now fit.
        allocation = fabric.allocate(99, VCoreConfig(8, 512))
        assert allocation.config.slices == 8


class TestFreeIndexConsistency:
    """The FAST free-tile index must always agree with a full scan, and
    FAST allocation must decide exactly what the scalar search decides."""

    @staticmethod
    def _scan_free(fabric, kind):
        """Ground truth: row-major scan, exactly the scalar path."""
        return [
            position
            for position, tile in fabric.tiles.items()
            if tile.kind is kind and tile.is_free
        ]

    @staticmethod
    def _apply(fabric, op, released):
        """Run one op; return its outcome as text to diff across modes."""
        action = op[0]
        try:
            if action == "alloc":
                _, vcore_id, slices, l2_kb = op
                return repr(
                    fabric.allocate(vcore_id, VCoreConfig(slices, l2_kb))
                )
            if action == "realloc":
                _, vcore_id, slices, l2_kb = op
                return repr(
                    fabric.reallocate(vcore_id, VCoreConfig(slices, l2_kb))
                )
            if action == "release":
                allocation = fabric.allocation(op[1])
                fabric.release(op[1])
                released[op[1]] = allocation
                return "released"
            if action == "reseat":
                if op[1] not in released:
                    return "never released"
                return repr(fabric.try_allocate_exact(released[op[1]]))
            return repr(fabric.defragment())
        except FabricError as error:
            return f"FabricError: {error}"

    @pytest.mark.parametrize(
        "width,height,bank_ratio",
        [(8, 8, 1), (7, 5, 1), (1, 12, 1), (9, 6, 2), (12, 20, 3)],
    )
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("alloc"),
                    st.integers(0, 5),
                    st.integers(1, 4),
                    st.sampled_from([64, 128, 256, 512]),
                ),
                st.tuples(
                    st.just("realloc"),
                    st.integers(0, 5),
                    st.integers(1, 4),
                    st.sampled_from([64, 128, 256, 512]),
                ),
                st.tuples(st.just("release"), st.integers(0, 5)),
                st.tuples(st.just("reseat"), st.integers(0, 5)),
                st.tuples(st.just("defrag")),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_index_matches_full_scan(self, width, height, bank_ratio, ops):
        from repro import perf

        replays = {}
        for fast in (True, False):
            fabric = Fabric(width=width, height=height, bank_ratio=bank_ratio)
            released = {}
            outcomes = []
            for op in ops:
                with perf.fast_paths(fast):
                    outcomes.append(self._apply(fabric, op, released))
                counts = {}
                for mode in (True, False):
                    with perf.fast_paths(mode):
                        counts[mode] = repr(
                            (fabric.occupied_tiles(), fabric.utilization())
                        )
                assert counts[True] == counts[False]
                for kind in (TileKind.SLICE, TileKind.L2_BANK):
                    expected = self._scan_free(fabric, kind)
                    # Counters match the recount...
                    assert fabric.count_free(kind) == len(expected)
                    # ...and the FAST enumeration reproduces the scalar
                    # scan order exactly (seed selection depends on it).
                    with perf.fast_paths(True):
                        fast_positions = fabric._free_positions(kind)
                    with perf.fast_paths(False):
                        scalar_positions = fabric._free_positions(kind)
                    assert fast_positions == expected
                    assert scalar_positions == expected
            owners = {
                position: tile.owner_vcore
                for position, tile in fabric.tiles.items()
            }
            replays[fast] = (fabric, outcomes, owners)
        # Same Allocation reprs (seeds, tiles, tile order, Python-int
        # coordinates), same FabricError messages, same owner maps.
        assert replays[True][1:] == replays[False][1:]

        # The closed-form region is the grown one from every free seed.
        fabric = replays[True][0]
        free_slices = fabric.count_free(TileKind.SLICE)
        free_banks = fabric.count_free(TileKind.L2_BANK)
        needs = {
            (min(slices, free_slices), min(banks, free_banks))
            for slices, banks in ((1, 1), (2, 4), (4, 8), (9, 3))
        } | {(free_slices, free_banks)}
        for seed in self._scan_free(fabric, TileKind.SLICE):
            for need_slices, need_banks in needs:
                assert fabric._nearest_region(
                    seed, need_slices, need_banks
                ) == fabric._grow_region(seed, need_slices, need_banks)

    def test_distance_table_is_pairwise_manhattan(self):
        fabric = Fabric(width=7, height=5)
        positions = list(fabric.tiles)
        table = _distance_matrix(7, 5)
        assert table.tolist() == [
            [manhattan(a, b) for b in positions] for a in positions
        ]
        assert _distance_matrix(24, 24).dtype == np.int16

    def test_kind_totals_are_invariant(self):
        fabric = Fabric(width=8, height=8)
        before = {
            kind: fabric.kind_total(kind)
            for kind in (TileKind.SLICE, TileKind.L2_BANK)
        }
        fabric.allocate(1, VCoreConfig(4, 512))
        fabric.defragment()
        fabric.release(1)
        for kind, total in before.items():
            assert fabric.kind_total(kind) == total
            assert fabric.count_free(kind) == total
