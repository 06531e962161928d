"""Spatial allocation on the 2D fabric (Fig. 3)."""

import copy
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import native, perf
from repro.arch.fabric import Fabric, FabricError, TileKind
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
        """Rescheduling Slices (Section III-A) keeps the fabric's free
        tiles usable: after punching holes and defragmenting, a large
        core still fits.  Growth walks through occupied tiles, so the
        allocation would succeed without ``defragment()`` too; what
        this pins is that defragmenting never takes room away."""
        fabric = Fabric(width=8, height=8)
        for vcore_id in range(8):
            fabric.allocate(vcore_id, VCoreConfig(2, 128))
        for vcore_id in (1, 3, 5, 7):
            fabric.release(vcore_id)
        fabric.defragment()
        # 16 free slices exist; a big core must now fit.
        allocation = fabric.allocate(99, VCoreConfig(8, 512))
        assert allocation.config.slices == 8


L2_KB = [64 << i for i in range(8)]
"""The service's L2 menu, 64 KB to 8 MB (1-128 banks)."""


def _occupy(fabric, taken):
    """Mark the tiles whose flat ids are in ``taken`` as owned."""
    for (x, y), tile in fabric.tiles.items():
        if y * fabric.width + x in taken:
            tile.owner_vcore = -1
            fabric._free_mask(tile.kind)[y * fabric.width + x] = False


def _scalar_best_seed(fabric, need_slices, need_banks):
    """The scalar scan's first strictly-best seed: grow a region from
    every free Slice in row-major order and keep the first smallest
    span."""
    best, best_span = None, None
    for seed in fabric._scan_free_positions(TileKind.SLICE):
        slices, banks = fabric._grow_region(seed, need_slices, need_banks)
        span = max(manhattan(seed, position) for position in slices + banks)
        if best_span is None or span < best_span:
            best, best_span = seed, span
    return best


@st.composite
def free_masks(draw, geometries):
    """A fabric from ``geometries`` with a random set of tiles taken."""
    width, height = draw(geometries)
    bank_ratio = draw(st.sampled_from([1, 2, 3]))
    fabric = Fabric(width=width, height=height, bank_ratio=bank_ratio)
    taken = draw(
        st.lists(st.booleans(), min_size=width * height, max_size=width * height)
    )
    _occupy(fabric, {tile_id for tile_id, bit in enumerate(taken) if bit})
    return fabric


@pytest.fixture(scope="module")
def core():
    """The compiled core; tests of the compiled search skip without it."""
    core = native.batch_core()
    if core is None:
        pytest.skip("compiled core unavailable on this host")
    return core


class TestSeedSearch:
    """The compiled placement search against the scalar scan."""

    @settings(max_examples=40, deadline=None)
    @given(
        fabric=free_masks(
            st.one_of(
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
                st.just((31, 17)),
            )
        ),
        data=st.data(),
    )
    def test_best_seed_is_the_scalar_scans_first_best(
        self, core, fabric, data
    ):
        free_slices = fabric.count_free(TileKind.SLICE)
        free_banks = fabric.count_free(TileKind.L2_BANK)
        assume(free_slices >= 1 and free_banks >= 1)
        need_slices = data.draw(st.integers(1, min(8, free_slices)))
        need_banks = data.draw(
            st.one_of(
                st.integers(1, min(128, free_banks)),
                st.just(free_banks),
            )
        )
        # Plus every request that exactly fills a diamond of radius 1
        # or 2, which the search's first radius must not skip.
        requests = {(need_slices, need_banks)} | {
            (slices, tiles - slices)
            for tiles in (5, 13)
            for slices in range(1, min(8, tiles - 1, free_slices) + 1)
            if tiles - slices <= free_banks
        }
        for slices, banks in sorted(requests):
            seed = _scalar_best_seed(fabric, slices, banks)
            placed = fabric._place_native(core, slices, banks)
            # The seed is the region's first Slice (distance 0), so the
            # same region means the same seed.
            assert placed[0][0] == seed, (slices, banks)
            assert placed == fabric._grow_region(seed, slices, banks), (
                slices,
                banks,
            )

    @pytest.mark.parametrize("fast", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(
        fabric=free_masks(
            st.tuples(st.integers(1, 12), st.integers(1, 12))
        ),
        slices=st.integers(1, 8),
        l2_kb=st.sampled_from(L2_KB),
    )
    def test_allocate_fails_only_on_a_count_shortage(
        self, fast, fabric, slices, l2_kb
    ):
        config = VCoreConfig(slices, l2_kb)
        fits = (
            fabric.count_free(TileKind.SLICE) >= config.slices
            and fabric.count_free(TileKind.L2_BANK) >= config.l2_banks
        )
        with perf.fast_paths(fast):
            try:
                allocation = fabric.allocate(1, config)
            except FabricError:
                assert not fits
            else:
                assert fits
                assert len(allocation.slice_positions) == config.slices
                assert len(allocation.bank_positions) == config.l2_banks


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

    OPS = st.lists(
        st.one_of(
            st.tuples(
                st.just("alloc"),
                st.integers(0, 5),
                st.integers(1, 8),
                st.sampled_from(L2_KB),
            ),
            st.tuples(
                st.just("realloc"),
                st.integers(0, 5),
                st.integers(1, 8),
                st.sampled_from(L2_KB),
            ),
            st.tuples(st.just("release"), st.integers(0, 5)),
            st.tuples(st.just("reseat"), st.integers(0, 5)),
            st.tuples(st.just("defrag")),
        ),
        min_size=1,
        max_size=20,
    )

    @pytest.mark.parametrize(
        "width,height,bank_ratio",
        [(8, 8, 1), (7, 5, 1), (1, 12, 1), (9, 6, 2), (12, 20, 3)],
    )
    @settings(max_examples=30, deadline=None)
    @given(ops=OPS)
    def test_index_matches_full_scan(self, width, height, bank_ratio, ops):
        self._check_replay(width, height, bank_ratio, ops)

    @settings(max_examples=8, deadline=None)
    @given(ops=OPS)
    def test_service_geometry_matches_full_scan(self, ops):
        """The service's 24x24 fabric, where 64-128-bank requests need
        spans up to ~21: the seed search shrinks over several radii
        there and its diamonds clip at the border.  Fewer examples,
        because the scalar search is quadratic in tiles."""
        self._check_replay(24, 24, 1, ops)

    def _check_replay(self, width, height, bank_ratio, ops):
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
            replays[fast] = (outcomes, owners)
        # Same Allocation reprs (seeds, tiles, tile order, Python-int
        # coordinates), same FabricError messages, same owner maps.
        assert replays[True] == replays[False]

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


class TestCompiledPlacementCall:
    """``PlacementBuffers`` and ``NativeBatchCore.fabric_place`` check
    what the C side would read or write blindly, before calling it."""

    @pytest.fixture
    def guarded(self, core, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_place", lambda *args: calls.append(args))
        yield core
        assert calls == []

    @staticmethod
    def _arguments(width=4, height=3, need=(2, 3)):
        fabric = Fabric(width=width, height=height)
        return dict(
            width=width,
            height=height,
            free_slices=fabric._free_slices.copy(),
            free_banks=fabric._free_banks.copy(),
            need_slices=need[0],
            need_banks=need[1],
            out=np.empty(sum(need), dtype=np.int64),
        )

    @staticmethod
    def _place(core, arguments):
        buffers = native.PlacementBuffers(
            arguments["width"],
            arguments["height"],
            arguments["free_slices"],
            arguments["free_banks"],
            arguments["out"],
        )
        return core.fabric_place(
            buffers, arguments["need_slices"], arguments["need_banks"]
        )

    def test_mask_of_the_wrong_dtype(self, guarded):
        arguments = self._arguments()
        arguments["free_banks"] = arguments["free_banks"].astype(np.int8)
        with pytest.raises(ValueError, match="free_banks"):
            self._place(guarded, arguments)

    def test_non_contiguous_mask(self, guarded):
        arguments = self._arguments()
        doubled = np.repeat(arguments["free_slices"], 2)
        arguments["free_slices"] = doubled[::2]
        assert not arguments["free_slices"].flags.c_contiguous
        with pytest.raises(ValueError, match="free_slices"):
            self._place(guarded, arguments)

    def test_mask_of_another_fabric(self, guarded):
        arguments = self._arguments()
        arguments["width"] = 5
        with pytest.raises(ValueError, match="5x3"):
            self._place(guarded, arguments)

    def test_short_out_buffer(self, guarded):
        arguments = self._arguments()
        arguments["out"] = arguments["out"][:-1].copy()
        with pytest.raises(ValueError, match="out holds 4"):
            self._place(guarded, arguments)

    def test_negative_request(self, guarded):
        arguments = self._arguments(need=(-1, 3))
        with pytest.raises(ValueError, match="-1"):
            self._place(guarded, arguments)


class TestBoundPlacementBuffers:
    """A fabric binds its masks and an output buffer for the compiled
    search once; a copy or an unpickled fabric must bind its own."""

    REQUESTS = [(2, 128), (1, 64), (3, 512), (4, 256), (1, 1024), (2, 64)]

    @staticmethod
    def _partly_allocated():
        fabric = Fabric(width=12, height=10)
        for vcore_id, request in enumerate([(3, 256), (1, 64), (2, 512)]):
            fabric.allocate(vcore_id, VCoreConfig(*request))
        fabric.release(1)
        return fabric

    def _place_all(self, fabric):
        return [
            repr(fabric.allocate(vcore_id, VCoreConfig(*request)))
            for vcore_id, request in enumerate(self.REQUESTS, start=10)
        ]

    @staticmethod
    def _state(fabric):
        return (
            fabric._free_slices.tobytes(),
            fabric._free_banks.tobytes(),
            repr(sorted(fabric.allocations.items())),
        )

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_places_like_the_original(self, how):
        fabric = self._partly_allocated()
        before = self._state(fabric)
        if how == "deepcopy":
            twin = copy.deepcopy(fabric)
        else:
            twin = pickle.loads(pickle.dumps(fabric))
        for mask in ("_free_slices", "_free_banks"):
            assert getattr(twin, mask) is not getattr(fabric, mask)
        placed_on_copy = self._place_all(twin)
        # The copy's placements leave the original's masks untouched...
        assert self._state(fabric) == before
        # ...and the original then places exactly as the copy did.
        assert self._place_all(fabric) == placed_on_copy
        assert self._state(fabric) == self._state(twin)

    def test_copy_reads_its_own_masks(self, core):
        fabric = self._partly_allocated()
        twin = copy.deepcopy(fabric)
        # Take every free Slice of the original but one; the copy must
        # still see all of its own.
        free = np.flatnonzero(fabric._free_slices)
        fabric._free_slices[free[1:]] = False
        assert twin._free_slices[free].all()
        slices, _ = twin._place_native(core, len(free), 1)
        assert len(slices) == len(free)
        ids = [y * twin.width + x for x, y in slices]
        assert sorted(ids) == free.tolist()

    def test_reference_path_without_the_native_core(self, monkeypatch):
        """As with ``REPRO_NATIVE=0``: FAST placement takes the scalar
        scan, on the original and on its copies alike, and places as
        the reference path does."""
        monkeypatch.setattr(native, "_ENABLED", False)
        monkeypatch.setattr(native, "_CORE_TRIED", False)
        monkeypatch.setattr(native, "_CORE", None)
        assert native.batch_core() is None
        replays = {}
        for fast in (True, False):
            fabric = self._partly_allocated()
            fabrics = (
                fabric,
                copy.deepcopy(fabric),
                pickle.loads(pickle.dumps(fabric)),
            )
            with perf.fast_paths(fast):
                replays[fast] = [
                    (self._place_all(each), self._state(each))
                    for each in fabrics
                ]
            assert replays[fast][1:] == replays[fast][:1] * 2
        assert replays[True] == replays[False]


class TestWithoutCompiledCore:
    """Without the compiled core, FAST allocation takes the scalar scan."""

    @pytest.fixture
    def empty_build_dir(self, tmp_path):
        previous = native._BUILD_DIR
        yield tmp_path
        native.set_build_dir(previous)

    @pytest.mark.parametrize(
        "compiler", [None, shutil.which("false")], ids=["absent", "failing"]
    )
    def test_allocate_returns_the_scalar_scans_allocation(
        self, empty_build_dir, monkeypatch, compiler
    ):
        monkeypatch.setattr(native, "_find_compiler", lambda: compiler)
        native.set_build_dir(empty_build_dir)
        assert native.batch_core() is None
        scans = []
        place_reference = Fabric._place_reference

        def counting(self, *args):
            scans.append(args)
            return place_reference(self, *args)

        monkeypatch.setattr(Fabric, "_place_reference", counting)
        requests = [(1, 64), (3, 512), (2, 128), (8, 2048), (4, 256)]
        replays = {}
        for fast in (True, False):
            fabric = Fabric(width=12, height=10)
            with perf.fast_paths(fast):
                allocations = [
                    repr(fabric.allocate(vcore_id, VCoreConfig(*request)))
                    for vcore_id, request in enumerate(requests)
                ]
                fabric.release(2)
                allocation = fabric.allocate(9, VCoreConfig(2, 64))
                allocations.append(repr(allocation))
            replays[fast] = allocations
        assert replays[True] == replays[False]
        assert len(scans) == 2 * (len(requests) + 1)
