"""The 2D fabric of Slices and L2 cache banks (Fig. 3).

A full CASH chip contains hundreds of Slices and cache banks laid out on
a 2D switched fabric.  Neither Slices nor banks need to be contiguous
for a virtual core to function, but the runtime groups adjacent tiles to
reduce operand communication and cache access latency (Section III-A).
All Slices are interchangeable and equally connected, so fragmentation
is fixed by simply rescheduling Slices to virtual cores.

This module provides spatial allocation: given a virtual-core request
(S Slices, B banks) it carves a compact region out of the free tiles,
preferring tiles adjacent to ones already chosen.

With :data:`repro.perf.FAST` enabled the fabric answers utilization
and free-count queries from per-kind boolean free-tile masks indexed by
flat row-major tile id (updated on every allocate/release) instead of
rescanning all tiles, and the compiled placement search
(``arch/_fabric.c``, loaded through :mod:`repro.native`) picks the seed
and the region from those masks in one call.  The scalar full-scan seed
search over :meth:`Fabric._grow_region` remains the reference path and
the fallback without a C compiler, and both are bit-identical.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import native, perf
from repro.analysis import sanitize

from repro.arch.cache import CacheBank
from repro.arch.network import Coordinate, manhattan
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.slice_unit import Slice
from repro.arch.vcore import VCoreConfig


class FabricError(RuntimeError):
    """Raised when an allocation request cannot be satisfied."""


#: Failure statuses of the compiled placement search.
_PLACE_FAILURES = {-1: "allocation failure", -2: "no seed fits"}


class TileKind(enum.Enum):
    SLICE = "slice"
    L2_BANK = "l2_bank"


#: ``TileKind.SLICE`` as a module global: the per-tile mask updates
#: pick a mask by identity with it, and an attribute lookup on an Enum
#: class costs several times a global's.
_SLICE_KIND = TileKind.SLICE


@dataclass
class Tile:
    """One fabric tile: either a Slice or an L2 cache bank."""

    kind: TileKind
    position: Coordinate
    owner_vcore: Optional[int] = None
    slice_unit: Optional[Slice] = None
    bank: Optional[CacheBank] = None

    @property
    def is_free(self) -> bool:
        return self.owner_vcore is None


@dataclass(frozen=True)
class Allocation:
    """The tiles granted to one virtual core."""

    vcore_id: int
    config: VCoreConfig
    slice_positions: Tuple[Coordinate, ...]
    bank_positions: Tuple[Coordinate, ...]

    @property
    def positions(self) -> Tuple[Coordinate, ...]:
        return self.slice_positions + self.bank_positions

    def mean_slice_to_bank_distance(self) -> float:
        """Average Manhattan distance from each Slice to each bank."""
        if not self.slice_positions or not self.bank_positions:
            return 0.0
        total = sum(
            manhattan(s, b)
            for s in self.slice_positions
            for b in self.bank_positions
        )
        return total / (len(self.slice_positions) * len(self.bank_positions))


class Fabric:
    """A ``width x height`` checkerboard of Slices and L2 banks.

    Even (x+y) tiles are Slices and odd tiles are banks, approximating
    the interleaved layout of Fig. 3 with a 1:1 Slice:bank ratio.  Use
    ``bank_ratio`` to change the mix (e.g. 2 banks per Slice).

    A placement or a release pays only for the tiles it moves: one
    :meth:`_assign` call writes each tile's owner and its bit in its
    kind's free-tile mask, and the compiled search reads the masks
    through a :class:`~repro.native.PlacementBuffers` bound when the
    fabric is built, which also holds its output buffer.  A copied or
    unpickled fabric binds its own masks.
    """

    def __init__(
        self,
        width: int = 16,
        height: int = 16,
        bank_ratio: int = 1,
        slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
        cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"fabric dimensions must be positive, got {width}x{height}")
        if bank_ratio <= 0:
            raise ValueError(f"bank_ratio must be positive, got {bank_ratio}")
        self.width = width
        self.height = height
        self.slice_params = slice_params
        self.cache_params = cache_params
        self._tiles: Dict[Coordinate, Tile] = {}
        self._allocations: Dict[int, Allocation] = {}
        # Incremental free-tile index: one boolean mask per tile kind
        # over flat row-major ids (``y * width + x``), kept in lockstep
        # with every ownership change, plus immutable per-kind totals.
        # The masks are only *consulted* under perf.FAST; the scalar
        # full-scan paths stay the reference.  Two attributes, not a
        # dict keyed by TileKind: the allocate/release path picks one
        # by identity instead of hashing an enum per tile.
        self._free_slices = np.zeros(width * height, dtype=bool)
        self._free_banks = np.zeros(width * height, dtype=bool)
        # The compiled search's view of the masks, with an output
        # buffer with room for every tile, bound once: a placement
        # then reads no array address and allocates no output.
        self._placement = native.PlacementBuffers(
            width,
            height,
            self._free_slices,
            self._free_banks,
            np.empty(width * height, dtype=np.int64),
        )
        # Sanitizer shadow-recount sampling counter (REPRO_SANITIZE=1).
        self._sanitize_ticks = 0
        self._kind_totals: Dict[TileKind, int] = {
            TileKind.SLICE: 0,
            TileKind.L2_BANK: 0,
        }
        next_slice = 0
        next_bank = 0
        # One object per tile is one-time setup: the hot-path analyzer
        # reaches this constructor from CloudProvider.run through
        # ServiceEngine.__init__, never from a per-interval loop.
        for y in range(height):
            for x in range(width):
                position = (x, y)
                tile_id = x + y * width
                # Interleave: one Slice for every `bank_ratio` banks.
                if tile_id % (bank_ratio + 1) == 0:
                    unit = Slice(  # lint: allow(hot-alloc)
                        slice_id=next_slice,
                        position=position,
                        params=slice_params,
                        cache_params=cache_params,
                    )
                    self._tiles[position] = Tile(  # lint: allow(hot-alloc)
                        kind=TileKind.SLICE, position=position, slice_unit=unit
                    )
                    self._free_slices[tile_id] = True
                    self._kind_totals[TileKind.SLICE] += 1
                    next_slice += 1
                else:
                    bank = CacheBank(  # lint: allow(hot-alloc)
                        level=cache_params.l2_bank,
                        bank_id=next_bank,
                        params=cache_params,
                    )
                    self._tiles[position] = Tile(  # lint: allow(hot-alloc)
                        kind=TileKind.L2_BANK, position=position, bank=bank
                    )
                    self._free_banks[tile_id] = True
                    self._kind_totals[TileKind.L2_BANK] += 1
                    next_bank += 1

    @property
    def tiles(self) -> Dict[Coordinate, Tile]:
        return self._tiles

    def tile(self, position: Coordinate) -> Tile:
        try:
            return self._tiles[position]
        except KeyError:
            raise KeyError(f"no tile at {position}") from None

    def kind_total(self, kind: TileKind) -> int:
        """How many tiles of ``kind`` the fabric has (free or not)."""
        return self._kind_totals[kind]

    def _free_mask(self, kind: TileKind) -> np.ndarray:
        """The free-tile mask of ``kind``."""
        return self._free_slices if kind is _SLICE_KIND else self._free_banks

    @staticmethod
    def _mask_label(kind: TileKind) -> str:
        """Sanitizer owner label of ``kind``'s free-tile mask."""
        name = "_free_slices" if kind is _SLICE_KIND else "_free_banks"
        return f"repro.arch.fabric.Fabric.{name}"

    def _sample_tick(self) -> bool:
        """Whether this consult of the masks gets the sanitizer's shadow
        recount (one tick per consult, see :func:`sanitize.should_sample`)."""
        self._sanitize_ticks += 1
        return sanitize.should_sample(self._sanitize_ticks)

    def count_free(self, kind: TileKind) -> int:
        if perf.FAST:
            count = int(np.count_nonzero(self._free_mask(kind)))
            if sanitize.ENABLED and self._sample_tick():
                reference = sum(
                    1
                    for tile in self._tiles.values()
                    if tile.kind is kind and tile.is_free
                )
                if count != reference:
                    sanitize.violation(
                        "shadow-recount",
                        self._mask_label(kind),
                        "count_free",
                        f"{kind.name}: index says {count} free, "
                        f"full scan says {reference}",
                    )
            return count
        return sum(
            1 for tile in self._tiles.values() if tile.kind is kind and tile.is_free
        )

    def _scan_free_positions(self, kind: TileKind) -> List[Coordinate]:
        """Reference full row-major scan of free tiles of ``kind``."""
        return [
            position
            for position, tile in self._tiles.items()
            if tile.kind is kind and tile.is_free
        ]

    def _free_ids(self, kind: TileKind) -> np.ndarray:
        """Flat ids of the free ``kind`` tiles, ascending.

        Ascending flat id is row-major order, the order the scalar scan
        enumerates free tiles in.  Every FAST consumer of the masks'
        contents goes through here or :meth:`_place_native`, and both
        run the sanitizer's sampled shadow recount against a full scan.
        """
        ids = np.flatnonzero(self._free_mask(kind))
        if sanitize.ENABLED and self._sample_tick():
            self._recount(kind, ids)
        return ids

    def _recount(self, kind: TileKind, ids: np.ndarray) -> None:
        """Sanitizer shadow recount: ``ids`` must be the free ``kind``
        tiles a full scan finds, in its order."""
        positions = self._positions(ids)
        reference = self._scan_free_positions(kind)
        if positions != reference:
            extra = sorted(set(positions) - set(reference))
            missing = sorted(set(reference) - set(positions))
            sanitize.violation(
                "shadow-recount",
                self._mask_label(kind),
                "_free_ids",
                f"{kind.name}: index diverged from full scan "
                f"(stale={extra[:4]!r}, missing="
                f"{missing[:4]!r}, index_len={len(positions)}, "
                f"scan_len={len(reference)})",
            )

    def _positions(self, ids: np.ndarray) -> List[Coordinate]:
        """Coordinates of flat tile ids, as tuples of Python ints."""
        ys, xs = np.divmod(ids, self.width)
        return list(zip(xs.tolist(), ys.tolist()))

    def _free_positions(self, kind: TileKind) -> List[Coordinate]:
        if perf.FAST:
            return self._positions(self._free_ids(kind))
        return self._scan_free_positions(kind)

    def _place_native(
        self, core: native.NativeBatchCore, need_slices: int, need_banks: int
    ) -> Tuple[List[Coordinate], List[Coordinate]]:
        """FAST placement: the compiled search over the free-tile masks.

        ``arch/_fabric.c`` picks what :meth:`_place_reference` picks —
        the first free Slice, in row-major order, whose Manhattan
        diamond holds the request at the smallest radius, and the
        nearest free tiles of each kind around it in the ``(distance,
        x, y)`` order region growth pops them in — from integer tile
        counts alone.  The caller has checked both free counts.
        """
        if sanitize.ENABLED and self._sample_tick():
            # One tick for both masks: with its two free counts an
            # allocation then ticks three times, prime to the sample
            # period, so the sampled tick visits every consult in turn.
            for kind in (TileKind.SLICE, TileKind.L2_BANK):
                self._recount(kind, np.flatnonzero(self._free_mask(kind)))
        buffers = self._placement
        status = core.fabric_place(buffers, need_slices, need_banks)
        if status != 0:
            raise RuntimeError(
                f"native placement failed (status {status}: "
                f"{_PLACE_FAILURES.get(status, 'unknown')})"
            )
        positions = self._positions(buffers.out[: need_slices + need_banks])
        return positions[:need_slices], positions[need_slices:]

    def _place_reference(
        self, need_slices: int, need_banks: int
    ) -> Tuple[List[Coordinate], List[Coordinate]]:
        """Scalar placement: grow a region from every free Slice in
        row-major order and keep the first of the smallest span.  The
        caller has checked both free counts."""
        best: Optional[Tuple[List[Coordinate], List[Coordinate]]] = None
        best_span = None
        for seed in self._free_positions(TileKind.SLICE):
            region = self._grow_region(seed, need_slices, need_banks)
            if region is None:
                continue
            slices, banks = region
            span = max(
                manhattan(seed, position) for position in slices + banks
            )
            if best_span is None or span < best_span:
                best, best_span = region, span
                if span <= 1:
                    break
        assert best is not None
        return best

    def _neighbors(self, position: Coordinate) -> List[Coordinate]:
        x, y = position
        out = []
        for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append((nx, ny))
        return out

    def _grow_region(
        self, seed: Coordinate, need_slices: int, need_banks: int
    ) -> Optional[Tuple[List[Coordinate], List[Coordinate]]]:
        """Grow a compact region from ``seed`` with the needed tile mix.

        Best-first growth by distance to the seed keeps the region
        near-square, minimizing operand and cache distances.
        """
        slices: List[Coordinate] = []
        banks: List[Coordinate] = []
        visited: Set[Coordinate] = set()
        frontier: List[Tuple[int, Coordinate]] = [(0, seed)]
        while frontier and (len(slices) < need_slices or len(banks) < need_banks):
            _, position = heapq.heappop(frontier)
            if position in visited:
                continue
            visited.add(position)
            tile = self._tiles[position]
            if tile.is_free:
                if tile.kind is TileKind.SLICE and len(slices) < need_slices:
                    slices.append(position)
                elif tile.kind is TileKind.L2_BANK and len(banks) < need_banks:
                    banks.append(position)
            for neighbor in self._neighbors(position):
                if neighbor not in visited:
                    heapq.heappush(
                        frontier, (manhattan(seed, neighbor), neighbor)
                    )
        if len(slices) < need_slices or len(banks) < need_banks:
            return None
        return slices, banks

    def allocate(self, vcore_id: int, config: VCoreConfig) -> Allocation:
        """Allocate a virtual core; raises :class:`FabricError` if full."""
        if vcore_id in self._allocations:
            raise FabricError(f"vcore {vcore_id} already allocated")
        need_slices = config.slices
        need_banks = config.l2_banks
        if self.count_free(TileKind.SLICE) < need_slices:
            raise FabricError(
                f"need {need_slices} free Slices, have "
                f"{self.count_free(TileKind.SLICE)}"
            )
        if self.count_free(TileKind.L2_BANK) < need_banks:
            raise FabricError(
                f"need {need_banks} free banks, have "
                f"{self.count_free(TileKind.L2_BANK)}"
            )
        core = native.batch_core() if perf.FAST else None
        if core is not None:
            slices, banks = self._place_native(core, need_slices, need_banks)
        else:
            slices, banks = self._place_reference(need_slices, need_banks)
        self._assign(slices + banks, vcore_id)
        allocation = Allocation(
            vcore_id=vcore_id,
            config=config,
            slice_positions=tuple(slices),
            bank_positions=tuple(banks),
        )
        self._allocations[vcore_id] = allocation
        return allocation

    def try_allocate_exact(self, allocation: Allocation) -> bool:
        """Re-seat a previously released allocation on its exact tiles.

        The event-driven service parks idle tenants (releasing their
        tiles) and re-seats them when the next burst arrives; if the
        old region is still free this is O(region) — no seed search,
        no growth.  Returns False (fabric untouched) when any old tile
        is taken, in which case the caller falls back to a regular
        :meth:`allocate`.
        """
        if allocation.vcore_id in self._allocations:
            raise FabricError(
                f"vcore {allocation.vcore_id} already allocated"
            )
        positions = allocation.positions
        tiles = self._tiles
        for position in positions:
            tile = tiles.get(position)
            if tile is None or tile.owner_vcore is not None:
                return False
        self._assign(positions, allocation.vcore_id)
        self._allocations[allocation.vcore_id] = allocation
        return True

    def release(self, vcore_id: int) -> None:
        allocation = self._allocations.pop(vcore_id, None)
        if allocation is None:
            raise FabricError(f"vcore {vcore_id} is not allocated")
        self._assign(allocation.positions, None)

    def _assign(
        self, positions: Sequence[Coordinate], owner: Optional[int]
    ) -> None:
        """Hand the tiles at ``positions`` to ``owner`` (None frees
        them), keeping each one's Slice and its bit in its kind's
        free-tile mask in step.

        One call per placement or release, with the masks and the
        width in locals: a method call per tile would cost more than
        the bit it writes.
        """
        tiles = self._tiles
        width = self.width
        free_slices = self._free_slices
        free_banks = self._free_banks
        free = owner is None
        for position in positions:
            tile = tiles[position]
            tile.owner_vcore = owner
            x, y = position
            if tile.kind is _SLICE_KIND:
                free_slices[y * width + x] = free
                tile.slice_unit.owner_vcore = owner
            else:
                free_banks[y * width + x] = free

    def reallocate(self, vcore_id: int, config: VCoreConfig) -> Allocation:
        """Resize a virtual core (release + allocate, keeping the id)."""
        self.release(vcore_id)
        return self.allocate(vcore_id, config)

    def allocation(self, vcore_id: int) -> Allocation:
        try:
            return self._allocations[vcore_id]
        except KeyError:
            raise FabricError(f"vcore {vcore_id} is not allocated") from None

    @property
    def allocations(self) -> Dict[int, Allocation]:
        return dict(self._allocations)

    def allocation_for(self, vcore_id: int) -> Optional[Allocation]:
        """O(1) lookup without the defensive copy ``allocations`` takes."""
        return self._allocations.get(vcore_id)

    def has_allocation(self, vcore_id: int) -> bool:
        return vcore_id in self._allocations

    def occupied_tiles(self) -> int:
        """How many tiles are owned right now (integer utilization twin).

        The service engine accounts utilization in exact integer
        tile-intervals so that multiplying over a skipped idle stretch
        equals per-interval accumulation bit for bit.
        """
        if perf.FAST:
            free = self.count_free(TileKind.SLICE) + self.count_free(
                TileKind.L2_BANK
            )
            return len(self._tiles) - free
        return sum(1 for tile in self._tiles.values() if not tile.is_free)

    def utilization(self) -> float:
        total = len(self._tiles)
        return self.occupied_tiles() / total if total else 0.0

    def defragment(self) -> int:
        """Re-pack all allocations compactly; returns vcores moved.

        Because Slices are interchangeable (Section III-A), fixing
        fragmentation is just rescheduling: release everything and
        re-allocate each virtual core in descending size order.
        """
        allocations = sorted(
            self._allocations.values(),
            key=lambda a: a.config.tiles,
            reverse=True,
        )
        for allocation in allocations:
            self.release(allocation.vcore_id)
        moved = 0
        for allocation in allocations:
            new = self.allocate(allocation.vcore_id, allocation.config)
            if set(new.positions) != set(allocation.positions):
                moved += 1
        return moved
