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

With :data:`repro.perf.FAST` enabled the fabric answers utilization,
free-count and seed-selection queries from an incrementally maintained
per-kind free-position index (updated on every allocate/release) in
O(1)/O(free) instead of rescanning all tiles; the scalar full-scan
twins remain the reference path, and the index enumerates free
positions in the exact row-major order the scans produce, so both
modes are bit-identical.
"""

from __future__ import annotations

import enum
import heapq
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro import perf
from repro.analysis import sanitize

from repro.arch.cache import CacheBank
from repro.arch.network import Coordinate, manhattan
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.slice_unit import Slice
from repro.arch.vcore import VCoreConfig


class FabricError(RuntimeError):
    """Raised when an allocation request cannot be satisfied."""


#: Process-wide cache of all-pairs Manhattan distance matrices, keyed by
#: fabric geometry.  The matrix depends only on (width, height), so one
#: copy serves every fabric of that shape and never enters checkpoints.
_DISTANCE_CACHE: Dict[Tuple[int, int], np.ndarray] = {}
_DISTANCE_LOCK = threading.Lock()


def _distance_matrix(width: int, height: int) -> np.ndarray:
    """All-pairs Manhattan distances between flat tile indices.

    Flat index ``y * width + x`` matches the row-major order tiles are
    created in, so gathering rows/columns of this matrix for the free
    set reproduces the distances the scalar scan computes pairwise.
    """
    key = (width, height)
    with _DISTANCE_LOCK:
        cached = _DISTANCE_CACHE.get(key)
        if cached is None:
            ys, xs = np.divmod(
                np.arange(width * height, dtype=np.int64), width
            )
            cached = np.abs(xs[:, None] - xs[None, :]) + np.abs(
                ys[:, None] - ys[None, :]
            )
            _DISTANCE_CACHE[key] = cached
        return cached


class TileKind(enum.Enum):
    SLICE = "slice"
    L2_BANK = "l2_bank"


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
        # Incremental free-position index: one set of coordinates per
        # tile kind, kept in lockstep with every ownership change, plus
        # immutable per-kind totals.  The sets are only *consulted*
        # under perf.FAST; the scalar full-scan paths stay the
        # reference.
        self._free_index: Dict[TileKind, Set[Coordinate]] = {
            TileKind.SLICE: set(),
            TileKind.L2_BANK: set(),
        }
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
                # Interleave: one Slice for every `bank_ratio` banks.
                if (x + y * width) % (bank_ratio + 1) == 0:
                    unit = Slice(  # lint: allow(hot-alloc)
                        slice_id=next_slice,
                        position=position,
                        params=slice_params,
                        cache_params=cache_params,
                    )
                    self._tiles[position] = Tile(  # lint: allow(hot-alloc)
                        kind=TileKind.SLICE, position=position, slice_unit=unit
                    )
                    self._free_index[TileKind.SLICE].add(position)
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
                    self._free_index[TileKind.L2_BANK].add(position)
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

    def count_free(self, kind: TileKind) -> int:
        if perf.FAST:
            count = len(self._free_index[kind])
            if sanitize.ENABLED:
                self._sanitize_ticks += 1
                if sanitize.should_sample(self._sanitize_ticks):
                    reference = sum(
                        1
                        for tile in self._tiles.values()
                        if tile.kind is kind and tile.is_free
                    )
                    if count != reference:
                        sanitize.violation(
                            "shadow-recount",
                            "repro.arch.fabric.Fabric._free_index",
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

    def _free_positions(self, kind: TileKind) -> List[Coordinate]:
        if perf.FAST:
            # ``_tiles`` is populated row-major (y outer, x inner), so
            # sorting the free set by (y, x) reproduces the scalar
            # scan's enumeration order exactly — allocation seed
            # selection is bit-identical in both modes.
            positions = sorted(
                self._free_index[kind], key=lambda p: (p[1], p[0])
            )
            if sanitize.ENABLED:
                self._sanitize_ticks += 1
                if sanitize.should_sample(self._sanitize_ticks):
                    reference = self._scan_free_positions(kind)
                    if positions != reference:
                        extra = sorted(set(positions) - set(reference))
                        missing = sorted(set(reference) - set(positions))
                        sanitize.violation(
                            "shadow-recount",
                            "repro.arch.fabric.Fabric._free_index",
                            "_free_positions",
                            f"{kind.name}: index diverged from full scan "
                            f"(stale={extra[:4]!r}, missing="
                            f"{missing[:4]!r}, index_len={len(positions)}, "
                            f"scan_len={len(reference)})",
                        )
            return positions
        return [
            position
            for position, tile in self._tiles.items()
            if tile.kind is kind and tile.is_free
        ]

    def _best_seed(
        self, need_slices: int, need_banks: int
    ) -> Optional[Coordinate]:
        """FAST seed search: the scalar scan's winner without growing.

        Region growth traverses occupied tiles, so the region a seed
        produces is simply the nearest free tiles of each kind and its
        span is ``max(k-th smallest Manhattan distance to free Slices,
        m-th smallest to free banks)`` — an integer computable for all
        seeds at once.  ``argmin`` returns the first minimal entry and
        the seed array is in row-major scan order, so the winner is
        bit-identical to the scalar loop's first strictly-best seed.
        """
        seeds = self._free_positions(TileKind.SLICE)
        if len(seeds) < need_slices:
            return None
        width = self.width
        distances = _distance_matrix(width, self.height)
        seed_ids = np.fromiter(
            (y * width + x for x, y in seeds),
            dtype=np.intp,
            count=len(seeds),
        )
        slice_distances = distances[np.ix_(seed_ids, seed_ids)]
        spans = np.partition(slice_distances, need_slices - 1, axis=1)[
            :, need_slices - 1
        ]
        if need_banks:
            banks = self._free_positions(TileKind.L2_BANK)
            if len(banks) < need_banks:
                return None
            bank_ids = np.fromiter(
                (y * width + x for x, y in banks),
                dtype=np.intp,
                count=len(banks),
            )
            bank_distances = distances[np.ix_(seed_ids, bank_ids)]
            bank_spans = np.partition(bank_distances, need_banks - 1, axis=1)[
                :, need_banks - 1
            ]
            spans = np.maximum(spans, bank_spans)
        return seeds[int(np.argmin(spans))]

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
        best: Optional[Tuple[List[Coordinate], List[Coordinate]]] = None
        if perf.FAST:
            seed = self._best_seed(need_slices, need_banks)
            if seed is not None:
                best = self._grow_region(seed, need_slices, need_banks)
        else:
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
        if best is None:
            raise FabricError(
                f"fabric too fragmented for {config}; rescheduling of "
                "existing virtual cores is required"
            )
        slices, banks = best
        for position in slices + banks:
            tile = self._tiles[position]
            tile.owner_vcore = vcore_id
            self._free_index[tile.kind].discard(position)
        for position in slices:
            self._tiles[position].slice_unit.owner_vcore = vcore_id
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
        for position in allocation.positions:
            tile = self._tiles.get(position)
            if tile is None or not tile.is_free:
                return False
        for position in allocation.positions:
            tile = self._tiles[position]
            tile.owner_vcore = allocation.vcore_id
            self._free_index[tile.kind].discard(position)
        for position in allocation.slice_positions:
            self._tiles[position].slice_unit.owner_vcore = allocation.vcore_id
        self._allocations[allocation.vcore_id] = allocation
        return True

    def release(self, vcore_id: int) -> None:
        allocation = self._allocations.pop(vcore_id, None)
        if allocation is None:
            raise FabricError(f"vcore {vcore_id} is not allocated")
        for position in allocation.positions:
            tile = self._tiles[position]
            tile.owner_vcore = None
            self._free_index[tile.kind].add(position)
            if tile.slice_unit is not None:
                tile.slice_unit.owner_vcore = None

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
        total = len(self._tiles)
        if perf.FAST:
            free = sum(len(index) for index in self._free_index.values())
            return total - free
        return sum(1 for tile in self._tiles.values() if not tile.is_free)

    def utilization(self) -> float:
        total = len(self._tiles)
        if perf.FAST:
            free = sum(len(index) for index in self._free_index.values())
            used = total - free
        else:
            used = sum(1 for tile in self._tiles.values() if not tile.is_free)
        return used / total if total else 0.0

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
