"""L2 cache banks and the distance-dependent hit-delay model (Table II).

The CASH fabric decouples cache from Slices: a virtual core's L2 is a set
of 64 KB banks laid out on the 2D fabric.  The hit delay of a bank is
``distance * 2 + 4`` cycles, where distance is the Manhattan hop count
from the requesting Slice.  Because aggregating more banks pushes the
average bank further away, a larger cache trades lower miss rate for
higher hit latency — the root of the non-convex optimization space the
runtime must navigate (Section II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.arch.params import CacheLevelParams, CacheParams, DEFAULT_CACHE_PARAMS


def l2_hit_delay(distance: int, params: CacheParams = DEFAULT_CACHE_PARAMS) -> int:
    """Hit delay in cycles of an L2 bank ``distance`` hops away.

    Table II: ``delay = distance * 2 + 4``.
    """
    if distance < 0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    return distance * params.l2_delay_per_hop + params.l2_base_delay


def mean_bank_distance(num_banks: int, num_slices: int = 1) -> float:
    """Average Manhattan distance from a Slice to a bank of its VCore.

    Slices and banks are packed into a near-square region of the fabric
    (the runtime groups adjacent tiles to reduce communication cost, see
    Section III-A).  For a region of ``A`` tiles the mean intra-region
    Manhattan distance grows as ``~0.66 * sqrt(A)``; we use that
    continuous approximation, which matches an exact enumeration of small
    square regions to within a few percent.
    """
    if num_banks <= 0:
        raise ValueError(f"num_banks must be positive, got {num_banks}")
    if num_slices <= 0:
        raise ValueError(f"num_slices must be positive, got {num_slices}")
    area = num_banks + num_slices
    return 0.66 * math.sqrt(area)


def mean_l2_hit_delay(
    num_banks: int,
    num_slices: int = 1,
    params: CacheParams = DEFAULT_CACHE_PARAMS,
) -> float:
    """Average L2 hit delay for a VCore with the given tile counts."""
    distance = mean_bank_distance(num_banks, num_slices)
    return distance * params.l2_delay_per_hop + params.l2_base_delay


def mean_bank_distance_array(
    num_banks: np.ndarray, num_slices: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`mean_bank_distance` over broadcastable arrays.

    Performs the same operations in the same order as the scalar
    version, so results are bit-identical element-wise.
    """
    if np.any(num_banks <= 0):
        raise ValueError("num_banks must be positive")
    if np.any(num_slices <= 0):
        raise ValueError("num_slices must be positive")
    area = num_banks + num_slices
    return 0.66 * np.sqrt(area)


def mean_l2_hit_delay_array(
    num_banks: np.ndarray,
    num_slices: np.ndarray,
    params: CacheParams = DEFAULT_CACHE_PARAMS,
) -> np.ndarray:
    """Vectorized :func:`mean_l2_hit_delay` over broadcastable arrays."""
    distance = mean_bank_distance_array(num_banks, num_slices)
    return distance * params.l2_delay_per_hop + params.l2_base_delay


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a composed L2: bank count, size, and delay statistics."""

    num_banks: int
    num_slices: int
    params: CacheParams = DEFAULT_CACHE_PARAMS

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError(f"num_banks must be positive, got {self.num_banks}")
        if self.num_slices <= 0:
            raise ValueError(
                f"num_slices must be positive, got {self.num_slices}"
            )

    @property
    def total_kb(self) -> int:
        return self.num_banks * self.params.l2_bank.size_kb

    @property
    def mean_distance(self) -> float:
        return mean_bank_distance(self.num_banks, self.num_slices)

    @property
    def mean_hit_delay(self) -> float:
        return mean_l2_hit_delay(self.num_banks, self.num_slices, self.params)

    def worst_case_flush_cycles(self) -> int:
        """Worst-case cycles to flush one bank: all lines dirty.

        Section VI-A: ``BankSize / NetworkWidth`` cycles, e.g.
        64 KB / 8 B = 8000 cycles.
        """
        return self.params.l2_bank.size_bytes // self.params.network_width_bytes


@dataclass
class _CacheLine:
    tag: int
    dirty: bool = False
    last_use: int = 0


class CacheBank:
    """A set-associative cache bank with LRU replacement and dirty tracking.

    This is the functional bank model used by the cycle-level simulator's
    memory system and by the reconfiguration engine (which must flush
    dirty lines before a bank is removed from a virtual core).
    """

    def __init__(
        self,
        level: CacheLevelParams,
        bank_id: int = 0,
        distance: int = 0,
        params: CacheParams = DEFAULT_CACHE_PARAMS,
    ) -> None:
        if distance < 0:
            raise ValueError(f"distance must be non-negative, got {distance}")
        self.level = level
        self.bank_id = bank_id
        self.distance = distance
        self.params = params
        self._sets: List[List[_CacheLine]] = [[] for _ in range(level.num_sets)]
        # The set geometry is fixed for the bank's lifetime; caching it
        # keeps _index_and_tag off the property chain on every access.
        self._num_sets = level.num_sets
        self._block_bytes = level.block_bytes
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def hit_delay(self) -> int:
        return l2_hit_delay(self.distance, self.params)

    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        block = address // self._block_bytes
        return block % self._num_sets, block // self._num_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access ``address``; return True on hit.

        A miss installs the line (allocate-on-miss, write-back policy)
        and may evict an LRU victim; dirty victims count as writebacks.
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self._clock += 1
        index, tag = self._index_and_tag(address)
        ways = self._sets[index]
        for line in ways:
            if line.tag == tag:
                line.last_use = self._clock
                line.dirty = line.dirty or is_write
                self.hits += 1
                return True
        self.misses += 1
        if len(ways) >= self.level.associativity:
            victim = min(ways, key=lambda line: line.last_use)
            if victim.dirty:
                self.writebacks += 1
            ways.remove(victim)
        ways.append(_CacheLine(tag=tag, dirty=is_write, last_use=self._clock))
        return False

    def contains(self, address: int) -> bool:
        index, tag = self._index_and_tag(address)
        return any(line.tag == tag for line in self._sets[index])

    def dirty_lines(self) -> int:
        return sum(line.dirty for ways in self._sets for line in ways)

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> Tuple[int, int]:
        """Flush all dirty lines to memory; invalidate everything.

        Returns ``(dirty_flushed, cycles)``.  The flush streams dirty
        blocks over the L2 memory network, so its cost is
        ``dirty_bytes / network_width`` cycles — the worst case (all
        lines dirty) matches Section VI-A's 8000 cycles for a 64 KB bank
        over a 64-bit network.
        """
        dirty = self.dirty_lines()
        self.writebacks += dirty
        for ways in self._sets:
            ways.clear()
        cycles = (
            dirty * self.level.block_bytes // self.params.network_width_bytes
        )
        return dirty, cycles

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheBank(id={self.bank_id}, {self.level.size_kb}KB, "
            f"distance={self.distance}, resident={self.resident_lines()})"
        )


class ComposedL2:
    """An L2 built from multiple banks, address-hashed across banks.

    The CASH architecture hashes physical addresses across the banks of a
    virtual core (Section VI-A notes the hash-table remap overlaps with
    dirty-line flushing during reconfiguration).
    """

    def __init__(
        self,
        banks: List[CacheBank],
    ) -> None:
        if not banks:
            raise ValueError("a composed L2 needs at least one bank")
        self.banks = list(banks)

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    @property
    def total_kb(self) -> int:
        return sum(bank.level.size_kb for bank in self.banks)

    def bank_for(self, address: int) -> CacheBank:
        block = address // self.banks[0].level.block_bytes
        return self.banks[block % len(self.banks)]

    def _local_address(self, address: int) -> int:
        """The address as seen inside the selected bank.

        Banks interleave at block granularity (block ``b`` lives in
        bank ``b mod N``), so within a bank consecutive resident blocks
        are ``b // N`` apart.  Indexing the bank's sets with the *global*
        block number would leave only every N-th set usable — the
        bank-local block number keeps the whole bank addressable.
        """
        block_bytes = self.banks[0].level.block_bytes
        block = address // block_bytes
        offset = address % block_bytes
        return (block // len(self.banks)) * block_bytes + offset

    def access(self, address: int, is_write: bool = False) -> Tuple[bool, int]:
        """Access through the hash; returns (hit, delay_cycles)."""
        bank = self.bank_for(address)
        hit = bank.access(self._local_address(address), is_write)
        return hit, bank.hit_delay

    def remove_bank(self, bank_id: int) -> Tuple[int, int]:
        """Remove a bank (SHRINK): flush it and drop it from the hash.

        Returns ``(dirty_flushed, flush_cycles)``.
        """
        if len(self.banks) == 1:
            raise ValueError("cannot remove the last bank of an L2")
        for position, bank in enumerate(self.banks):
            if bank.bank_id == bank_id:
                dirty, cycles = bank.flush()
                del self.banks[position]
                return dirty, cycles
        raise KeyError(f"no bank with id {bank_id}")

    def add_bank(self, bank: CacheBank) -> None:
        """Add a bank (EXPAND).  New banks arrive empty."""
        if any(existing.bank_id == bank.bank_id for existing in self.banks):
            raise ValueError(f"bank id {bank.bank_id} already present")
        self.banks.append(bank)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": sum(bank.hits for bank in self.banks),
            "misses": sum(bank.misses for bank in self.banks),
            "writebacks": sum(bank.writebacks for bank in self.banks),
        }

    def __iter__(self) -> Iterator[CacheBank]:
        return iter(self.banks)
