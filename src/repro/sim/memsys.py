"""Memory system for the cycle tier: per-Slice L1s over a composed L2.

Latencies follow Table II: L1 hits cost 3 cycles; L2 hits cost
``distance * 2 + 4`` cycles where distance is the bank's hop count from
the requesting Slice; L2 misses add the 100-cycle memory delay.
Addresses hash across the virtual core's banks exactly as the
architecture model's :class:`~repro.arch.cache.ComposedL2` does — this
module simply binds that functional model to the timing parameters and
per-Slice L1s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.arch.cache import CacheBank, ComposedL2
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.vcore import VCoreConfig


@dataclass(frozen=True)
class AccessResult:
    """Where an access hit and what it cost."""

    level: str  # "l1", "l2", "memory"
    cycles: int


class MemorySystem:
    """L1D per Slice, a bank-hashed L2, and main memory."""

    def __init__(
        self,
        config: VCoreConfig,
        cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
        slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
    ) -> None:
        self.config = config
        self.cache_params = cache_params
        self.slice_params = slice_params
        self.l1d: List[CacheBank] = [
            CacheBank(cache_params.l1d, bank_id=i, params=cache_params)
            for i in range(config.slices)
        ]
        self.l1i: List[CacheBank] = [
            CacheBank(cache_params.l1i, bank_id=100 + i, params=cache_params)
            for i in range(config.slices)
        ]
        banks = []
        for bank_id in range(config.l2_banks):
            # Banks of a compact region sit at increasing hop counts
            # from the Slice cluster: bank i at distance ~sqrt(i).
            distance = int(round(math.sqrt(bank_id + config.slices)))
            banks.append(
                CacheBank(
                    cache_params.l2_bank,
                    bank_id=bank_id,
                    distance=distance,
                    params=cache_params,
                )
            )
        self.l2 = ComposedL2(banks)
        self.l1_hits = 0
        self.l2_hits = 0
        self.memory_accesses = 0
        self.l1i_hits = 0
        self.l1i_misses = 0

    def access(self, slice_id: int, address: int, is_write: bool) -> AccessResult:
        """Perform one data access from ``slice_id``; returns its cost."""
        if not 0 <= slice_id < len(self.l1d):
            raise ValueError(
                f"slice_id {slice_id} out of range for "
                f"{len(self.l1d)}-Slice virtual core"
            )
        l1 = self.l1d[slice_id]
        if l1.access(address, is_write):
            self.l1_hits += 1
            return AccessResult(level="l1", cycles=self.cache_params.l1_hit_delay)
        hit, l2_delay = self.l2.access(address, is_write)
        total = self.cache_params.l1_hit_delay + l2_delay
        if hit:
            self.l2_hits += 1
            return AccessResult(level="l2", cycles=total)
        self.memory_accesses += 1
        return AccessResult(
            level="memory", cycles=total + self.slice_params.memory_delay
        )

    def prewarm_code(self, addresses) -> None:
        """Install code blocks into every Slice's L1I without charging
        misses.

        SSim measures steady-state phases: by the time a measurement
        interval starts, the loop body has been executing for millions
        of cycles, so its code is as resident as the L1I's capacity
        allows (LRU keeps the most recent 16 KB).  Cold-start fetch is
        not part of any phase-level quantity the runtime observes.
        """
        for l1i in self.l1i:
            for address in addresses:
                l1i.access(address, False)
            l1i.hits = 0
            l1i.misses = 0
        # Steady state also has the code resident in the (much larger)
        # L2 where it fits; reset the bank counters so the prewarm
        # leaves no trace in measured statistics.
        for address in addresses:
            self.l2.access(address, False)
        for bank in self.l2.banks:
            bank.hits = 0
            bank.misses = 0
            bank.writebacks = 0

    def fetch(self, slice_id: int, code_address: int) -> AccessResult:
        """Instruction fetch: L1I, then the shared L2 / memory path."""
        if not 0 <= slice_id < len(self.l1i):
            raise ValueError(
                f"slice_id {slice_id} out of range for "
                f"{len(self.l1i)}-Slice virtual core"
            )
        l1i = self.l1i[slice_id]
        if l1i.access(code_address, False):
            self.l1i_hits += 1
            return AccessResult(level="l1", cycles=self.cache_params.l1_hit_delay)
        self.l1i_misses += 1
        hit, l2_delay = self.l2.access(code_address, False)
        total = self.cache_params.l1_hit_delay + l2_delay
        if hit:
            return AccessResult(level="l2", cycles=total)
        return AccessResult(
            level="memory", cycles=total + self.slice_params.memory_delay
        )

    def stats(self) -> Dict[str, int]:
        l2_stats = self.l2.stats()
        return {
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "l2_misses": self.memory_accesses,
            "l2_writebacks": l2_stats["writebacks"],
            "l1i_hits": self.l1i_hits,
            "l1i_misses": self.l1i_misses,
        }
