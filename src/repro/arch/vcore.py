"""Virtual core configurations and the configuration space.

A *virtual core* (VCore) is composed of one or more Slices and one or
more L2 cache banks (Section III-A).  The evaluation explores every
VCore built from 1–8 Slices and 64 KB–8 MB of L2 in power-of-two steps
(Section II-A), a 64-point grid per application phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

from repro.arch.cache import CacheGeometry, mean_l2_hit_delay
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.params import CacheParams, DEFAULT_CACHE_PARAMS


@dataclass(frozen=True, order=True)
class VCoreConfig:
    """A virtual core: ``slices`` Slices plus ``l2_kb`` KB of L2 cache.

    Its shape, :attr:`l2_banks` and :attr:`tiles`, is computed once (the
    service and the fabric read it on every placement): construction
    stores both as plain instance attributes, which shadow the two
    cached properties below.  Only a size that is not a whole number of
    banks reaches those, and they raise on every read, because an
    exception is never cached.  Filling the cache at construction, not
    on first read, keeps every config's attributes stored inline: a
    ``cached_property`` writes through the instance's ``__dict__``, and
    from then on CPython 3.11 reads that instance's attributes from a
    separate dict, so hashing and comparing a mix of read and unread
    configs took about a third longer.  Equality, hashing, ordering and
    ``repr`` read only the two fields.
    """

    slices: int
    l2_kb: int

    def __post_init__(self) -> None:
        if self.slices <= 0:
            raise ValueError(f"slices must be positive, got {self.slices}")
        if self.l2_kb <= 0:
            raise ValueError(f"l2_kb must be positive, got {self.l2_kb}")
        banks, remainder = divmod(self.l2_kb, DEFAULT_CACHE_PARAMS.l2_bank.size_kb)
        if not remainder:
            # Not fields, and the class is frozen.
            object.__setattr__(self, "l2_banks", banks)
            object.__setattr__(self, "tiles", self.slices + banks)

    @cached_property
    def l2_banks(self) -> int:
        """Number of 64 KB banks composing the L2."""
        banks, remainder = divmod(self.l2_kb, DEFAULT_CACHE_PARAMS.l2_bank.size_kb)
        if remainder:
            raise ValueError(
                f"l2_kb={self.l2_kb} is not a whole number of "
                f"{DEFAULT_CACHE_PARAMS.l2_bank.size_kb} KB banks"
            )
        return banks

    @cached_property
    def tiles(self) -> int:
        """Total fabric tiles occupied (Slices + banks)."""
        return self.slices + self.l2_banks

    def geometry(self, params: CacheParams = DEFAULT_CACHE_PARAMS) -> CacheGeometry:
        return CacheGeometry(
            num_banks=self.l2_banks, num_slices=self.slices, params=params
        )

    def mean_l2_hit_delay(
        self, params: CacheParams = DEFAULT_CACHE_PARAMS
    ) -> float:
        return mean_l2_hit_delay(self.l2_banks, self.slices, params)

    def cost_rate(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        """Rental price of the VCore in $/hour."""
        return model.rate(self.slices, self.l2_kb)

    def __str__(self) -> str:
        if self.l2_kb >= 1024 and self.l2_kb % 1024 == 0:
            return f"{self.slices}S/{self.l2_kb // 1024}MB"
        return f"{self.slices}S/{self.l2_kb}KB"


class ConfigurationSpace:
    """The discrete grid of VCore configurations explored by the runtime.

    Default: Slices in 1..8 and L2 in power-of-two steps from 64 KB to
    8 MB, matching Section II-A.
    """

    def __init__(
        self,
        slice_counts: Sequence[int] = tuple(range(1, 9)),
        l2_sizes_kb: Sequence[int] = tuple(64 * 2 ** i for i in range(8)),
    ) -> None:
        if not slice_counts:
            raise ValueError("slice_counts must be non-empty")
        if not l2_sizes_kb:
            raise ValueError("l2_sizes_kb must be non-empty")
        if sorted(set(slice_counts)) != sorted(slice_counts):
            raise ValueError("slice_counts must be unique")
        if sorted(set(l2_sizes_kb)) != sorted(l2_sizes_kb):
            raise ValueError("l2_sizes_kb must be unique")
        self.slice_counts: Tuple[int, ...] = tuple(sorted(slice_counts))
        self.l2_sizes_kb: Tuple[int, ...] = tuple(sorted(l2_sizes_kb))
        self._configs: Tuple[VCoreConfig, ...] = tuple(
            VCoreConfig(slices=s, l2_kb=c)
            for s in self.slice_counts
            for c in self.l2_sizes_kb
        )
        self._index = {config: i for i, config in enumerate(self._configs)}

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[VCoreConfig]:
        return iter(self._configs)

    def __contains__(self, config: VCoreConfig) -> bool:
        return config in self._index

    def __getitem__(self, index: int) -> VCoreConfig:
        return self._configs[index]

    def index_of(self, config: VCoreConfig) -> int:
        try:
            return self._index[config]
        except KeyError:
            raise KeyError(f"{config} is not in this configuration space") from None

    @property
    def configs(self) -> Tuple[VCoreConfig, ...]:
        return self._configs

    @property
    def minimum(self) -> VCoreConfig:
        """Cheapest configuration: fewest Slices, smallest L2."""
        return VCoreConfig(self.slice_counts[0], self.l2_sizes_kb[0])

    @property
    def maximum(self) -> VCoreConfig:
        """Largest configuration: most Slices, biggest L2."""
        return VCoreConfig(self.slice_counts[-1], self.l2_sizes_kb[-1])

    def neighbors(self, config: VCoreConfig) -> List[VCoreConfig]:
        """Grid neighbors (±1 step in Slices or L2) of ``config``."""
        if config not in self:
            raise KeyError(f"{config} is not in this configuration space")
        slice_pos = self.slice_counts.index(config.slices)
        l2_pos = self.l2_sizes_kb.index(config.l2_kb)
        out: List[VCoreConfig] = []
        if slice_pos > 0:
            out.append(VCoreConfig(self.slice_counts[slice_pos - 1], config.l2_kb))
        if slice_pos < len(self.slice_counts) - 1:
            out.append(VCoreConfig(self.slice_counts[slice_pos + 1], config.l2_kb))
        if l2_pos > 0:
            out.append(VCoreConfig(config.slices, self.l2_sizes_kb[l2_pos - 1]))
        if l2_pos < len(self.l2_sizes_kb) - 1:
            out.append(VCoreConfig(config.slices, self.l2_sizes_kb[l2_pos + 1]))
        return out

    def sorted_by_cost(
        self, model: CostModel = DEFAULT_COST_MODEL
    ) -> List[VCoreConfig]:
        return sorted(self._configs, key=lambda config: config.cost_rate(model))


DEFAULT_CONFIG_SPACE = ConfigurationSpace()
