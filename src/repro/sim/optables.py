"""Phase-keyed operating-point tables with a process-global LRU cache.

Every consumer of the analytic model's ground truth — the harness's
``true_points`` and leg IPCs, the oracle's per-phase envelope, the
QoS-target rule, the convex baseline's profile, the service's admitted
tenants — ultimately needs the same object: the list of
:class:`~repro.runtime.optimizer.ConfigPoint` operating points of one
phase over one configuration space under one cost model.  The seed
engine recomputed that table scalar-by-scalar in each of those places;
this module computes it once (with the vectorized
:meth:`~repro.sim.perfmodel.PerformanceModel.ipc_grid` kernel) and
memoizes it process-wide, keyed by the *values* of all four inputs
(``Phase``, ``PerformanceModel`` and ``CostModel`` are frozen
dataclasses, so value-hashing is exact and safe across instances).

Tables also memoize their lower convex envelope, so an oracle that
solves Eqn. 5 on the same phase a thousand times pays for one hull.

This cache is the whole operating-point store, one per process: a
table is built on its first lookup, sealed, and shared by every later
caller (threads racing on one miss may each build an identical copy).
:mod:`repro.sim.optstore` counts the hits, misses and builds, and
:func:`optable_cache_stats` reports them.

With :data:`repro.perf.FAST` disabled the cache is bypassed and
tables are rebuilt with the original scalar loop — the reference path
used by the equivalence tests and the speed benchmarks.
:func:`operating_point_table` is the only place that makes this
choice: every consumer above takes a table from it in both modes, so
with the fast paths off each of their IPCs is a scalar
``PerformanceModel.ipc`` result and the vectorized kernel never runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro import perf
from repro.analysis import sanitize
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.optimizer import ConfigPoint, IDLE_POINT, compute_envelope
from repro.sim import optstore
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase


class OperatingPointTable:
    """Immutable per-phase operating points with memoized derived views.

    Behaves as a ``Sequence[ConfigPoint]`` (the harness hands it to
    allocators as ``true_points``), and additionally offers O(1) IPC
    and point lookup by configuration, the table's maximum QoS, and a
    cached lower convex envelope keyed by the idle point.
    """

    __slots__ = (
        "points",
        "_ipc",
        "_by_config",
        "max_qos",
        "speedup_array",
        "_envelopes",
        "_sealed",
    )

    def __init__(self, points: Tuple[ConfigPoint, ...]) -> None:
        if not points:
            raise ValueError("an operating-point table needs at least one point")
        self.points: Tuple[ConfigPoint, ...] = tuple(points)
        self._ipc: Mapping[VCoreConfig, float] = {
            point.config: point.speedup for point in self.points
        }
        by_config: Dict[Optional[VCoreConfig], ConfigPoint] = {}
        for point in self.points:
            by_config.setdefault(point.config, point)
        self._by_config: Mapping[Optional[VCoreConfig], ConfigPoint] = by_config
        self.speedup_array: np.ndarray = np.array(
            [point.speedup for point in self.points], dtype=np.float64
        )
        self.max_qos: float = max(point.speedup for point in self.points)
        self._envelopes: Dict[
            Tuple[Optional[VCoreConfig], float, float], tuple
        ] = {}
        self._sealed: bool = False

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ConfigPoint]:
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def get_ipc(self, config: VCoreConfig) -> Optional[float]:
        """The table's QoS (IPC) for ``config``, or None if absent."""
        return self._ipc.get(config)

    def point_for(self, config: VCoreConfig) -> Optional[ConfigPoint]:
        """The first point carrying ``config`` (a scan's answer), or None."""
        return self._by_config.get(config)

    def envelope(self, idle: ConfigPoint = IDLE_POINT) -> tuple:
        """Cached ``(hull, best_at)`` lower envelope for this table.

        The cached entry is published frozen — ``hull`` as a tuple and
        ``best_at`` as a read-only mapping view — because this object
        sits in the process-global table cache and the envelope may be
        handed to many threads/consumers at once.  (The memo insert
        itself is an idempotent dict store: racing threads compute the
        same value, so last-writer-wins is harmless under the GIL.)
        """
        key = (idle.config, idle.speedup, idle.cost_rate)
        cached = self._envelopes.get(key)
        if cached is None:
            hull, best_at = compute_envelope(self.points, idle)
            cached = (tuple(hull), MappingProxyType(best_at))
            self._envelopes[key] = cached
        return cached

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has frozen this table for publication."""
        return self._sealed

    def seal(self) -> "OperatingPointTable":
        """Freeze the table for publication into a shared cache.

        Marks the speedup ndarray read-only and replaces the IPC and
        point maps with ``MappingProxyType`` views, so any later
        in-place write through a cached table raises instead of
        silently corrupting every other consumer.  Idempotent; returns
        ``self``.
        """
        if not self._sealed:
            self.speedup_array.setflags(write=False)
            self._ipc = MappingProxyType(dict(self._ipc))
            self._by_config = MappingProxyType(dict(self._by_config))
            self._sealed = True
        return self


def build_table_scalar(
    phase: Phase,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> OperatingPointTable:
    """Reference scalar construction (one ``ipc()`` call per config)."""
    return OperatingPointTable(
        tuple(
            ConfigPoint(
                config=config,
                speedup=model.ipc(phase, config),
                cost_rate=config.cost_rate(cost_model),
            )
            for config in space
        )
    )


def build_table_vectorized(
    phase: Phase,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> OperatingPointTable:
    """Whole-grid construction through the vectorized IPC kernel."""
    ipc = model.ipc_grid(phase, space).ravel()
    return OperatingPointTable(
        tuple(
            ConfigPoint(
                config=config,
                speedup=float(ipc[index]),
                cost_rate=config.cost_rate(cost_model),
            )
            for index, config in enumerate(space)
        )
    )


_CACHE_LOCK = threading.Lock()
_TABLE_CACHE: "OrderedDict[tuple, OperatingPointTable]" = OrderedDict()
_TABLE_CACHE_MAXSIZE = 4096
_HITS = 0
_MISSES = 0


def _cache_key(
    phase: Phase,
    model: PerformanceModel,
    space: ConfigurationSpace,
    cost_model: CostModel,
) -> tuple:
    return (phase, model, space.slice_counts, space.l2_sizes_kb, cost_model)


def operating_point_table(
    phase: Phase,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> OperatingPointTable:
    """The memoized operating-point table for one (phase, space) pair."""
    global _HITS, _MISSES
    if not perf.FAST:
        return build_table_scalar(phase, model, space, cost_model)
    key = _cache_key(phase, model, space, cost_model)
    with _CACHE_LOCK:
        table = _TABLE_CACHE.get(key)
        if table is not None:
            _TABLE_CACHE.move_to_end(key)
            _HITS += 1
            optstore.bump("l1_hits")
            if sanitize.ENABLED:
                _verify_published(table, site="cache hit")
            return table
    table = build_table_vectorized(phase, model, space, cost_model)
    table.seal()
    optstore.bump("builds")
    if sanitize.ENABLED:
        _verify_published(table, site="publish")
    with _CACHE_LOCK:
        _MISSES += 1
        optstore.bump("l1_misses")
        _TABLE_CACHE[key] = table
        _TABLE_CACHE.move_to_end(key)
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAXSIZE:
            _TABLE_CACHE.popitem(last=False)
    return table


def _verify_published(table: OperatingPointTable, site: str) -> None:
    """Sanitizer hook: a table in the shared cache must be sealed."""
    owner = "repro.sim.optables.operating_point_table"
    if not table.sealed:
        sanitize.violation(
            "cache-publish", owner, site, "table in cache was never sealed"
        )
    sanitize.verify_frozen(table.speedup_array, "cache-publish", owner, site)
    if not isinstance(table._ipc, MappingProxyType):
        sanitize.violation(
            "cache-publish", owner, site, "table IPC map is a bare dict"
        )
    if not isinstance(table._by_config, MappingProxyType):
        sanitize.violation(
            "cache-publish", owner, site, "table point map is a bare dict"
        )


def cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-global table cache."""
    with _CACHE_LOCK:
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "size": len(_TABLE_CACHE),
            "maxsize": _TABLE_CACHE_MAXSIZE,
        }


def cache_clear() -> None:
    """Drop every memoized table (benchmarks and tests)."""
    global _HITS, _MISSES
    with _CACHE_LOCK:
        _TABLE_CACHE.clear()
        _HITS = 0
        _MISSES = 0


def optable_cache_stats() -> Dict[str, object]:
    """Statistics of the operating-point store.

    ``l1`` is this module's LRU (:func:`cache_info`); ``local`` /
    ``fleet`` are the hit/miss/build counters (``fleet`` adds the
    counts pool workers returned to this process).  Sweep and figure
    timing summaries embed it.
    """
    return {
        "l1": cache_info(),
        "local": optstore.counters_local(),
        "fleet": optstore.counters_fleet(),
    }
