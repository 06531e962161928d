"""Phase-keyed operating-point tables with a process-global LRU cache.

Every consumer of the analytic model's ground truth — the harness's
``true_points``, the oracle's per-phase envelope, the QoS-target rule,
the race/convex baseline constructions — ultimately needs the same
object: the list of :class:`~repro.runtime.optimizer.ConfigPoint`
operating points of one phase over one configuration space under one
cost model.  The seed engine recomputed that table scalar-by-scalar in
each of those places; this module computes it once (with the vectorized
:meth:`~repro.sim.perfmodel.PerformanceModel.ipc_grid` kernel) and
memoizes it process-wide, keyed by the *values* of all four inputs
(``Phase``, ``PerformanceModel`` and ``CostModel`` are frozen
dataclasses, so value-hashing is exact and safe across instances).

Tables also memoize their lower convex envelope, so an oracle that
solves Eqn. 5 on the same phase a thousand times pays for one hull.

This module is the **L1** (front) tier of the two-tier operating-
point store.  On an L1 miss the lookup consults the disk tier of
:mod:`repro.sim.optstore`, a content-hash-keyed on-disk ``.npz``
cache that also persists the default-idle envelope hull (see
:meth:`OperatingPointTable.prime_envelope`).  Only a verified disk
miss pays for a build, and the build happens under
:func:`repro.sim.optstore.build_guard` so each (phase-key, grid) table
is constructed at most once per process.  :func:`ensure_surface` warms
the disk tier without constructing any ``ConfigPoint`` at all — the
cheap path sweeps use to pre-heat a cache directory.
:func:`optable_cache_stats` reports both tiers at once.

With :data:`repro.perf.FAST` disabled every tier is bypassed and
tables are rebuilt with the original scalar loop — the reference path
used by the equivalence tests and the speed benchmarks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro import perf
from repro.analysis import sanitize
from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.runtime.optimizer import (
    ConfigPoint,
    IDLE_POINT,
    _lower_hull,
    compute_envelope,
)
from repro.sim import optstore
from repro.sim.perfmodel import PerformanceModel, DEFAULT_PERF_MODEL
from repro.workloads.phase import Phase


class OperatingPointTable:
    """Immutable per-phase operating points with memoized derived views.

    Behaves as a ``Sequence[ConfigPoint]`` (the harness hands it to
    allocators as ``true_points``), and additionally offers O(1) IPC
    lookup by configuration, the table's maximum QoS, and a cached
    lower convex envelope keyed by the idle point.
    """

    __slots__ = ("points", "_ipc", "max_qos", "speedup_array", "_envelopes", "_sealed")

    def __init__(self, points: Tuple[ConfigPoint, ...]) -> None:
        if not points:
            raise ValueError("an operating-point table needs at least one point")
        self.points: Tuple[ConfigPoint, ...] = tuple(points)
        self._ipc: Mapping[VCoreConfig, float] = {
            point.config: point.speedup for point in self.points
        }
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

    def prime_envelope(
        self, hull: np.ndarray, idle: ConfigPoint = IDLE_POINT
    ) -> "OperatingPointTable":
        """Pre-seed the envelope memo from a stored (H, 2) hull array.

        The disk tier persists the default-idle hull next to the
        speedups, so a warm load skips the monotone-chain rebuild.
        ``best_at`` is reconstructed with the exact first-wins walk of
        :func:`~repro.runtime.optimizer.compute_envelope`, and the hull
        vertices round-trip float64-exactly, so the primed entry is
        bit-identical to what the lazy computation would produce.
        Callers only pass checksum-verified stored hulls.
        """
        best_at: Dict[Tuple[float, float], ConfigPoint] = {}
        for point in self.points:
            pair = (point.speedup, point.cost_rate)
            if pair not in best_at:
                best_at[pair] = point
        idle_pair = (idle.speedup, idle.cost_rate)
        if idle_pair not in best_at:
            best_at[idle_pair] = idle
        key = (idle.config, idle.speedup, idle.cost_rate)
        vertices = tuple(
            (float(speedup), float(cost)) for speedup, cost in hull
        )
        self._envelopes[key] = (vertices, MappingProxyType(best_at))
        return self

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has frozen this table for publication."""
        return self._sealed

    def seal(self) -> "OperatingPointTable":
        """Freeze the table for publication into a shared cache.

        Marks the speedup ndarray read-only and replaces the IPC map
        with a ``MappingProxyType`` view, so any later in-place write
        through a cached table raises instead of silently corrupting
        every other consumer.  Idempotent; returns ``self``.
        """
        if not self._sealed:
            self.speedup_array.setflags(write=False)
            self._ipc = MappingProxyType(dict(self._ipc))
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


def _grid_values(space: ConfigurationSpace) -> int:
    return len(space.slice_counts) * len(space.l2_sizes_kb)


def _table_from_payload(
    payload: "optstore.Payload",
    space: ConfigurationSpace,
    cost_model: CostModel,
) -> OperatingPointTable:
    """Reconstitute a sealed table from a disk-tier surface.

    ``ConfigPoint`` speedups round-trip float64-exactly through the
    stored array, so the result is bit-identical to the table the
    publisher built.  A stored hull pre-seeds the envelope memo.
    """
    speedups = payload.speedups
    table = OperatingPointTable(
        tuple(
            ConfigPoint(
                config=config,
                speedup=float(speedups[index]),
                cost_rate=config.cost_rate(cost_model),
            )
            for index, config in enumerate(space)
        )
    )
    table.seal()
    if payload.hull is not None:
        table.prime_envelope(payload.hull)
    return table


def _stored_or_built(
    key: tuple,
    phase: Phase,
    model: PerformanceModel,
    space: ConfigurationSpace,
    cost_model: CostModel,
) -> OperatingPointTable:
    """Resolve an L1 miss against the disk tier, building on a miss.

    The lookup and build sit inside
    :func:`repro.sim.optstore.build_guard`, so a table is built at most
    once per process.
    """
    values = _grid_values(space)
    digest = optstore.table_digest(key, values)
    with optstore.build_guard():
        payload = optstore.lookup(digest, values)
        if payload is None:
            table = build_table_vectorized(phase, model, space, cost_model)
            table.seal()
            hull, _ = table.envelope()
            optstore.publish(
                digest, table.speedup_array, np.array(hull, dtype=np.float64)
            )
            if sanitize.ENABLED:
                _verify_published(table, site="publish")
            return table
    table = _table_from_payload(payload, space, cost_model)
    if sanitize.ENABLED:
        _verify_published(table, site="disk load")
    return table


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
    table = _stored_or_built(key, phase, model, space, cost_model)
    with _CACHE_LOCK:
        _MISSES += 1
        optstore.bump("l1_misses")
        _TABLE_CACHE[key] = table
        _TABLE_CACHE.move_to_end(key)
        while len(_TABLE_CACHE) > _TABLE_CACHE_MAXSIZE:
            _TABLE_CACHE.popitem(last=False)
    return table


def ensure_surface(
    phase: Phase,
    model: PerformanceModel = DEFAULT_PERF_MODEL,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Tuple[str, str]:
    """Warm one table surface into the disk tier, without L1.

    The warm-up path of ``repro cache warm`` and the sweep pre-heater:
    when the disk tier already holds the surface with its stored hull
    this verifies and returns immediately — no ``ConfigPoint`` is ever
    constructed, which is what makes a disk-warm sweep start several
    times faster than a cold one.  Otherwise the speedup grid and
    default-idle hull are computed directly from the vectorized kernel
    (bit-identical to the table path: same float64 grid, and the hull
    depends only on the deduplicated (speedup, cost) pair set that
    :func:`compute_envelope` uses) and published under the build guard.

    Returns ``(digest, fingerprint)`` — the content digest naming the
    surface and the sha256 of its payload, stable across cold and warm
    runs.
    """
    key = _cache_key(phase, model, space, cost_model)
    values = _grid_values(space)
    digest = optstore.table_digest(key, values)
    with optstore.build_guard():
        payload = optstore.lookup(digest, values)
        if payload is not None and payload.hull is not None:
            return digest, payload.checksum
        speedups = model.ipc_grid(phase, space).ravel()
        costs = tuple(config.cost_rate(cost_model) for config in space)
        pairs = {
            (float(speedups[index]), costs[index])
            for index in range(len(costs))
        }
        pairs.add((IDLE_POINT.speedup, IDLE_POINT.cost_rate))
        hull = _lower_hull(list(pairs))
        speedups.setflags(write=False)
        fingerprint = optstore.publish(
            digest, speedups, np.array(hull, dtype=np.float64)
        )
        return digest, fingerprint


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
    """Per-tier statistics of the whole operating-point store.

    ``l1`` is this module's LRU (:func:`cache_info`); ``local`` /
    ``fleet`` are the hit/miss/build/byte counters (``fleet`` adds the
    counts pool workers returned to this process); ``disk`` describes
    the disk tier.  This is what ``repro cache info`` prints and what
    sweep timing summaries embed.
    """
    combined: Dict[str, object] = {"l1": cache_info()}
    combined.update(optstore.stats())
    return combined
