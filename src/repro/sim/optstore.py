"""The operating-point store's counters.

:mod:`repro.sim.optables` keeps the per-process sealed LRU (L1) that
is the whole store.  This module counts its work: each process counts
its own L1 hits and misses and its builds.  A sweep's pool workers
return each cell's counter delta (:func:`counters_since`) with the
cell's result and the parent adds it up (:func:`absorb`), so
:func:`counters_fleet` sums a whole sweep.

``_STORE_LOCK`` guards every access to this module's globals; it is
the innermost lock and nothing else is acquired while holding it.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Tuple

#: Store counters.  ``l2_hits``, ``l2_misses`` and ``publishes`` are
#: always 0; they remain only because ``perfbench/run.py`` reads them.
COUNTERS: Tuple[str, ...] = (
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "builds",
    "publishes",
)

_STORE_LOCK = threading.Lock()
_COUNTS: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
_ABSORBED: Dict[str, int] = dict.fromkeys(COUNTERS, 0)  # from pool workers


def bump(name: str, amount: int = 1) -> None:
    """Add to one of this process's counters."""
    with _STORE_LOCK:
        _COUNTS[name] += amount


def counters_local() -> Dict[str, int]:
    """This process's counters."""
    with _STORE_LOCK:
        return dict(_COUNTS)


def counters_since(before: Mapping[str, int]) -> Dict[str, int]:
    """This process's counts accumulated since the ``before`` snapshot
    of :func:`counters_local` — what a pool task returns to the
    parent."""
    with _STORE_LOCK:
        return {name: _COUNTS[name] - before[name] for name in COUNTERS}


def absorb(delta: Mapping[str, int]) -> None:
    """Add a pool worker's counter delta to the fleet counts."""
    with _STORE_LOCK:
        for name in COUNTERS:
            _ABSORBED[name] += delta[name]


def counters_fleet() -> Dict[str, int]:
    """This process's counters plus every delta absorbed from pool
    workers, so the parent reads a whole sweep's counts."""
    with _STORE_LOCK:
        return {name: _COUNTS[name] + _ABSORBED[name] for name in COUNTERS}


def reset_counters(fleet: bool = False) -> None:
    """Zero this process's counters; with ``fleet=True`` (between
    benchmark passes) zero the absorbed worker counts too."""
    with _STORE_LOCK:
        for name in COUNTERS:
            _COUNTS[name] = 0
            if fleet:
                _ABSORBED[name] = 0
