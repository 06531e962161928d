"""The disk tier of the operating-point store, and the store's counters.

:mod:`repro.sim.optables` keeps the per-process sealed LRU (L1).  This
module supplies the tier underneath it:

**Disk.**  One ``.npz`` per table under the
:func:`repro.cacheconf.cache_dir` root (off unless ``REPRO_CACHE_DIR``
or ``--cache-dir`` is set), named by content digest, written via
temp-file + atomic rename, checksum-verified on every load.  A
truncated or bit-flipped file is treated as a miss (counted under
``corrupt``) and rebuilt — the rebuild overwrites the bad entry, so
the cache self-heals.

**Counters.**  Each process counts its own L1 and disk hits and
misses, builds and disk bytes.  A sweep's pool workers return each
cell's counter delta (:func:`counters_since`) with the cell's result
and the parent adds it up (:func:`absorb`), so :func:`counters_fleet`
sums a whole sweep.

**Locking.**  ``_STORE_LOCK`` guards every access to this module's
globals; it is the innermost lock and nothing else is acquired while
holding it.  :func:`build_guard` is a second process-local lock held
around the lookup + build + :func:`publish` sequence, so each
(phase-key, grid) table is built at most once per process.

Nothing here ever changes a result: every entry is keyed by
:func:`table_digest` (a sha256 over the full value-typed table
identity plus :data:`~repro.cacheconf.SCHEMA_VERSION`), payloads are
verified on load, and any verification failure degrades to a rebuild.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple
from zipfile import BadZipFile

import numpy as np
import numpy.typing as npt

from repro import cacheconf

#: Store counters.  ``l2_hits``, ``l2_misses`` and ``publishes`` are
#: always 0; they remain only because ``perfbench/run.py`` reads them.
COUNTERS: Tuple[str, ...] = (
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "l3_hits",
    "l3_misses",
    "builds",
    "publishes",
    "disk_writes",
    "corrupt",
    "disk_read_bytes",
    "disk_write_bytes",
)

_DIGEST_CHARS = 20  # hex chars of sha256 kept in file names


@dataclass(frozen=True)
class Payload:
    """One table surface as loaded from the disk tier.

    ``speedups`` is read-only float64; ``hull`` is the stored
    default-idle envelope hull as an (H, 2) float64 array, or None when
    the entry was published without one; ``checksum`` is the surface
    fingerprint — the sha256 hex of the speedups payload bytes,
    identical for the same surface whether it came from a fresh build
    or a disk load.
    """

    speedups: npt.NDArray[np.float64]
    hull: Optional[npt.NDArray[np.float64]]
    checksum: str


def table_digest(key: object, values: int) -> str:
    """Content digest of one table identity.

    ``key`` is the value-typed cache key (frozen dataclasses and
    tuples, whose ``repr`` is deterministic across processes and hash
    seeds); ``values`` the grid size.  The schema version participates
    so layout/semantics bumps invalidate every stale entry at once.
    """
    text = f"cash-optable|v{cacheconf.SCHEMA_VERSION}|n{values}|{key!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


_STORE_LOCK = threading.Lock()
_BUILD_GUARD = threading.Lock()
_COUNTS: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
_ABSORBED: Dict[str, int] = dict.fromkeys(COUNTERS, 0)  # from pool workers


def build_guard() -> AbstractContextManager[bool]:
    """The table-creation lock.  Hold it around the lookup + build +
    :func:`publish` sequence so each table is built at most once per
    process."""
    return _BUILD_GUARD


def bump(name: str, amount: int = 1) -> None:
    """Add to one of this process's counters."""
    with _STORE_LOCK:
        _COUNTS[name] += amount


def _disk_path(root: Path, digest: str) -> Path:
    return root / f"{digest}.npz"


def _payload_checksum(
    speedups: npt.NDArray[np.float64],
    hull: Optional[npt.NDArray[np.float64]],
) -> str:
    digest = hashlib.sha256(speedups.tobytes())
    if hull is not None:
        digest.update(np.ascontiguousarray(hull).tobytes())
    return digest.hexdigest()


def lookup(digest: str, values: int) -> Optional[Payload]:
    """Load one table surface from the disk tier.

    None when the tier is off, the entry is missing, or it fails
    verification.  A pure lookup — no writes.
    """
    root = cacheconf.cache_dir()
    if root is None:
        return None
    path = _disk_path(root, digest)
    try:
        size = path.stat().st_size
        with np.load(path, allow_pickle=False) as data:
            if str(data["digest"][()]) != digest:
                raise ValueError("digest mismatch")
            if int(data["schema"][()]) != cacheconf.SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            speedups = np.asarray(data["speedups"], dtype=np.float64)
            hull = None
            if "hull" in data.files:
                hull = np.asarray(data["hull"], dtype=np.float64)
            stored = str(data["checksum"][()])
        if speedups.shape != (values,):
            raise ValueError("shape mismatch")
        if hull is not None and (hull.ndim != 2 or hull.shape[1] != 2):
            raise ValueError("hull shape mismatch")
        if _payload_checksum(speedups, hull) != stored:
            raise ValueError("payload checksum mismatch")
    except FileNotFoundError:
        bump("l3_misses")
        return None
    except (OSError, ValueError, KeyError, EOFError, BadZipFile):
        # Truncated/bit-flipped entry: a miss, never an error — the
        # rebuild overwrites it and the cache self-heals.
        bump("corrupt")
        bump("l3_misses")
        return None
    speedups.setflags(write=False)
    if hull is not None:
        hull.setflags(write=False)
    bump("l3_hits")
    bump("disk_read_bytes", size)
    return Payload(
        speedups=speedups,
        hull=hull,
        checksum=hashlib.sha256(speedups.tobytes()).hexdigest(),
    )


def _disk_write(
    root: Path,
    digest: str,
    speedups: npt.NDArray[np.float64],
    hull: Optional[npt.NDArray[np.float64]],
) -> None:
    path = _disk_path(root, digest)
    scratch = root / f".{digest}.{os.getpid()}.tmp"
    try:
        root.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, npt.NDArray[np.float64]] = {"speedups": speedups}
        if hull is not None:
            arrays["hull"] = np.ascontiguousarray(hull)
        with open(scratch, "wb") as sink:
            np.savez(
                sink,
                digest=np.array(digest),
                schema=np.array(cacheconf.SCHEMA_VERSION),
                checksum=np.array(_payload_checksum(speedups, hull)),
                **arrays,
            )
        os.replace(scratch, path)
        size = path.stat().st_size
    except OSError:
        try:
            scratch.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - unwritable scratch dir
            pass
        return
    bump("disk_writes")
    bump("disk_write_bytes", size)


def publish(
    digest: str,
    speedups: npt.NDArray[np.float64],
    hull: Optional[npt.NDArray[np.float64]] = None,
) -> str:
    """Count one freshly built surface and persist it to the disk tier.

    Call under :func:`build_guard`, which makes ``builds`` count
    distinct builds in this process.  The build is counted even when
    the disk tier is off (the surface was still computed).  Returns the
    surface fingerprint (sha256 hex of the speedups payload; the
    ``.npz`` integrity checksum additionally covers the hull).
    """
    bump("builds")
    root = cacheconf.cache_dir()
    if root is not None:
        _disk_write(root, digest, speedups, hull)
    return hashlib.sha256(speedups.tobytes()).hexdigest()


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


def stats() -> Dict[str, object]:
    """Store statistics: local and fleet counters, and disk-tier info."""
    root = cacheconf.cache_dir()
    files = 0
    nbytes = 0
    if root is not None and root.is_dir():
        for entry in sorted(root.glob("*.npz")):
            try:
                nbytes += entry.stat().st_size
                files += 1
            except OSError:  # pragma: no cover - raced deletion
                continue
    return {
        "local": counters_local(),
        "fleet": counters_fleet(),
        "disk": {
            "enabled": root is not None,
            "dir": str(root) if root is not None else None,
            "files": files,
            "bytes": nbytes,
            "schema": cacheconf.SCHEMA_VERSION,
        },
    }


def disk_clear() -> int:
    """Delete every cache entry under the disk root; returns the count.
    A no-op (0) when the disk tier is off."""
    root = cacheconf.cache_dir()
    if root is None or not root.is_dir():
        return 0
    removed = 0
    for entry in sorted(root.glob("*.npz")):
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced deletion
            continue
    for entry in sorted(root.glob(".*.tmp")):
        try:
            entry.unlink()
        except OSError:  # pragma: no cover - raced deletion
            continue
    return removed
