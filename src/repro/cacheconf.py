"""Configuration of the persistent operating-point cache tier.

The engine directories (``sim``/``runtime``/``baselines``/``cloud``)
are forbidden from reading the environment — the ``env-read``
determinism rule enforces that engine behaviour is a pure function of
explicit arguments.  The on-disk optable tier still needs *some*
host-level switch (where the cache root lives, or that it is off), so
that one read happens here, at the top of the package, once at import:

* ``REPRO_CACHE_DIR=<path>`` enables the disk tier rooted at that path;
* unset, empty, ``0``, ``off``, ``none`` or ``disabled`` keeps the
  disk tier off (the default — a cold engine never touches the disk);
* ``repro … --cache-dir PATH`` and tests override programmatically via
  :func:`set_cache_dir`.

The directory only ever *selects* which tables are warm; it can never
change a result, because every entry is keyed by a content hash of the
full table identity (see :data:`SCHEMA_VERSION` and
:func:`repro.sim.optstore.table_digest`) and checksum-verified on load.

``SCHEMA_VERSION`` is part of every digest and must be bumped whenever
the *meaning* of a stored surface changes — a performance-model or
envelope semantics change, a layout change in the ``.npz`` entries —
so stale caches self-invalidate instead of being trusted.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Optional, Union

#: Content-hash schema version: participates in every table digest and
#: in every ``.npz`` entry.  Bump on any change to the stored payload
#: layout or to the semantics of the cached surfaces (performance
#: model, envelope construction, cost mapping).
SCHEMA_VERSION: int = 1

#: Environment values (case-insensitive) that mean "disk tier off".
_OFF_VALUES = frozenset({"", "0", "off", "none", "disabled"})

_CONF_LOCK = threading.Lock()


def _resolve(text: Union[str, Path, None]) -> Optional[Path]:
    """Normalize a cache-dir setting: a real path, or None for off."""
    if text is None:
        return None
    if isinstance(text, Path):
        return text.expanduser()
    if text.strip().lower() in _OFF_VALUES:
        return None
    return Path(text).expanduser()


_CACHE_DIR: Optional[Path] = _resolve(os.environ.get("REPRO_CACHE_DIR"))


def cache_dir() -> Optional[Path]:
    """Root of the on-disk optable tier, or None when the tier is off."""
    with _CONF_LOCK:
        return _CACHE_DIR


def set_cache_dir(target: Union[str, Path, None]) -> Optional[Path]:
    """Override the disk-tier root (``--cache-dir``, tests, workers).

    ``None`` or an off-value string disables the disk tier.  Returns
    the resolved root (or None).  The directory itself is created
    lazily by the first write, not here.
    """
    global _CACHE_DIR
    resolved = _resolve(target)
    with _CONF_LOCK:
        _CACHE_DIR = resolved
    return resolved
