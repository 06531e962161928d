"""Optional compiled batch-stepping core for the cycle tier.

The struct-of-arrays batch kernel (:mod:`repro.sim.batchpipe`) has a
hot inner loop — one event epoch per cell per step — whose cost is
pure interpreter overhead.  This module compiles ``sim/_batchcore.c``
on demand with the host C compiler and loads it through :mod:`ctypes`,
following the shape ROADMAP cites from ``subhft``'s ``rust_core``: an
*optional* accelerated core behind a pure-Python contract, with the
per-cycle object pipeline retained as the always-runnable twin and
bit-identity asserted in tests.  Nothing is installed: if no compiler
is present (or ``REPRO_NATIVE`` disables the core) every caller falls
back to that per-cycle pipeline — correct, but several times slower.

Like :mod:`repro.cacheconf`, the host-level switches are read from the
environment here, once, at the top of the package — the engine
directories themselves are forbidden from touching ``os.environ`` by
the ``env-read`` determinism rule:

* ``REPRO_NATIVE=0|off|none|disabled`` keeps the compiled core off;
* ``REPRO_NATIVE_DIR=<path>`` overrides where the shared object is
  built (default: a per-user directory under the system temp root).

The switch can never change a result — the compiled kernel is
bit-identical to the object pipeline (enforced by the `fast-parity`
twin tests) — it only selects how fast the batch tier runs.  Build
artifacts are keyed by a content hash of the C source and compiler
identity, written via temp-file + atomic rename, so concurrent
processes and stale sources are both safe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

#: Environment values (case-insensitive) that mean "compiled core off".
_OFF_VALUES = frozenset({"0", "off", "none", "disabled"})

#: Compile command prefix; the source and output paths are appended.
_CFLAGS = ("-O2", "-fPIC", "-shared")

_SOURCE_PATH = Path(__file__).parent / "sim" / "_batchcore.c"

_NATIVE_LOCK = threading.Lock()


def _resolve_dir(text: Union[str, Path, None]) -> Path:
    if isinstance(text, Path):
        return text.expanduser()
    if text is not None and text.strip():
        return Path(text).expanduser()
    uid = getattr(os, "getuid", lambda: 0)()
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


_ENABLED: bool = (
    os.environ.get("REPRO_NATIVE", "1").strip().lower() not in _OFF_VALUES
)
_BUILD_DIR: Path = _resolve_dir(os.environ.get("REPRO_NATIVE_DIR"))
_CORE: Optional["NativeBatchCore"] = None
_CORE_TRIED: bool = False
_CORE_ERROR: Optional[str] = None

_I64P = ctypes.POINTER(ctypes.c_int64)
_I8P = ctypes.POINTER(ctypes.c_int8)


class NativeBatchCore:
    """ctypes wrapper around the compiled ``repro_run_batch`` entry."""

    def __init__(self, library: ctypes.CDLL, path: Path) -> None:
        self.path = path
        fn = library.repro_run_batch
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            _I64P,
            _I64P,
            _I8P,
            _I8P,
            _I8P,
            _I64P,
            _I64P,
            _I64P,
            _I64P,
            _I64P,
            _I64P,
        ]
        self._fn = fn

    def run_batch(
        self,
        n_cells: int,
        max_slices: int,
        prod_width: int,
        params: np.ndarray,
        cell_conf: np.ndarray,
        kinds: np.ndarray,
        is_mem: np.ndarray,
        mispredicted: np.ndarray,
        addresses: np.ndarray,
        code_addresses: np.ndarray,
        producers: np.ndarray,
        warm: np.ndarray,
        out_cell: np.ndarray,
        out_slice: np.ndarray,
    ) -> int:
        """Invoke the compiled lockstep kernel; returns its status code
        (0 = ok, negative = allocation failure)."""
        for name, array, dtype in (
            ("params", params, np.int64),
            ("cell_conf", cell_conf, np.int64),
            ("kinds", kinds, np.int8),
            ("is_mem", is_mem, np.int8),
            ("mispredicted", mispredicted, np.int8),
            ("addresses", addresses, np.int64),
            ("code_addresses", code_addresses, np.int64),
            ("producers", producers, np.int64),
            ("warm", warm, np.int64),
            ("out_cell", out_cell, np.int64),
            ("out_slice", out_slice, np.int64),
        ):
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise ValueError(
                    f"{name}: need C-contiguous {np.dtype(dtype).name}, "
                    f"got {array.dtype}"
                )
        return int(
            self._fn(
                n_cells,
                max_slices,
                prod_width,
                params.ctypes.data_as(_I64P),
                cell_conf.ctypes.data_as(_I64P),
                kinds.ctypes.data_as(_I8P),
                is_mem.ctypes.data_as(_I8P),
                mispredicted.ctypes.data_as(_I8P),
                addresses.ctypes.data_as(_I64P),
                code_addresses.ctypes.data_as(_I64P),
                producers.ctypes.data_as(_I64P),
                warm.ctypes.data_as(_I64P),
                out_cell.ctypes.data_as(_I64P),
                out_slice.ctypes.data_as(_I64P),
            )
        )


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_and_load_locked() -> NativeBatchCore:
    """Compile (if needed) and load the core.  Caller holds the lock."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH (tried cc, gcc, clang)")
    source = _SOURCE_PATH.read_bytes()
    digest = hashlib.sha256(
        source + compiler.encode() + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    build_dir = _BUILD_DIR
    artifact = build_dir / f"_batchcore-{digest}.so"
    if not artifact.exists():
        build_dir.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            suffix=".so.tmp", dir=str(build_dir)
        )
        os.close(handle)
        try:
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE_PATH)],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                raise RuntimeError(
                    f"{compiler} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            # Atomic publish: concurrent builders race benignly — both
            # produce identical artifacts keyed by the same digest.
            os.replace(tmp_name, artifact)
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
    library = ctypes.CDLL(str(artifact))
    return NativeBatchCore(library, artifact)


def batch_core() -> Optional[NativeBatchCore]:
    """The compiled batch core, or ``None`` when unavailable.

    Builds and loads at most once per process; a failed build is
    remembered (see :func:`batch_core_error`) and not retried until
    :func:`set_native_enabled` resets the state.
    """
    global _CORE, _CORE_TRIED, _CORE_ERROR
    with _NATIVE_LOCK:
        if not _ENABLED:
            return None
        if _CORE_TRIED:
            return _CORE
        _CORE_TRIED = True
        try:
            _CORE = _build_and_load_locked()
        except (OSError, RuntimeError) as exc:
            _CORE = None
            _CORE_ERROR = str(exc)
        return _CORE


def batch_core_error() -> Optional[str]:
    """Why the last build attempt failed, or None."""
    with _NATIVE_LOCK:
        return _CORE_ERROR


def native_enabled() -> bool:
    with _NATIVE_LOCK:
        return _ENABLED


def set_native_enabled(flag: bool) -> None:
    """Override the ``REPRO_NATIVE`` switch (tests, CLI).

    Re-enabling also clears the memoized build attempt so the next
    :func:`batch_core` call retries.
    """
    global _ENABLED, _CORE, _CORE_TRIED, _CORE_ERROR
    with _NATIVE_LOCK:
        _ENABLED = bool(flag)
        _CORE = None
        _CORE_TRIED = False
        _CORE_ERROR = None


def set_build_dir(target: Union[str, Path, None]) -> Path:
    """Override the build directory (``REPRO_NATIVE_DIR``); resets the
    memoized core so the next load uses the new location."""
    global _BUILD_DIR, _CORE, _CORE_TRIED, _CORE_ERROR
    resolved = _resolve_dir(target)
    with _NATIVE_LOCK:
        _BUILD_DIR = resolved
        _CORE = None
        _CORE_TRIED = False
        _CORE_ERROR = None
    return resolved
