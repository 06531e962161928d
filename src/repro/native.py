"""Optional compiled core for the cycle tier, the fabric, Eqn. 5 and noise.

Five hot loops cost pure interpreter overhead in Python: the
struct-of-arrays batch kernel (:mod:`repro.sim.batchpipe`, one event
epoch per cell per step), the column trace generator
(:meth:`repro.sim.trace.TraceGenerator.generate_arrays`, a handful of
RNG draws per micro-op), the fabric's placement search
(:meth:`repro.arch.fabric.Fabric.allocate`, a seed search and a region
pick over the free-tile masks at every placement), the lower convex
envelope of Eqn. 5 (:meth:`repro.runtime.optimizer.LearnedPoints.
envelope` and the latency oracle's point view, a sort and a monotone
chain over every learned estimate at every control interval) and the
simulators' measurement noise (:class:`repro.experiments.harness.
NoiseStream`, a Gaussian draw per leg and per counter).  This module
compiles ``sim/_batchcore.c``, ``sim/_tracegen.c``, ``arch/_fabric.c``
and ``runtime/_envelope.c`` on demand into one shared object with the
host C compiler and loads it through :mod:`ctypes`, following the
shape ROADMAP cites from ``subhft``'s ``rust_core``: an *optional*
accelerated core behind a pure-Python contract, with the scalar twins
— the per-cycle object pipeline, the reference trace generator, the
grow-from-every-seed placement scan, the sorted-key envelope chain and
``random.Random.gauss`` — always runnable and bit-identity asserted in
tests.  Nothing is installed: if no compiler is present (or
``REPRO_NATIVE`` disables the core) every caller falls back to those
twins — correct, but several times slower.

The host-level switches are read from the environment here, once, at
the top of the package — the engine directories themselves are
forbidden from touching ``os.environ`` by the ``env-read`` determinism
rule:

* ``REPRO_NATIVE=0|off|none|disabled`` keeps the compiled core off;
* ``REPRO_NATIVE_DIR=<path>`` overrides where the shared object is
  built (default: a per-user directory under the system temp root).

The switch can never change a result — every entry point is
bit-identical to its scalar twin (enforced by the `fast-parity` twin
tests) — it only selects how fast the cycle tier, placement, the
envelope and the noise run.  The envelope computes cross products and
the noise ``cos(x) * r``, so the sources build with
``-ffp-contract=off``: a fused multiply-add would round ``a*b - c*d``
once where CPython rounds each operation.  The noise calls the same
libm ``log``, ``sqrt``, ``cos`` and ``sin`` as :mod:`math`, so the
object links ``-lm``.  Build artifacts are keyed by a content hash of
the C sources, the compiler and its flags, written via temp-file +
atomic rename, so concurrent processes and stale sources are both
safe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

#: Environment values (case-insensitive) that mean "compiled core off".
_OFF_VALUES = frozenset({"0", "off", "none", "disabled"})

#: Compile command prefix; the source and output paths are appended.
#: ``-ffp-contract=off`` keeps ``a*b - c*d`` two rounded products and a
#: rounded difference, as CPython computes it, on targets with a fused
#: multiply-add (aarch64, for one), where GCC and Clang contract it.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Libraries linked after the sources: libm for the noise stream.
_LDLIBS = ("-lm",)

_SOURCE_PATHS = tuple(
    Path(__file__).parent / name
    for name in (
        "sim/_batchcore.c",
        "sim/_tracegen.c",
        "arch/_fabric.c",
        "runtime/_envelope.c",
    )
)

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


def _buffers(*arrays: Tuple[str, np.ndarray, Any]) -> List[int]:
    """Addresses of ``(name, array, dtype)`` buffers, after checking
    each is a C-contiguous array of that dtype: the C side reads raw
    memory, so anything else would be reinterpreted silently."""
    addresses = []
    for name, array, dtype in arrays:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise ValueError(
                f"{name}: need C-contiguous {np.dtype(dtype).name}, "
                f"got {array.dtype}"
            )
        addresses.append(array.ctypes.data)
    return addresses


#: ``repro_generate_trace``'s array arguments in order, with their
#: dtypes (``sim/_tracegen.c`` documents the layouts): inputs, state
#: carried in and out, then the nine ``TraceArrays`` columns.
TRACE_BUFFERS: Tuple[Tuple[str, Any], ...] = (
    ("iparams", np.int64),
    ("fparams", np.float64),
    ("state", np.int64),
    ("mt_key", np.uint32),
    ("hot", np.int64),
    ("sweep", np.int64),
    ("branch_keys", np.int64),
    ("branch_bias", np.float64),
    ("branch_targets", np.int64),
    ("kinds", np.int8),
    ("sources", np.int64),
    ("dests", np.int64),
    ("addresses", np.int64),
    ("mispredicted", np.bool_),
    ("code_addresses", np.int64),
    ("taken", np.int8),
    ("targets", np.int64),
)


class EnvelopeBuffers:
    """One point set's buffers for :meth:`NativeBatchCore.lower_envelope`.

    ``keys`` is a ``(2, n)`` float64 array, row 0 the speedups and row
    1 the costs, which its owner writes in place; ``scratch`` is a
    ``(2, n + 1)`` int64 array that receives the chain's ranking (row 0)
    and the hull's vertex positions, idle as -1 (row 1).  Their dtypes,
    layout and shapes are checked here, once, and their addresses read
    once: a caller rebuilds the envelope every control interval, and
    reading two addresses costs more than the chain on a few dozen
    points.  Both arrays are fixed for the object's life.
    """

    __slots__ = ("_keys", "_scratch", "_args")

    def __init__(self, keys: np.ndarray, scratch: np.ndarray) -> None:
        keys_at, scratch_at = _buffers(
            ("keys", keys, np.float64), ("scratch", scratch, np.int64)
        )
        n = keys.size // 2
        if keys.shape != (2, n) or scratch.shape != (2, n + 1):
            raise ValueError(
                f"keys {keys.shape} and scratch {scratch.shape}: need "
                f"(2, n) and (2, n + 1)"
            )
        self._keys = keys
        self._scratch = scratch
        self._args = (n, keys_at, scratch_at)

    def __reduce__(self) -> Tuple[Any, ...]:
        # A copy or an unpickled object gets its own arrays' addresses.
        return (EnvelopeBuffers, (self._keys, self._scratch))

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    @property
    def scratch(self) -> np.ndarray:
        return self._scratch


#: Draws per compiled noise block.  Each stream holds one block, so
#: this bounds the memory a service's thousand tenant streams add.
NOISE_BLOCK = 64

#: The ``array`` typecode of a 32-bit unsigned int on this platform.
_UINT32 = next(code for code in "IL" if array(code).itemsize == 4)


class NoiseBlocks:
    """One measurement-noise stream's compiled state.

    Holds the stream's MT19937 state, copied from
    ``random.Random(seed).getstate()`` (its 624 words and index, as an
    ``array`` of 32-bit unsigned ints), and a block of
    :data:`NOISE_BLOCK` doubles.  Each call refills the block in place
    with the stream's next draws of ``random.Random(seed).gauss(0.0,
    1.0)``, in order, and returns it, so
    ``itertools.chain.from_iterable(iter(blocks, None))`` iterates the
    draws at C speed, one Python call per block (see
    :class:`repro.experiments.harness.NoiseStream`).
    """

    __slots__ = ("_state", "_block", "_fill", "_args")

    def __init__(self, core: "NativeBatchCore", seed: int) -> None:
        state = array(_UINT32, random.Random(seed).getstate()[1])
        block = array("d", bytes(8 * NOISE_BLOCK))
        self._state = state
        self._block = block
        self._fill = core._noise_fill
        self._args = (state.buffer_info()[0], NOISE_BLOCK, block.buffer_info()[0])

    def __call__(self) -> "array[float]":
        # The previous block's iterator is exhausted before the chain
        # asks for the next block, so refilling it in place is safe.
        self._fill(*self._args)
        return self._block

    def __reduce__(self) -> Tuple[Any, ...]:
        # A copy would fill the original's buffers through the stored
        # addresses, after the original may have freed them.
        raise TypeError("a compiled noise stream cannot be copied or pickled")

    def getstate(self) -> Tuple[int, ...]:
        """The MT19937 words and index, as ``getstate()[1]`` holds them."""
        return tuple(self._state)


class PlacementBuffers:
    """One fabric's buffers for :meth:`NativeBatchCore.fabric_place`.

    ``free_slices`` and ``free_banks`` are the fabric's ``width *
    height`` boolean free-tile masks, which the fabric writes in place
    as tiles change hands; ``out`` is an int64 array that receives the
    flat ids of each placement's Slices, then banks.  Their dtypes,
    layout and sizes are checked here, once, and their addresses read
    once, instead of on every placement.  All three arrays are fixed
    for the object's life.
    """

    __slots__ = ("_free_slices", "_free_banks", "_out", "_args")

    def __init__(
        self,
        width: int,
        height: int,
        free_slices: np.ndarray,
        free_banks: np.ndarray,
        out: np.ndarray,
    ) -> None:
        slices_at, banks_at, out_at = _buffers(
            ("free_slices", free_slices, np.bool_),
            ("free_banks", free_banks, np.bool_),
            ("out", out, np.int64),
        )
        tiles = width * height
        if free_slices.size != tiles or free_banks.size != tiles:
            raise ValueError(
                f"masks hold {free_slices.size} and {free_banks.size} "
                f"tiles, the {width}x{height} fabric {tiles}"
            )
        self._free_slices = free_slices
        self._free_banks = free_banks
        self._out = out
        self._args = (width, height, slices_at, banks_at, out.size, out_at)

    def __reduce__(self) -> Tuple[Any, ...]:
        # A copy or an unpickled object gets its own arrays' addresses.
        width, height = self._args[:2]
        return (
            PlacementBuffers,
            (width, height, self._free_slices, self._free_banks, self._out),
        )

    @property
    def out(self) -> np.ndarray:
        return self._out


class NativeBatchCore:
    """ctypes wrapper around the compiled library's five entries:
    ``repro_run_batch``, ``repro_generate_trace``,
    ``repro_fabric_place``, ``repro_lower_envelope`` and
    ``repro_noise_fill``."""

    def __init__(self, library: ctypes.CDLL, path: Path) -> None:
        self.path = path
        fn = library.repro_run_batch
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 12
        self._fn = fn
        generate = library.repro_generate_trace
        generate.restype = ctypes.c_int64
        generate.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * len(
            TRACE_BUFFERS
        )
        self._generate = generate
        place = library.repro_fabric_place
        place.restype = ctypes.c_int64
        place.argtypes = [
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_void_p,
        ]
        self._place = place
        envelope = library.repro_lower_envelope
        envelope.restype = ctypes.c_int64
        envelope.argtypes = [
            ctypes.c_int64,
            ctypes.c_void_p,
            ctypes.c_double,
            ctypes.c_double,
            ctypes.c_void_p,
        ]
        self._envelope = envelope
        noise_fill = library.repro_noise_fill
        noise_fill.restype = None
        noise_fill.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        self._noise_fill = noise_fill

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
        sources: np.ndarray,
        dests: np.ndarray,
        warm: np.ndarray,
        out_cell: np.ndarray,
        out_slice: np.ndarray,
    ) -> int:
        """Invoke the compiled batch kernel, which renames each trace
        from ``sources`` (``prod_width`` columns) and ``dests`` and runs
        the cells one after another; returns its status code (0 = ok,
        negative = allocation failure)."""
        buffers = _buffers(
            ("params", params, np.int64),
            ("cell_conf", cell_conf, np.int64),
            ("kinds", kinds, np.int8),
            ("is_mem", is_mem, np.int8),
            ("mispredicted", mispredicted, np.int8),
            ("addresses", addresses, np.int64),
            ("code_addresses", code_addresses, np.int64),
            ("sources", sources, np.int64),
            ("dests", dests, np.int64),
            ("warm", warm, np.int64),
            ("out_cell", out_cell, np.int64),
            ("out_slice", out_slice, np.int64),
        )
        return int(self._fn(n_cells, max_slices, prod_width, *buffers))

    def generate_trace(self, count: int, *arrays: np.ndarray) -> int:
        """Invoke the compiled trace generator on :data:`TRACE_BUFFERS`,
        in that order; returns its status code (0 = ok, negative =
        allocation failure).  The C side trusts the hot-set, region and
        branch-table sizes in ``iparams``, so every buffer is checked
        against them first."""
        buffers = _buffers(
            *(
                (name, array, dtype)
                for (name, dtype), array in zip(
                    TRACE_BUFFERS, arrays, strict=True
                )
            )
        )
        hot_cap, regions, branch_cap = (int(v) for v in arrays[0][3:6])
        sizes = [6 + regions, 6 + regions, 5, 624, hot_cap, regions]
        sizes += [branch_cap] * 3 + [count, 2 * count] + [count] * 6
        actual = [array.size for array in arrays]
        if actual != sizes:
            raise ValueError(f"buffer sizes {actual}, layout needs {sizes}")
        return int(self._generate(count, *buffers))

    def fabric_place(
        self, buffers: PlacementBuffers, need_slices: int, need_banks: int
    ) -> int:
        """Invoke the compiled placement search (``arch/_fabric.c``) on
        the masks in ``buffers``: writes the flat ids of the chosen
        Slices, then banks, to ``buffers.out``; returns its status code
        (0 = ok, -1 = allocation failure, -2 = no seed fits).  The C
        side reads ``width * height`` bytes of each mask, the sizes
        :class:`PlacementBuffers` checked when it was built, and writes
        ``need_slices + need_banks`` ids, so the counts are checked
        here."""
        width, height, slices_at, banks_at, room, out_at = buffers._args
        if need_slices < 0 or need_banks < 0 or (
            room < need_slices + need_banks
        ):
            raise ValueError(
                f"out holds {room} ids, the request needs "
                f"{need_slices} + {need_banks}"
            )
        return int(
            self._place(
                width,
                height,
                slices_at,
                banks_at,
                need_slices,
                need_banks,
                out_at,
            )
        )

    def lower_envelope(
        self, buffers: EnvelopeBuffers, idle_speedup: float, idle_cost: float
    ) -> int:
        """Invoke the compiled envelope chain (``runtime/_envelope.c``)
        on the keys in ``buffers`` and the idle key: ranks every
        position in ``buffers.scratch[0]`` and writes the hull's vertex
        positions, idle as -1, to ``buffers.scratch[1]``; returns the
        vertex count, or -1 when a key is NaN.  The C side reads ``2 *
        n`` doubles and writes ``2 * (n + 1)`` positions, the shapes
        :class:`EnvelopeBuffers` checked when it was built."""
        n, keys_at, scratch_at = buffers._args
        return int(
            self._envelope(n, keys_at, idle_speedup, idle_cost, scratch_at)
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
    hasher = hashlib.sha256()
    for path in _SOURCE_PATHS:
        hasher.update(path.read_bytes())
    hasher.update(compiler.encode() + " ".join(_CFLAGS + _LDLIBS).encode())
    digest = hasher.hexdigest()[:16]
    build_dir = _BUILD_DIR
    artifact = build_dir / f"_native-{digest}.so"
    if not artifact.exists():
        build_dir.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            suffix=".so.tmp", dir=str(build_dir)
        )
        os.close(handle)
        try:
            result = subprocess.run(
                [
                    compiler,
                    *_CFLAGS,
                    "-o",
                    tmp_name,
                    *map(str, _SOURCE_PATHS),
                    *_LDLIBS,
                ],
                capture_output=True,
                text=True,
            )
            if result.returncode != 0:
                raise RuntimeError(
                    f"{compiler} failed ({result.returncode}): "
                    f"{result.stderr.strip()[:500]}"
                )
            # Atomic publish: concurrent builders race benignly — both
            # produce identical artifacts keyed by the same digest.  A
            # failed rename (a full disk, say) names the artifact too.
            try:
                os.replace(tmp_name, artifact)
            except OSError as exc:
                raise RuntimeError(
                    f"could not publish {artifact}: {exc}"
                ) from exc
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
    library = ctypes.CDLL(str(artifact))
    return NativeBatchCore(library, artifact)


def batch_core() -> Optional[NativeBatchCore]:
    """The compiled core — the batch kernel, the trace generator, the
    placement search, the envelope chain and the noise stream, one
    shared object — or ``None`` when unavailable.

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
