"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps each layer's public entry point (a module
function or a class method of ``repro``) with a recorder that appends
one ``(name, start, end, parent, value)`` span per call, on
``time.perf_counter_ns``, into flat in-memory arrays.  Nothing inside
``src/repro`` changes: :meth:`Tracer.install` swaps the wrappers in and
:meth:`Tracer.uninstall` puts every original back, including in
modules that imported a wrapped function by name after installation.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time sums the self times of its spans.  The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Note = Callable[[tuple, object], int]
"""``note(args, result)``: an integer recorded as the span's value."""


@dataclass(frozen=True)
class EntryPoint:
    span: str
    module: str
    owner: Optional[str]
    """Class name, or None for a module-level function."""
    attribute: str
    note: Optional[str] = None
    """Name of the :class:`Tracer` method that computes the span value."""


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("stats.cell", "repro.experiments.stats", None, "run_cell"),
    EntryPoint("harness.run", "repro.experiments.harness", "ThroughputSimulator", "run"),
    EntryPoint("harness.run", "repro.experiments.harness", "LatencySimulator", "run"),
    EntryPoint("harness.leg", "repro.experiments.harness", "_PhaseWalker", "run_cycles"),
    EntryPoint("runtime.decide", "repro.experiments.harness", "CASHAllocator", "decide"),
    EntryPoint("runtime.step", "repro.runtime.cash", "CASHRuntime", "step"),
    EntryPoint("runtime.solve", "repro.runtime.optimizer", "LearningOptimizer", "optimal_cost_points"),
    EntryPoint("runtime.solve", "repro.runtime.optimizer", "LearningOptimizer", "schedule_points"),
    EntryPoint("runtime.envelope", "repro.runtime.optimizer", "LearnedPoints", "envelope", "_note_envelope"),
    EntryPoint("baselines.decide", "repro.baselines.oracle", "OracleAllocator", "decide"),
    EntryPoint("baselines.decide", "repro.baselines.convex", "ConvexOptimizationAllocator", "decide"),
    EntryPoint("baselines.decide", "repro.baselines.race", "RaceToIdleAllocator", "decide"),
    EntryPoint("optables.lookup", "repro.sim.optables", None, "operating_point_table"),
    EntryPoint("optables.build", "repro.sim.optables", None, "build_table_vectorized"),
    EntryPoint("traffic.generate", "repro.cloud.traffic", None, "generate_traffic"),
    EntryPoint("service.run", "repro.cloud.service", "ServiceEngine", "run"),
    EntryPoint("provider.run", "repro.cloud.provider", "CloudProvider", "run"),
    EntryPoint("admission.request", "repro.cloud.admission", "AdmissionController", "request", "_note_admitted"),
    EntryPoint("fabric.allocate", "repro.arch.fabric", "Fabric", "allocate"),
    EntryPoint("fabric.defragment", "repro.arch.fabric", "Fabric", "defragment"),
    EntryPoint("fabric.reallocate", "repro.arch.fabric", "Fabric", "reallocate"),
    EntryPoint("fabric.reseat", "repro.arch.fabric", "Fabric", "try_allocate_exact", "_note_truth"),
    EntryPoint("trace.generate", "repro.sim.trace", "TraceGenerator", "generate_arrays", "_note_count"),
    EntryPoint("batch.run", "repro.sim.batchpipe", None, "run_batch", "_note_cells"),
    EntryPoint("batch.fallback", "repro.sim.pipeline", "MultiSlicePipeline", "run"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(e.span for e in ENTRY_POINTS))

_ORIGINAL = "__perfbench_original__"

# Span values of ``runtime.envelope``.
ENVELOPE_CACHED, ENVELOPE_REBUILT, ENVELOPE_UNCHANGED = 0, 1, 2


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` while installed."""

    def __init__(self) -> None:
        self.codes = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.values = array("q")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self._last_envelope: Dict[int, Tuple[object, object]] = {}

    # -- span values -----------------------------------------------------

    def _note_envelope(self, args: tuple, result: object) -> int:
        """Cached hit, rebuild, or rebuild that reproduced the last hull."""
        owner = args[0]
        last = self._last_envelope.get(id(owner))
        if last is not None and result is last[1]:
            return ENVELOPE_CACHED
        # Holding the owner keeps its id from being reused.
        self._last_envelope[id(owner)] = (owner, result)
        if last is not None and result[0] == last[1][0]:
            return ENVELOPE_UNCHANGED
        return ENVELOPE_REBUILT

    @staticmethod
    def _note_admitted(args: tuple, result: object) -> int:
        return int(bool(getattr(result, "admitted")))

    @staticmethod
    def _note_truth(args: tuple, result: object) -> int:
        return int(bool(result))

    @staticmethod
    def _note_count(args: tuple, result: object) -> int:
        return len(result)

    @staticmethod
    def _note_cells(args: tuple, result: object) -> int:
        return len(args[0])

    # -- wrapping --------------------------------------------------------

    def _wrap(self, code: int, func: Callable, note: Optional[Note]) -> Callable:
        codes, parents = self.codes, self.parents
        starts, ends, values = self.starts, self.ends, self.values
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(func)
        def wrapper(*args, **kwargs):
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            values.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                values[index] = note(args, result)
            return result

        setattr(wrapper, _ORIGINAL, func)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for entry in ENTRY_POINTS:
            importlib.import_module(entry.module)
        for entry in ENTRY_POINTS:
            module = sys.modules[entry.module]
            code = SPAN_NAMES.index(entry.span)
            note = getattr(self, entry.note) if entry.note else None
            if entry.owner is not None:
                owner = getattr(module, entry.owner)
                original = owner.__dict__[entry.attribute]
                self._patch(owner, entry.attribute, self._wrap(code, original, note))
                continue
            original = getattr(module, entry.attribute)
            wrapper = self._wrap(code, original, note)
            # Patch every module holding the function by name, so calls
            # through ``from ... import f`` bindings are traced too.
            for holder in _repro_modules():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)

    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        # Modules imported while installed may have bound a wrapper.
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                original = getattr(value, _ORIGINAL, None)
                if callable(value) and original is not None:
                    setattr(holder, name, original)
        self._last_envelope.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "codes": np.frombuffer(self.codes, dtype=np.int64).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.int64).copy(),
            "values": np.frombuffer(self.values, dtype=np.int64).copy(),
        }


def installed_wrappers() -> List[str]:
    """Every ``repro`` module or class attribute that is still a wrapper."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, _ORIGINAL, None) is not None:
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attribute, member in list(vars(value).items()):
                    if getattr(member, _ORIGINAL, None) is not None:
                        found.append(f"{module.__name__}.{name}.{attribute}")
    return found


@dataclass(frozen=True)
class SpanTable:
    """Spans as columns, with derived durations and self times (ns)."""

    codes: np.ndarray
    parents: np.ndarray
    durations: np.ndarray
    self_times: np.ndarray
    values: np.ndarray

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "SpanTable":
        durations = arrays["ends"] - arrays["starts"]
        parents = arrays["parents"]
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(parents)
        )
        return cls(
            codes=arrays["codes"],
            parents=parents,
            durations=durations,
            self_times=durations - children.astype(np.int64),
            values=arrays["values"],
        )

    def mask(self, *spans: str) -> np.ndarray:
        codes = [SPAN_NAMES.index(span) for span in spans]
        return np.isin(self.codes, codes)

    def count(self, *spans: str) -> int:
        return int(self.mask(*spans).sum())

    def seconds(self, *spans: str) -> float:
        return float(self.durations[self.mask(*spans)].sum()) / 1e9

    def self_seconds(self, *spans: str) -> float:
        return float(self.self_times[self.mask(*spans)].sum()) / 1e9

    def top_level_seconds(self) -> float:
        return float(self.durations[self.parents < 0].sum()) / 1e9

    def percentile_us(self, span: str, q: float) -> float:
        durations = self.durations[self.mask(span)]
        if not len(durations):
            return 0.0
        return float(np.percentile(durations, q)) / 1e3

    def percentile_s(self, span: str, q: float) -> float:
        return self.percentile_us(span, q) / 1e6

    def values_of(self, span: str) -> np.ndarray:
        return self.values[self.mask(span)]

    def count_under(self, parent_span: str, *spans: str) -> int:
        """Spans named ``spans`` whose direct parent is ``parent_span``."""
        nested = self.mask(*spans) & (self.parents >= 0)
        parent_codes = self.codes[self.parents[nested]]
        return int((parent_codes == SPAN_NAMES.index(parent_span)).sum())
