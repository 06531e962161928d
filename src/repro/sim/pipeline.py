"""Cycle-level multi-Slice out-of-order pipeline (the SSim cycle tier).

Models the composed virtual core of Fig. 4 at cycle granularity with
the Table I resources per Slice:

* **fetch** — 2 instructions/cycle/Slice, steered round-robin across
  the Slices of the virtual core (distributed fetch);
* **rename** — global logical registers; each op records its producer
  ops, and cross-Slice operands pay the Scalar Operand Network hop
  latency;
* **issue** — per-Slice issue window (32), out-of-order, one ALU-class
  and one memory-class op per Slice per cycle (1 ALU + 1 LSU);
* **memory** — per-Slice L1D over the bank-hashed L2 with
  distance-dependent hit delays, at most 8 in-flight loads per Slice;
* **commit** — program order, 2/cycle/Slice, per-Slice ROB of 64;
* **branches** — a mispredict stalls fetch until the branch resolves
  plus the front-end redirect penalty.

This is deliberately a simplified out-of-order model — enough to
demonstrate the CASH mechanisms (composition scaling, distance-priced
cache, reconfiguration stalls) at cycle fidelity and to sanity-check
the fast analytic tier, not a validated microarchitectural twin.

This module is the cycle tier's scalar engine: one loop iteration per
simulated cycle, re-scanning every in-flight op
(:meth:`MultiSlicePipeline._run_reference`).  The fast engine is the
compiled lockstep kernel behind :func:`repro.sim.batchpipe.run_batch`;
the parity suite asserts that it returns a bit-identical
:class:`PipelineResult`, per-Slice counters and memory state for every
trace this engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.counters import CounterKind, PerformanceCounters
from repro.arch.params import CacheParams, SliceParams
from repro.arch.params import DEFAULT_CACHE_PARAMS, DEFAULT_SLICE_PARAMS
from repro.arch.vcore import VCoreConfig
from repro.sim.isa import MicroOp, OpKind
from repro.sim.branch import FrontEndPredictor
from repro.sim.memsys import MemorySystem

_FRONT_END_DEPTH = 7
"""Fetch/decode/rename depth: the redirect penalty after a mispredict
and the fixed part of a reconfiguration pipeline flush."""


@dataclass
class _InFlightOp:
    op: MicroOp
    slice_id: int
    producers: Tuple[int, ...]  # op_ids this op waits on
    fetched_at: int
    issued: bool = False
    complete_at: Optional[int] = None
    committed: bool = False


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of running a trace on the cycle tier."""

    cycles: int
    instructions: int
    config: VCoreConfig
    l1_hits: int
    l2_hits: int
    l2_misses: int
    mispredicts: int
    l1i_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class MultiSlicePipeline:
    """A virtual core executing one micro-op trace."""

    def __init__(
        self,
        config: VCoreConfig,
        slice_params: SliceParams = DEFAULT_SLICE_PARAMS,
        cache_params: CacheParams = DEFAULT_CACHE_PARAMS,
        dynamic_branches: bool = False,
    ) -> None:
        self.config = config
        self.slice_params = slice_params
        self.cache_params = cache_params
        self.memory = MemorySystem(config, cache_params, slice_params)
        self.dynamic_branches = dynamic_branches
        self.front_end = FrontEndPredictor() if dynamic_branches else None
        self.counters = [
            PerformanceCounters(slice_id) for slice_id in range(config.slices)
        ]
        # Cross-Slice operand forwarding cost.  The Scalar Operand
        # Network is a fast switched interconnect (Section III-A);
        # within the compact Slice groups the runtime allocates,
        # forwarding costs one network cycle, plus one more only for
        # the widest groups.
        if config.slices == 1:
            self._operand_hops = 0
        elif config.slices <= 4:
            self._operand_hops = 1
        else:
            self._operand_hops = 2

    def _operand_delay(self, producer_slice: int, consumer_slice: int) -> int:
        if producer_slice == consumer_slice:
            return 0
        return self._operand_hops

    def _prewarm(self, trace: Sequence[MicroOp]) -> None:
        """Install the trace's code footprint (steady-state fetch).

        Install order decides LRU state, so the dedup keeps each code
        address at its first occurrence.
        """
        code = []
        seen = set()
        for op in trace:
            if op.code_address is not None and op.code_address not in seen:
                seen.add(op.code_address)
                code.append(op.code_address)
        if code:
            self.memory.prewarm_code(code)

    def run(self, trace: Sequence[MicroOp]) -> PipelineResult:
        """Execute the trace to completion; returns cycle-level results.

        Runs the per-cycle scalar engine.  Its commit walk finds the
        next op to retire by ``op_id``, so a trace must carry each id in
        ``0..n-1`` exactly once.
        """
        return self._run_reference(trace)

    def _run_reference(self, trace: Sequence[MicroOp]) -> PipelineResult:
        """The scalar reference: one loop iteration per simulated cycle."""
        if not trace:
            raise ValueError("cannot run an empty trace")
        self._prewarm(trace)
        params = self.slice_params
        num_slices = self.config.slices
        window_cap = params.issue_window
        rob_cap = params.rob_size

        in_flight: Dict[int, _InFlightOp] = {}
        last_writer: Dict[int, int] = {}  # global reg -> op_id (rename view)
        rob_occupancy = [0] * num_slices
        window_occupancy = [0] * num_slices
        # Outstanding-load (MSHR) slots are freed when the load's data
        # returns, not at commit — freeing at commit would deadlock: a
        # younger issued load can hold a slot while an older load,
        # still waiting for it, blocks the commit head.
        load_release: List[List[int]] = [[] for _ in range(num_slices)]

        fetch_index = 0
        commit_index = 0
        fetch_stalled_until = 0
        mispredicts = 0
        cycle = 0
        total = len(trace)
        max_cycles = 1000 * total + 100_000  # runaway guard

        while commit_index < total:
            cycle += 1
            if cycle > max_cycles:  # pragma: no cover - defensive
                raise RuntimeError("pipeline failed to make progress")

            for slice_loads in load_release:
                # Rebuilding an empty list is a no-op; only Slices with
                # outstanding loads pay for the prune.
                if slice_loads:
                    slice_loads[:] = [t for t in slice_loads if t > cycle]

            # ---- fetch & rename ------------------------------------
            if cycle >= fetch_stalled_until:
                budget = params.fetch_width * num_slices
                while budget > 0 and fetch_index < total:
                    op = trace[fetch_index]
                    if op.code_address is not None:
                        target = fetch_index % num_slices
                        fetch_result = self.memory.fetch(
                            target, op.code_address
                        )
                        if fetch_result.level != "l1":
                            # Instruction miss: the front end stalls
                            # until the line arrives (it is installed
                            # by this access, so the retry hits).
                            fetch_stalled_until = (
                                cycle + fetch_result.cycles
                            )
                            break
                    producers = tuple(
                        last_writer[reg]
                        for reg in op.sources
                        if reg in last_writer
                    )
                    # Dependence-aware steering with load balance:
                    # place an op with its first in-flight producer
                    # (keeping dependence chains local to avoid
                    # operand-network hops) unless that Slice is
                    # congested, in which case the least-loaded Slice
                    # takes it — independent chains then spread across
                    # the virtual core.
                    slice_id = None
                    for producer_id in producers:
                        producer = in_flight.get(producer_id)
                        if producer is not None:
                            candidate = producer.slice_id
                            if (
                                rob_occupancy[candidate] < rob_cap
                                and window_occupancy[candidate]
                                < max(window_cap // 4, 2)
                            ):
                                slice_id = candidate
                            break
                    if slice_id is None:
                        slice_id = min(
                            range(num_slices),
                            key=lambda s: (
                                window_occupancy[s],
                                rob_occupancy[s],
                            ),
                        )
                    if (
                        rob_occupancy[slice_id] >= rob_cap
                        or window_occupancy[slice_id] >= window_cap
                    ):
                        break
                    in_flight[op.op_id] = _InFlightOp(
                        op=op,
                        slice_id=slice_id,
                        producers=producers,
                        fetched_at=cycle,
                    )
                    if op.dest is not None:
                        last_writer[op.dest] = op.op_id
                    rob_occupancy[slice_id] += 1
                    window_occupancy[slice_id] += 1
                    fetch_index += 1
                    budget -= 1
                    if (
                        not self.dynamic_branches
                        and op.kind is OpKind.BRANCH
                        and op.mispredicted
                    ):
                        # Scripted mode: stop fetching down the wrong
                        # path; resume a redirect-delay after the
                        # branch resolves.
                        fetch_stalled_until = cycle + 10**9
                        break

            # ---- issue & execute -----------------------------------
            for slice_id in range(num_slices):
                alu_free = True
                lsu_free = True
                for entry in sorted(
                    (
                        e
                        for e in in_flight.values()
                        if e.slice_id == slice_id and not e.issued
                    ),
                    key=lambda e: e.op.op_id,
                ):
                    if not alu_free and not lsu_free:
                        break
                    ready = True
                    ready_at = entry.fetched_at
                    for producer_id in entry.producers:
                        producer = in_flight.get(producer_id)
                        if producer is None:
                            continue  # already committed & drained
                        if producer.complete_at is None:
                            ready = False
                            break
                        arrival = producer.complete_at + self._operand_delay(
                            producer.slice_id, entry.slice_id
                        )
                        ready_at = max(ready_at, arrival)
                    if not ready or ready_at > cycle:
                        continue
                    op = entry.op
                    if op.is_memory:
                        if not lsu_free:
                            continue
                        if (
                            op.kind is OpKind.LOAD
                            and len(load_release[slice_id])
                            >= params.max_inflight_loads
                        ):
                            continue
                        result = self.memory.access(
                            slice_id, op.address, op.kind is OpKind.STORE
                        )
                        entry.complete_at = cycle + result.cycles
                        if op.kind is OpKind.LOAD:
                            load_release[slice_id].append(entry.complete_at)
                        self.counters[slice_id].increment(CounterKind.L2_ACCESSES)
                        if result.level == "memory":
                            self.counters[slice_id].increment(
                                CounterKind.L2_MISSES
                            )
                        if result.level != "l1":
                            self.counters[slice_id].increment(
                                CounterKind.L1_MISSES
                            )
                        lsu_free = False
                    else:
                        if not alu_free:
                            continue
                        entry.complete_at = cycle + 1
                        alu_free = False
                        if op.kind is OpKind.BRANCH:
                            self.counters[slice_id].increment(
                                CounterKind.BRANCHES
                            )
                            if (
                                self.dynamic_branches
                                and op.taken is not None
                            ):
                                redirect = self.front_end.resolve(
                                    op.code_address or 0,
                                    op.taken,
                                    op.branch_target or 0,
                                )
                            else:
                                redirect = op.mispredicted
                            if redirect:
                                mispredicts += 1
                                self.counters[slice_id].increment(
                                    CounterKind.BRANCH_MISPREDICTS
                                )
                                fetch_stalled_until = (
                                    cycle + 1 + _FRONT_END_DEPTH
                                )
                    entry.issued = True
                    window_occupancy[slice_id] -= 1

            # ---- commit --------------------------------------------
            commit_budget = params.commit_width * num_slices
            while commit_budget > 0 and commit_index < total:
                entry = in_flight.get(commit_index)
                if (
                    entry is None
                    or entry.complete_at is None
                    or entry.complete_at > cycle
                ):
                    break
                entry.committed = True
                rob_occupancy[entry.slice_id] -= 1
                self.counters[entry.slice_id].increment(
                    CounterKind.INSTRUCTIONS_COMMITTED
                )
                del in_flight[commit_index]
                commit_index += 1
                commit_budget -= 1

            for slice_counters in self.counters:
                slice_counters.increment(CounterKind.CYCLES)

        stats = self.memory.stats()
        return PipelineResult(
            cycles=cycle,
            instructions=total,
            config=self.config,
            l1_hits=stats["l1_hits"],
            l2_hits=stats["l2_hits"],
            l2_misses=stats["l2_misses"],
            mispredicts=mispredicts,
            l1i_misses=stats["l1i_misses"],
        )

    def drain_cycles(self, trace: Sequence[MicroOp]) -> int:
        """Cycles to drain the pipeline once fetch stops (a pipeline
        flush — the cost of Slice expansion, Section VI-A).

        Measured as the tail latency after the last fetch: run the
        trace, then report the front-end depth plus the residual
        commit tail of a typical in-flight window.
        """
        result = self.run(trace)
        tail = min(
            self.slice_params.rob_size // (self.slice_params.commit_width * 4),
            result.cycles,
        )
        return _FRONT_END_DEPTH + tail
