"""Synthetic trace generation from workload phase models.

The paper drives SSim with GEM5 full-system Alpha traces of the
benchmark applications.  Offline we cannot replay those, so this module
synthesizes instruction streams with the same first-order statistics a
phase model specifies: instruction mix (memory references per
instruction, branch fraction), dependency structure targeting the
phase's intrinsic ILP, mispredict rate, and memory reuse matching the
working-set spectrum.  DESIGN.md §2 records this substitution.

:meth:`TraceGenerator.generate` builds :class:`MicroOp` lists with the
scalar reference (``_generate_reference``), one :class:`random.Random`
call per draw.  :meth:`TraceGenerator.generate_arrays`, the cycle
tier's entry, returns the same trace as :class:`TraceArrays` columns.
Its :data:`repro.perf.FAST` path runs ``sim/_tracegen.c``, a C port of
the reference compiled into the :mod:`repro.native` library: it runs
CPython's Mersenne Twister and its ``random()`` / ``getrandbits`` /
``_randbelow`` draws from the state ``self.rng.getstate()`` hands
over, so it consumes the identical RNG stream and emits the identical
columns, and the advanced state goes back into ``self.rng``.  Without
a compiler (or with ``REPRO_NATIVE=0``) the reference runs instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from collections import deque

import numpy as np

from repro import native, perf
from repro.sim.isa import MicroOp, OpKind
from repro.sim.soa import TraceArrays
from repro.workloads.phase import Phase

_BLOCK_BYTES = 64
_HOT_SET_BLOCKS = 96
"""Recently-touched blocks re-accessed to realize the phase's L1 hit
rate: ~96 blocks (6 KB) comfortably fit the 16 KB L1."""

_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class TraceStats:
    """First-order statistics of a generated trace."""

    instructions: int
    loads: int
    stores: int
    branches: int
    mispredicts: int

    @property
    def memory_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return (self.loads + self.stores) / self.instructions


class TraceGenerator:
    """Generates micro-op traces matching a phase's statistics."""

    def __init__(
        self,
        phase: Phase,
        num_registers: int = 128,
        seed: int = 0,
    ) -> None:
        if num_registers < 8:
            raise ValueError(f"need at least 8 registers, got {num_registers}")
        self.phase = phase
        self.num_registers = num_registers
        self.rng = random.Random(seed)
        self._hot_blocks: deque = deque(maxlen=_HOT_SET_BLOCKS)
        self._sweep_position = [0] * len(phase.working_set)
        self._pc = 0
        self._code_blocks = max(
            phase.code_footprint_kb * 1024 // _BLOCK_BYTES, 1
        )
        # Per-branch-address behaviour for dynamic prediction: a "hard"
        # branch is 50/50 (a bimodal predictor misses it half the
        # time); an easy one is strongly taken.  The hard fraction is
        # chosen so the emergent mispredict rate matches the phase's
        # specified rate: m ~= 0.5*f + 0.03*(1-f).
        self._branch_bias: dict = {}
        self._branch_target: dict = {}
        self._hard_fraction = min(
            max((phase.mispredict_rate - 0.03) / 0.47, 0.0), 1.0
        )

    def _code_address(self, is_taken_branch: bool) -> int:
        """The next instruction's address: straight-line code advances
        sequentially through the footprint; a taken branch jumps to a
        random block within it (loops, calls)."""
        if is_taken_branch:
            self._pc = self.rng.randrange(self._code_blocks)
        address = (2 << 40) + self._pc * _BLOCK_BYTES
        # ~16 four-byte instructions per block before advancing.
        if self.rng.random() < 1.0 / 16.0:
            self._pc = (self._pc + 1) % self._code_blocks
        return address

    def _branch_behaviour(self, address: int):
        """(taken, target) for the branch at ``address`` this time."""
        if address not in self._branch_bias:
            hard = self.rng.random() < self._hard_fraction
            self._branch_bias[address] = 0.5 if hard else 0.97
            self._branch_target[address] = (
                (2 << 40) + self.rng.randrange(self._code_blocks) * _BLOCK_BYTES
            )
        taken = self.rng.random() < self._branch_bias[address]
        return taken, self._branch_target[address]

    def _dependency_distance(self) -> int:
        """Distance (in ops) to the producer of a source operand.

        A geometric distribution with mean ≈ the phase's ILP: shorter
        dependencies serialize execution, longer ones expose
        parallelism — this is the standard knob for targeting an ILP
        level in synthetic traces.
        """
        mean = max(self.phase.ilp, 1.0)
        p = 1.0 / (mean + 1.0)
        # Geometric sample (at least 1).
        distance = 1
        while self.rng.random() > p and distance < 64:
            distance += 1
        return distance

    def _address(self) -> int:
        """A memory address with working-set-shaped reuse.

        Two levels of locality: with probability ``1 - l1_miss_rate``
        the access re-touches a recently-used block (temporal locality
        the L1 captures, matching the phase's specified L1 behaviour);
        otherwise it goes to the L2-level working set — with
        probability matching each working-set chunk's share, a block
        inside a region of that chunk's size, the remainder being
        streaming traffic over a very large region.
        """
        if self._hot_blocks and self.rng.random() > self.phase.l1_miss_rate:
            return self.rng.choice(self._hot_blocks)
        address = self._cold_address()
        self._hot_blocks.append(address)
        return address

    def _cold_address(self) -> int:
        """Pick an L2-level address: a cyclic sweep over one of the
        working-set regions, or streaming traffic.

        Sweeping (rather than sampling uniformly) matches the phase
        model's step-capture semantics: a region that fits in the L2
        hits on every revisit after the first sweep, while a region
        larger than the L2 thrashes an LRU cache and captures almost
        nothing — the knee structure behind Fig. 1.
        """
        draw = self.rng.random()
        cumulative = 0.0
        previous_fraction = 0.0
        base = 0
        for index, (size_kb, fraction) in enumerate(self.phase.working_set):
            share = fraction - previous_fraction
            cumulative += share
            if draw < cumulative:
                blocks = max(size_kb * 1024 // _BLOCK_BYTES, 1)
                position = self._sweep_position[index]
                self._sweep_position[index] = (position + 1) % blocks
                return base + position * _BLOCK_BYTES
            previous_fraction = fraction
            base += 1 << 30  # distinct region per chunk
        streaming_blocks = (256 << 20) // _BLOCK_BYTES
        return (1 << 34) + self.rng.randrange(streaming_blocks) * _BLOCK_BYTES

    def generate(self, count: int) -> List[MicroOp]:
        """Generate ``count`` micro-ops (the scalar reference draws)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        return self._generate_reference(count)

    def _generate_reference(self, count: int) -> List[MicroOp]:
        """Scalar reference generator: one ``random.Random`` call per
        draw.  ``sim/_tracegen.c`` must replay this draw sequence
        exactly."""
        ops: List[MicroOp] = []
        for op_id in range(count):
            # The first source is the *critical* dependency, at a
            # geometric distance whose mean sets the trace's data-flow
            # ILP.  A possible second source points much further back
            # (usually already complete), so it widens the data-flow
            # graph without shortening the critical path — with two
            # near dependencies per op, the realized ILP would be
            # E[min(d1, d2)], roughly half the target.
            sources = []
            distance = self._dependency_distance()
            producer = op_id - distance
            if producer >= 0 and ops[producer].dest is not None:
                sources.append(ops[producer].dest)
            else:
                sources.append(self.rng.randrange(self.num_registers))
            if self.rng.random() < 0.6:
                stale = op_id - self.rng.randint(16, 64)
                if stale >= 0 and ops[stale].dest is not None:
                    sources.append(ops[stale].dest)
                else:
                    sources.append(self.rng.randrange(self.num_registers))
            dest = self.rng.randrange(self.num_registers)
            draw = self.rng.random()
            mem_fraction = self.phase.mem_refs_per_inst
            branch_fraction = self.phase.branch_fraction
            is_branch = mem_fraction <= draw < mem_fraction + branch_fraction
            code_address = self._code_address(
                is_taken_branch=is_branch and self.rng.random() < 0.6
            )
            if draw < mem_fraction:
                if self.rng.random() < 0.7:
                    ops.append(
                        MicroOp(
                            op_id=op_id,
                            kind=OpKind.LOAD,
                            sources=tuple(sources[:1]),
                            dest=dest,
                            address=self._address(),
                            code_address=code_address,
                        )
                    )
                else:
                    ops.append(
                        MicroOp(
                            op_id=op_id,
                            kind=OpKind.STORE,
                            sources=tuple(sources),
                            dest=None,
                            address=self._address(),
                            code_address=code_address,
                        )
                    )
            elif is_branch:
                taken, target = self._branch_behaviour(code_address)
                ops.append(
                    MicroOp(
                        op_id=op_id,
                        kind=OpKind.BRANCH,
                        sources=tuple(sources[:1]),
                        dest=None,
                        mispredicted=self.rng.random()
                        < self.phase.mispredict_rate,
                        code_address=code_address,
                        taken=taken,
                        branch_target=target,
                    )
                )
            else:
                ops.append(
                    MicroOp(
                        op_id=op_id,
                        kind=OpKind.ALU,
                        sources=tuple(sources),
                        dest=dest,
                        code_address=code_address,
                    )
                )
        return ops

    def generate_arrays(self, count: int) -> TraceArrays:
        """Generate ``count`` micro-ops directly as :class:`TraceArrays`.

        Semantically identical to ``TraceArrays.from_ops(self.generate
        (count))`` — same RNG draw sequence, same generator state
        afterwards — but the FAST path runs the compiled port straight
        into columns, skipping :class:`MicroOp` construction entirely.
        This is the entry the cycle tier uses, where per-object
        overhead would dominate the whole run.  Without the compiled
        core, or when a value could leave int64, the reference runs.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if perf.FAST:
            core = native.batch_core()
            if core is not None and self._native_fits():
                return self._generate_arrays_native(core, count)
        return TraceArrays.from_ops(self._generate_reference(count))

    def _native_fits(self) -> bool:
        """Whether every value this generator can emit, and every
        parameter the compiled port reads, is an int within int64:
        ``ctypes`` wraps wider ones silently."""
        bounds = [
            self.num_registers,
            (2 << 40) + (self._code_blocks - 1) * _BLOCK_BYTES,
        ]
        for index, (size_kb, _fraction) in enumerate(self.phase.working_set):
            blocks = max(size_kb * 1024 // _BLOCK_BYTES, 1)
            bounds.append((index << 30) + (blocks - 1) * _BLOCK_BYTES)
        return all(isinstance(b, int) and b <= _INT64_MAX for b in bounds)

    def _generate_arrays_native(
        self, core: "native.NativeBatchCore", count: int
    ) -> TraceArrays:
        """FAST twin of the ``from_ops``-over-reference path.

        The compiled port (``sim/_tracegen.c``) replays
        :meth:`_generate_reference` draw for draw on copies of the
        generator state, written back only when it succeeds.  Every
        threshold is computed here with the reference's expressions.
        """
        phase = self.phase
        blocks = []
        shares = []
        cumulative = previous_fraction = 0.0
        for size_kb, fraction in phase.working_set:
            blocks.append(max(size_kb * 1024 // _BLOCK_BYTES, 1))
            cumulative += fraction - previous_fraction
            shares.append(cumulative)
            previous_fraction = fraction
        known = len(self._branch_bias)
        branch_cap = known + min(count, self._code_blocks)
        iparams = [self.num_registers, self._code_blocks, _BLOCK_BYTES]
        iparams += [_HOT_SET_BLOCKS, len(blocks), branch_cap, *blocks]
        fparams = [
            1.0 / (max(phase.ilp, 1.0) + 1.0),
            phase.mem_refs_per_inst,
            phase.mem_refs_per_inst + phase.branch_fraction,
            phase.mispredict_rate,
            phase.l1_miss_rate,
            self._hard_fraction,
            *shares,
        ]
        version, internal, gauss_next = self.rng.getstate()
        scalars = [self._pc, internal[-1], len(self._hot_blocks), known, 0]
        state = np.array(scalars, dtype=np.int64)
        mt_key = np.array(internal[:-1], dtype=np.uint32)
        hot = np.zeros(_HOT_SET_BLOCKS, dtype=np.int64)
        hot[: len(self._hot_blocks)] = list(self._hot_blocks)
        sweep = np.array(self._sweep_position, dtype=np.int64)
        branch_keys = np.zeros(branch_cap, dtype=np.int64)
        branch_bias = np.zeros(branch_cap, dtype=np.float64)
        branch_targets = np.zeros(branch_cap, dtype=np.int64)
        branch_keys[:known] = list(self._branch_bias)
        branch_bias[:known] = list(self._branch_bias.values())
        branch_targets[:known] = [
            self._branch_target[address] for address in self._branch_bias
        ]
        columns = {
            "kinds": np.empty(count, dtype=np.int8),
            "sources": np.empty((count, 2), dtype=np.int64),
            "dests": np.empty(count, dtype=np.int64),
            "addresses": np.empty(count, dtype=np.int64),
            "mispredicted": np.empty(count, dtype=np.bool_),
            "code_addresses": np.empty(count, dtype=np.int64),
            "taken": np.empty(count, dtype=np.int8),
            "branch_targets": np.empty(count, dtype=np.int64),
        }
        status = core.generate_trace(
            count,
            np.array(iparams, dtype=np.int64),
            np.array(fparams, dtype=np.float64),
            state,
            mt_key,
            hot,
            sweep,
            branch_keys,
            branch_bias,
            branch_targets,
            *columns.values(),
        )
        if status != 0:
            raise RuntimeError(
                f"native trace generator failed (status {status}: "
                "allocation failure)"
            )
        pc, mt_index, hot_len, branches, wide = state.tolist()
        self.rng.setstate((version, (*mt_key.tolist(), mt_index), gauss_next))
        self._pc = pc
        self._hot_blocks.clear()
        self._hot_blocks.extend(hot[:hot_len].tolist())
        self._sweep_position[:] = sweep.tolist()
        for address, bias, target in zip(
            branch_keys[known:branches].tolist(),
            branch_bias[known:branches].tolist(),
            branch_targets[known:branches].tolist(),
        ):
            self._branch_bias[address] = bias
            self._branch_target[address] = target
        if not wide:
            # ``from_ops`` sizes the source matrix to the widest op:
            # one column when no op kept a second source.
            columns["sources"] = columns["sources"][:, :1]
        return TraceArrays(**columns)

    @staticmethod
    def stats(ops: List[MicroOp]) -> TraceStats:
        return TraceStats(
            instructions=len(ops),
            loads=sum(op.kind is OpKind.LOAD for op in ops),
            stores=sum(op.kind is OpKind.STORE for op in ops),
            branches=sum(op.kind is OpKind.BRANCH for op in ops),
            mispredicts=sum(op.mispredicted for op in ops),
        )
