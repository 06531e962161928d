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
tier's entry, returns the same trace as :class:`TraceArrays` columns
and has a :data:`repro.perf.FAST` twin (``_decode_fields``): it syncs a
``numpy`` MT19937 bit generator to the *same* Mersenne Twister state,
pulls raw 32-bit words in bulk, and decodes CPython's ``random()`` /
``getrandbits`` layouts from that word stream — so it consumes the
identical RNG stream and emits the identical columns, then writes the
advanced state back into ``self.rng``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from collections import deque

import numpy as np

from repro import perf
from repro.analysis import sanitize
from repro.sim.isa import MicroOp, OpKind
from repro.sim.soa import TraceArrays
from repro.workloads.phase import Phase

_BLOCK_BYTES = 64
_HOT_SET_BLOCKS = 96
"""Recently-touched blocks re-accessed to realize the phase's L1 hit
rate: ~96 blocks (6 KB) comfortably fit the 16 KB L1."""

_RAW_BLOCK = 1 << 16
"""Raw 32-bit MT words pulled per ``random_raw`` batch in the fast
generator."""

_RAW_MARGIN = 1 << 12
"""Headroom kept in the word buffer so one op's draws never run off the
end between refills (an op needs at most a few hundred words)."""

_RECIP_53 = 1.0 / 9007199254740992.0
"""``2**-53`` — the scale CPython's ``random()`` applies to its 53-bit
mantissa built from two MT output words."""

_FLOAT_WORD_BITS = 27
"""Top bits of MT word ``i`` that the decoded float at position ``i``
carries; a ``_randbelow(n)`` draw wider than this cannot be read off
it."""


class _WordStream:
    """CPython-compatible draws decoded from a numpy MT19937 core.

    ``random.Random`` and ``numpy.random.MT19937`` share the Mersenne
    Twister state layout (624-word key + position), and numpy's
    ``random_raw`` yields exactly the 32-bit output words CPython's
    ``getrandbits(32)`` consumes.  This class syncs numpy to the
    CPython state, batches the raw words, and reimplements the two
    derived draws the trace generator uses:

    * ``random()`` — two words ``a, b``; value is
      ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` (the batch refill
      precomputes this for every adjacent word pair, vectorized);
    * ``_randbelow(n)`` — top ``n.bit_length()`` bits of one word,
      rejection-sampled until ``< n``; recovered as
      ``int(floats[i] * 2**53) >> (53 - k)``, since the precomputed
      float at position ``i`` carries the top 27 bits of word ``i`` in
      its mantissa.  The trace generator takes its scalar path when a
      draw would need more than :data:`_FLOAT_WORD_BITS` bits.

    ``resync`` replays the consumed words on a fresh clone and writes
    the resulting state back into the ``random.Random`` instance, so a
    scalar draw after a fast batch continues the same stream.
    """

    __slots__ = (
        "_state",
        "_bitgen",
        "_checkpoints",
        "_raw",
        "size",
        "floats",
        "cursor",
        "_drawn",
    )

    def __init__(self, state: tuple) -> None:
        self._state = state
        internal = state[1]
        bitgen = np.random.MT19937()
        bitgen.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.asarray(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }
        self._bitgen = bitgen
        # (state, words drawn so far) snapshots taken before each raw
        # block, so resync only replays the tail of the stream.  The
        # final consumed word can sit up to one carry (< _RAW_MARGIN)
        # before the last snapshot, hence two are kept.
        self._checkpoints = [(bitgen.state, 0)]
        self._raw = bitgen.random_raw(_RAW_BLOCK)
        self._drawn = _RAW_BLOCK
        self.cursor = 0
        self._decode()

    def _decode(self) -> None:
        raw = self._raw
        self.size = int(raw.shape[0])
        self.floats = (
            ((raw[:-1] >> 5) * 67108864.0 + (raw[1:] >> 6)) * _RECIP_53
        ).tolist()

    def _verify_checkpoints(self) -> None:
        """Sanitizer: replaying the older checkpoint must reproduce the
        newer one word-for-word (otherwise resync would silently land
        the CPython RNG on the wrong word)."""
        (old_state, old_pos), (new_state, new_pos) = self._checkpoints
        clone = np.random.MT19937()
        clone.state = old_state
        if new_pos > old_pos:
            clone.random_raw(new_pos - old_pos)
        replayed = clone.state["state"]
        recorded = new_state["state"]
        if int(replayed["pos"]) != int(recorded["pos"]) or not np.array_equal(
            replayed["key"], recorded["key"]
        ):
            sanitize.violation(
                "rng-checkpoint",
                "repro.sim.trace._WordStream",
                "refill",
                f"checkpoint replay of {new_pos - old_pos} words from "
                f"word {old_pos} does not reach the recorded state at "
                f"word {new_pos}",
            )

    def refill(self) -> None:
        """Extend the buffer, carrying over unconsumed words."""
        self._checkpoints = [
            self._checkpoints[-1],
            (self._bitgen.state, self._drawn),
        ]
        if sanitize.ENABLED:
            self._verify_checkpoints()
        fresh = self._bitgen.random_raw(_RAW_BLOCK)
        self._drawn += _RAW_BLOCK
        self._raw = np.concatenate((self._raw[self.cursor :], fresh))
        self.cursor = 0
        self._decode()

    @property
    def limit(self) -> int:
        return self.size - _RAW_MARGIN

    def consumed(self) -> int:
        return self._drawn - (self.size - self.cursor)

    def resync(self, rng: random.Random) -> None:
        """Advance ``rng`` past every word consumed from this stream."""
        used = self.consumed()
        for snapshot, position in reversed(self._checkpoints):
            if position <= used:
                break
        bitgen = np.random.MT19937()
        bitgen.state = snapshot
        if used > position:
            bitgen.random_raw(used - position)
        final = bitgen.state["state"]
        key = tuple(int(word) for word in final["key"])
        rng.setstate(
            (self._state[0], key + (int(final["pos"]),), self._state[2])
        )
        if sanitize.ENABLED and self.cursor < self.size - 1:
            # The handed-back RNG's next float must be the stream's next
            # undrawn float — proves the word-position arithmetic (and
            # the checkpoint it replayed from) is exact.
            probe = random.Random()
            probe.setstate(rng.getstate())
            expected = self.floats[self.cursor]
            actual = probe.random()
            if actual != expected:
                sanitize.violation(
                    "rng-checkpoint",
                    "repro.sim.trace._WordStream",
                    "resync",
                    f"after resync at word {used} the CPython RNG draws "
                    f"{actual!r} but the word stream holds {expected!r}",
                )


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
        draw.  ``_decode_fields`` must replay this draw sequence
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
        afterwards — but the FAST path decodes straight into columns,
        skipping :class:`MicroOp` construction entirely.  This is the
        entry the cycle tier uses, where per-object overhead would
        dominate the whole run.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if perf.FAST:
            return self._generate_arrays_fast(count)
        return TraceArrays.from_ops(self._generate_reference(count))

    def _generate_arrays_fast(self, count: int) -> TraceArrays:
        """FAST twin of the ``from_ops``-over-reference path.

        Decodes from a synced word stream and writes back PC / hot set /
        RNG state only on success.  The scalar path runs instead when a
        register or code-block draw is wider than a decoded float
        carries, or when one op overruns the refill margin.
        """
        widest = max(self.num_registers, self._code_blocks).bit_length()
        if widest > _FLOAT_WORD_BITS:
            return TraceArrays.from_ops(self._generate_reference(count))
        stream = _WordStream(self.rng.getstate())
        try:
            columns, pc, hot = self._decode_fields(count, stream)
        except IndexError:  # pragma: no cover - needs ~4096-word op
            return TraceArrays.from_ops(self._generate_reference(count))
        self._pc = pc
        self._hot_blocks.clear()
        self._hot_blocks.extend(hot)
        stream.resync(self.rng)
        (kinds, src0, src1, dest, addr, mis, code, taken, target) = columns
        # ``from_ops`` sizes the source matrix to the widest op, so the
        # fast path must shrink to one column when no op drew a second
        # source (possible for tiny counts).
        if max(src1) >= 0:
            sources = np.stack(
                [
                    np.array(src0, dtype=np.int64),
                    np.array(src1, dtype=np.int64),
                ],
                axis=1,
            )
        else:
            sources = np.array(src0, dtype=np.int64).reshape(-1, 1)
        return TraceArrays(
            kinds=np.array(kinds, dtype=np.int8),
            sources=sources,
            dests=np.array(dest, dtype=np.int64),
            addresses=np.array(addr, dtype=np.int64),
            mispredicted=np.array(mis, dtype=np.bool_),
            code_addresses=np.array(code, dtype=np.int64),
            taken=np.array(taken, dtype=np.int8),
            branch_targets=np.array(target, dtype=np.int64),
        )

    def _decode_fields(self, count: int, stream: _WordStream):
        """Decode ``count`` ops from ``stream`` into columns.

        Replays :meth:`_generate_reference` draw for draw, but each op
        appends nine scalar column entries (kind code, two sources,
        dest, address, mispredict, code address, taken, branch target —
        ``-1`` for ``None``) instead of building a :class:`MicroOp`.
        Returns ``(columns, pc, hot)``.  Every piece of generator state
        is mirrored locally; the sweep and branch tables are written
        back just before returning and the rest is handed to the
        caller, so an aborted decode leaves ``self`` untouched.
        """
        phase = self.phase
        mem_fraction = phase.mem_refs_per_inst
        branch_cut = mem_fraction + phase.branch_fraction
        mispredict_rate = phase.mispredict_rate
        l1_miss_rate = phase.l1_miss_rate
        num_registers = self.num_registers
        reg_shift = 53 - num_registers.bit_length()
        code_blocks = self._code_blocks
        code_shift = 53 - code_blocks.bit_length()
        hard_fraction = self._hard_fraction
        bias = dict(self._branch_bias)
        branch_target = dict(self._branch_target)
        sweep = list(self._sweep_position)
        working_set = phase.working_set
        region_blocks = [
            max(size_kb * 1024 // _BLOCK_BYTES, 1)
            for size_kb, _fraction in working_set
        ]
        streaming_blocks = (256 << 20) // _BLOCK_BYTES
        pc = self._pc
        hot = list(self._hot_blocks)
        mean = max(phase.ilp, 1.0)
        p_geo = 1.0 / (mean + 1.0)
        code_base = 2 << 40
        block_bytes = _BLOCK_BYTES
        hot_cap = _HOT_SET_BLOCKS

        floats = stream.floats
        cursor = stream.cursor
        limit = stream.limit

        kinds_col: List[int] = []
        src0_col: List[int] = []
        src1_col: List[int] = []
        dest_col: List[int] = []
        addr_col: List[int] = []
        mis_col: List[bool] = []
        code_col: List[int] = []
        taken_col: List[int] = []
        target_col: List[int] = []
        append_kind = kinds_col.append
        append_src0 = src0_col.append
        append_src1 = src1_col.append
        append_dest = dest_col.append
        append_addr = addr_col.append
        append_mis = mis_col.append
        append_code = code_col.append
        append_taken = taken_col.append
        append_target = target_col.append

        for op_id in range(count):
            if cursor > limit:
                stream.cursor = cursor
                stream.refill()
                floats = stream.floats
                cursor = stream.cursor
                limit = stream.limit
            # _dependency_distance: geometric via repeated random().
            distance = 1
            value = floats[cursor]
            cursor += 2
            while value > p_geo and distance < 64:
                distance += 1
                value = floats[cursor]
                cursor += 2
            producer = op_id - distance
            src0 = dest_col[producer] if producer >= 0 else -1
            if src0 < 0:
                # randrange(num_registers): top-bits rejection sample.
                src0 = int(floats[cursor] * 9007199254740992.0) >> reg_shift
                cursor += 1
                while src0 >= num_registers:
                    src0 = int(floats[cursor] * 9007199254740992.0) >> reg_shift
                    cursor += 1
            src1 = -1
            value = floats[cursor]
            cursor += 2
            if value < 0.6:
                # randint(16, 64) == 16 + _randbelow(49).
                step = int(floats[cursor] * 9007199254740992.0) >> 47
                cursor += 1
                while step >= 49:
                    step = int(floats[cursor] * 9007199254740992.0) >> 47
                    cursor += 1
                stale = op_id - 16 - step
                back = dest_col[stale] if stale >= 0 else -1
                if back < 0:
                    back = int(floats[cursor] * 9007199254740992.0) >> reg_shift
                    cursor += 1
                    while back >= num_registers:
                        back = int(floats[cursor] * 9007199254740992.0) >> reg_shift
                        cursor += 1
                src1 = back
            dest = int(floats[cursor] * 9007199254740992.0) >> reg_shift
            cursor += 1
            while dest >= num_registers:
                dest = int(floats[cursor] * 9007199254740992.0) >> reg_shift
                cursor += 1
            draw = floats[cursor]
            cursor += 2
            # Triage ordered by frequency (ALU usually dominates); the
            # _code_address taken-branch draw only happens for
            # branches, exactly like the reference's short-circuit.
            if draw >= branch_cut:
                # ALU op.
                code_address = code_base + pc * block_bytes
                value = floats[cursor]
                cursor += 2
                if value < 1.0 / 16.0:
                    pc = (pc + 1) % code_blocks
                append_kind(0)
                append_src0(src0)
                append_src1(src1)
                append_dest(dest)
                append_addr(-1)
                append_mis(False)
                append_code(code_address)
                append_taken(-1)
                append_target(-1)
            elif draw < mem_fraction:
                code_address = code_base + pc * block_bytes
                value = floats[cursor]
                cursor += 2
                if value < 1.0 / 16.0:
                    pc = (pc + 1) % code_blocks
                value = floats[cursor]
                cursor += 2
                is_load = value < 0.7
                # _address: hot-set re-touch or cold sweep.
                address = -1
                if hot:
                    value = floats[cursor]
                    cursor += 2
                    if value > l1_miss_rate:
                        # choice(hot): _randbelow(len(hot)).
                        size = len(hot)
                        shift = 53 - size.bit_length()
                        pick = int(floats[cursor] * 9007199254740992.0) >> shift
                        cursor += 1
                        while pick >= size:
                            pick = int(floats[cursor] * 9007199254740992.0) >> shift
                            cursor += 1
                        address = hot[pick]
                if address < 0:
                    # _cold_address: working-set sweep or streaming.
                    value = floats[cursor]
                    cursor += 2
                    cumulative = 0.0
                    previous_fraction = 0.0
                    base = 0
                    for index, (_size_kb, fraction) in enumerate(working_set):
                        cumulative += fraction - previous_fraction
                        if value < cumulative:
                            blocks = region_blocks[index]
                            position = sweep[index]
                            sweep[index] = (position + 1) % blocks
                            address = base + position * block_bytes
                            break
                        previous_fraction = fraction
                        base += 1 << 30
                    else:
                        block = int(floats[cursor] * 9007199254740992.0) >> 30
                        cursor += 1
                        while block >= streaming_blocks:
                            block = int(floats[cursor] * 9007199254740992.0) >> 30
                            cursor += 1
                        address = (1 << 34) + block * block_bytes
                    hot.append(address)
                    if len(hot) > hot_cap:
                        del hot[0]
                if is_load:
                    append_kind(1)
                    append_src0(src0)
                    append_src1(-1)
                    append_dest(dest)
                else:
                    append_kind(2)
                    append_src0(src0)
                    append_src1(src1)
                    append_dest(-1)
                append_addr(address)
                append_mis(False)
                append_code(code_address)
                append_taken(-1)
                append_target(-1)
            else:
                # Branch: a taken branch may jump the PC before the
                # code address is formed (_code_address).
                value = floats[cursor]
                cursor += 2
                if value < 0.6:
                    pc = int(floats[cursor] * 9007199254740992.0) >> code_shift
                    cursor += 1
                    while pc >= code_blocks:
                        pc = int(floats[cursor] * 9007199254740992.0) >> code_shift
                        cursor += 1
                code_address = code_base + pc * block_bytes
                value = floats[cursor]
                cursor += 2
                if value < 1.0 / 16.0:
                    pc = (pc + 1) % code_blocks
                # _branch_behaviour: first visit fixes bias + target.
                branch_bias = bias.get(code_address)
                if branch_bias is None:
                    value = floats[cursor]
                    cursor += 2
                    branch_bias = 0.5 if value < hard_fraction else 0.97
                    bias[code_address] = branch_bias
                    block = int(floats[cursor] * 9007199254740992.0) >> code_shift
                    cursor += 1
                    while block >= code_blocks:
                        block = int(floats[cursor] * 9007199254740992.0) >> code_shift
                        cursor += 1
                    branch_target[code_address] = (
                        code_base + block * block_bytes
                    )
                value = floats[cursor]
                cursor += 2
                taken = value < branch_bias
                value = floats[cursor]
                cursor += 2
                append_kind(3)
                append_src0(src0)
                append_src1(-1)
                append_dest(-1)
                append_addr(-1)
                append_mis(value < mispredict_rate)
                append_code(code_address)
                append_taken(1 if taken else 0)
                append_target(branch_target[code_address])
        stream.cursor = cursor
        self._sweep_position[:] = sweep
        self._branch_bias.update(bias)
        self._branch_target.update(branch_target)
        columns = (
            kinds_col,
            src0_col,
            src1_col,
            dest_col,
            addr_col,
            mis_col,
            code_col,
            taken_col,
            target_col,
        )
        return columns, pc, hot

    @staticmethod
    def stats(ops: List[MicroOp]) -> TraceStats:
        return TraceStats(
            instructions=len(ops),
            loads=sum(op.kind is OpKind.LOAD for op in ops),
            stores=sum(op.kind is OpKind.STORE for op in ops),
            branches=sum(op.kind is OpKind.BRANCH for op in ops),
            mispredicts=sum(op.mispredicted for op in ops),
        )
