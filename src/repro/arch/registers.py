"""Distributed register file and the Register Flush protocol (Fig. 5).

CASH maps *architectural* registers onto *global logical* registers — a
register name space shared by every Slice of a virtual core — while the
actual storage is the per-Slice *local* register file.  A global
register may have copies in several Slices (one per reading Slice), but
exactly one copy is the *primary* one: the copy in the Slice that
originally wrote the value.

When a virtual core shrinks, register state on departing Slices must
reach the survivors.  Only primary writers push their values (over the
Scalar Operand Network, one operand-forwarding message per value);
survivors that already hold a copy simply adopt it, others rename the
value into a free local register.  Because only primaries flush, the
total number of flush messages is bounded by the number of global
logical registers (Section III-B1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.arch.params import SliceParams, DEFAULT_SLICE_PARAMS


class RegisterFlushError(RuntimeError):
    """Raised when a shrink cannot preserve architectural state."""


@dataclass
class _LocalEntry:
    """One local register holding a copy of a global register."""

    global_reg: int
    value: int
    is_primary: bool
    last_use: int = 0


@dataclass(frozen=True)
class FlushRecord:
    """Accounting for one shrink operation.

    ``messages`` is the number of operand-forwarding pushes (one per
    flushed primary value); ``cycles`` is the modelled latency of the
    flush assuming one message per cycle on the Scalar Operand Network;
    ``spills`` counts values that had to go to memory because no
    survivor had a free local register.
    """

    messages: int
    cycles: int
    adopted: int
    renamed: int
    spills: int


class _SliceRegisterFile:
    """The local register file of a single Slice."""

    def __init__(self, slice_id: int, capacity: int) -> None:
        self.slice_id = slice_id
        self.capacity = capacity
        self.entries: Dict[int, _LocalEntry] = {}
        self._rename: Dict[int, int] = {}
        self._clock = 0
        self._next_free = list(range(capacity))

    def _touch(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, global_reg: int) -> Optional[_LocalEntry]:
        local = self._rename.get(global_reg)
        if local is None:
            return None
        return self.entries[local]

    def holds(self, global_reg: int) -> bool:
        return global_reg in self._rename

    def _evict_reader_copy(self) -> Optional[int]:
        """Free a local register holding a non-primary (reader) copy."""
        candidates = [
            (entry.last_use, local)
            for local, entry in self.entries.items()
            if not entry.is_primary
        ]
        if not candidates:
            return None
        _, local = min(candidates)
        victim = self.entries.pop(local)
        del self._rename[victim.global_reg]
        return local

    def allocate(self, global_reg: int, value: int, is_primary: bool) -> bool:
        """Install a copy; return False if no local register is free.

        Reader copies may be silently evicted to make room (they can be
        refetched from the primary writer on demand); primary copies are
        never evicted here.
        """
        existing = self.lookup(global_reg)
        if existing is not None:
            existing.value = value
            existing.is_primary = existing.is_primary or is_primary
            existing.last_use = self._touch()
            return True
        if self._next_free:
            local = self._next_free.pop()
        else:
            local = self._evict_reader_copy()
            if local is None:
                return False
        self.entries[local] = _LocalEntry(
            global_reg=global_reg,
            value=value,
            is_primary=is_primary,
            last_use=self._touch(),
        )
        self._rename[global_reg] = local
        return True

    def drop(self, global_reg: int) -> None:
        local = self._rename.pop(global_reg, None)
        if local is not None:
            del self.entries[local]
            self._next_free.append(local)

    def primaries(self) -> List[_LocalEntry]:
        return [entry for entry in self.entries.values() if entry.is_primary]

    @property
    def live_count(self) -> int:
        return len(self.entries)


class DistributedRegisterFile:
    """Global-register name space distributed over the Slices of a VCore."""

    def __init__(
        self,
        slice_ids: Iterable[int],
        params: SliceParams = DEFAULT_SLICE_PARAMS,
    ) -> None:
        ids = list(slice_ids)
        if not ids:
            raise ValueError("a virtual core needs at least one Slice")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate slice ids: {ids}")
        self.params = params
        self._slices: Dict[int, _SliceRegisterFile] = {
            slice_id: _SliceRegisterFile(slice_id, params.local_registers)
            for slice_id in ids
        }
        self._primary_writer: Dict[int, int] = {}
        self.operand_messages = 0

    @property
    def slice_ids(self) -> List[int]:
        return sorted(self._slices)

    @property
    def num_slices(self) -> int:
        return len(self._slices)

    def _check_global(self, global_reg: int) -> None:
        if not 0 <= global_reg < self.params.physical_registers:
            raise ValueError(
                f"global register {global_reg} outside "
                f"[0, {self.params.physical_registers})"
            )

    def _check_slice(self, slice_id: int) -> _SliceRegisterFile:
        try:
            return self._slices[slice_id]
        except KeyError:
            raise KeyError(f"slice {slice_id} is not part of this VCore") from None

    def write(self, slice_id: int, global_reg: int, value: int) -> None:
        """A Slice writes a global register, becoming its primary writer."""
        self._check_global(global_reg)
        rf = self._check_slice(slice_id)
        if global_reg in self._primary_writer:
            # Any copies elsewhere — the old primary and reader copies —
            # are stale the moment a new value is produced.
            for other_id, other in self._slices.items():
                if other_id != slice_id:
                    other.drop(global_reg)
        if not rf.allocate(global_reg, value, is_primary=True):
            raise RegisterFlushError(
                f"slice {slice_id} has no free local register for a write "
                f"to gr{global_reg}"
            )
        self._primary_writer[global_reg] = slice_id

    def read(self, slice_id: int, global_reg: int) -> int:
        """A Slice reads a global register, fetching a copy if needed.

        Remote fetches cost one request/reply exchange on the Scalar
        Operand Network (counted in :attr:`operand_messages`).
        """
        self._check_global(global_reg)
        rf = self._check_slice(slice_id)
        entry = rf.lookup(global_reg)
        if entry is not None:
            entry.last_use = rf._touch()
            return entry.value
        writer = self._primary_writer.get(global_reg)
        if writer is None:
            raise KeyError(f"gr{global_reg} has never been written")
        value = self._slices[writer].lookup(global_reg).value
        self.operand_messages += 1
        rf.allocate(global_reg, value, is_primary=False)
        return value

    def value_of(self, global_reg: int) -> int:
        """Architectural value of a global register (from its primary)."""
        writer = self._primary_writer.get(global_reg)
        if writer is None:
            raise KeyError(f"gr{global_reg} has never been written")
        return self._slices[writer].lookup(global_reg).value

    def live_globals(self) -> Set[int]:
        return set(self._primary_writer)

    def primary_writer(self, global_reg: int) -> Optional[int]:
        return self._primary_writer.get(global_reg)

    def architectural_state(self) -> Dict[int, int]:
        """Snapshot of every live global register's value."""
        return {gr: self.value_of(gr) for gr in self._primary_writer}

    def expand(self, new_slice_ids: Iterable[int]) -> None:
        """Add Slices to the VCore.  New Slices start with empty files."""
        for slice_id in new_slice_ids:
            if slice_id in self._slices:
                raise ValueError(f"slice {slice_id} already in the VCore")
            self._slices[slice_id] = _SliceRegisterFile(
                slice_id, self.params.local_registers
            )

    def shrink(self, survivor_ids: Iterable[int]) -> FlushRecord:
        """Shrink the VCore to ``survivor_ids``, flushing register state.

        Implements the protocol of Fig. 5: every departing Slice asks,
        per local entry, "am I a primary writer and not a survivor?" and
        pushes the value if so.  Each receiving survivor asks "is the
        value already there?" — adopting the existing copy as primary if
        so, renaming into a free local register otherwise.  Values that
        fit nowhere spill to memory (counted, and costed at the memory
        delay), preserving architectural state unconditionally.
        """
        survivors = sorted(set(survivor_ids))
        if not survivors:
            raise ValueError("a shrink must leave at least one survivor")
        missing = [s for s in survivors if s not in self._slices]
        if missing:
            raise KeyError(f"survivors not in the VCore: {missing}")
        departing = [s for s in self.slice_ids if s not in survivors]

        messages = 0
        adopted = 0
        renamed = 0
        spills = 0
        spilled_values: Dict[int, int] = {}

        for slice_id in departing:
            rf = self._slices[slice_id]
            for entry in rf.primaries():
                # ① Am I a primary writer and not a survivor? ② Push.
                messages += 1
                global_reg = entry.global_reg
                placed = False
                # Prefer a survivor that already holds a (reader) copy:
                # it only needs to re-mark the copy as primary (Fig. 5,
                # "is the value already there?").
                for survivor in survivors:
                    target = self._slices[survivor].lookup(global_reg)
                    if target is not None:
                        target.is_primary = True
                        target.value = entry.value
                        self._primary_writer[global_reg] = survivor
                        adopted += 1
                        placed = True
                        break
                if placed:
                    continue
                # ③ Rename the register and save the pushed value.
                for survivor in survivors:
                    if self._slices[survivor].allocate(
                        global_reg, entry.value, is_primary=True
                    ):
                        self._primary_writer[global_reg] = survivor
                        renamed += 1
                        placed = True
                        break
                if not placed:
                    spilled_values[global_reg] = entry.value
                    spills += 1

        for slice_id in departing:
            del self._slices[slice_id]
        for global_reg in spilled_values:
            # Architecturally the value now lives in memory; the name
            # space still records it so reads can refill it on demand.
            self._primary_writer.pop(global_reg, None)

        self.operand_messages += messages
        cycles = messages + spills * self.params.memory_delay
        if messages > self.params.physical_registers:
            raise RegisterFlushError(
                f"flush count {messages} exceeded the global register "
                f"bound {self.params.physical_registers}"
            )
        return FlushRecord(
            messages=messages,
            cycles=cycles,
            adopted=adopted,
            renamed=renamed,
            spills=spills,
        )
