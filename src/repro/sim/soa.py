"""Struct-of-arrays trace encoding for the batch cycle tier.

:class:`TraceArrays` re-encodes a ``List[MicroOp]`` as one frozen
bundle of per-field numpy columns so many pipeline cells can share a
pooled, C-contiguous trace buffer (see :mod:`repro.sim.batchpipe`).
``None`` is encoded as ``-1`` throughout (registers, addresses and
code addresses are non-negative by :class:`repro.sim.isa.MicroOp`
validation, so the sentinel is unambiguous); ``taken`` is a ternary
``int8`` (``-1`` = None, ``0`` = False, ``1`` = True).  Op ids are not
stored: op ``i`` is the op with ``op_id == i``, and ``from_ops`` rejects
any other trace.  The encoding is lossless:
``TraceArrays.from_ops(ops).to_ops() == ops``.

All arrays are sealed (``writeable=False``) at construction, matching
the engine-wide frozen-publish discipline, so a bundle can be shared
across cells and threads without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import perf
from repro.sim.isa import MicroOp, OpKind

#: Stable kind codes used by the SoA encoding and the native batch
#: kernel (``sim/_batchcore.c``) alike.  Do not reorder.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3

_KIND_TO_CODE = {
    OpKind.ALU: KIND_ALU,
    OpKind.LOAD: KIND_LOAD,
    OpKind.STORE: KIND_STORE,
    OpKind.BRANCH: KIND_BRANCH,
}
_CODE_TO_KIND = (OpKind.ALU, OpKind.LOAD, OpKind.STORE, OpKind.BRANCH)


def _sealed(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def ordered_unique(code_addresses: np.ndarray) -> np.ndarray:
    """Distinct non-negative values in first-occurrence order.

    The vectorized dedup the prewarm paths share: ``np.unique`` sorts
    by value but reports each value's first index, so re-sorting those
    indices restores trace order — the order cache installation (and
    therefore LRU state) depends on.
    """
    present = code_addresses[code_addresses >= 0]
    _, first = np.unique(present, return_index=True)
    return _sealed(present[np.sort(first)])


@dataclass(frozen=True)
class TraceArrays:
    """Frozen per-field column encoding of a micro-op trace.

    ``sources`` is ``(n, width)`` with ``-1`` padding on the right;
    every other column is ``(n,)``.  ``dests``, ``addresses``,
    ``code_addresses`` and ``branch_targets`` use ``-1`` for ``None``;
    ``taken`` uses ``-1``/``0``/``1`` for ``None``/``False``/``True``.
    """

    kinds: np.ndarray
    sources: np.ndarray
    dests: np.ndarray
    addresses: np.ndarray
    mispredicted: np.ndarray
    code_addresses: np.ndarray
    taken: np.ndarray
    branch_targets: np.ndarray

    def __post_init__(self) -> None:
        n = self.kinds.shape[0]
        columns = {
            "kinds": (self.kinds, np.int8),
            "sources": (self.sources, np.int64),
            "dests": (self.dests, np.int64),
            "addresses": (self.addresses, np.int64),
            "mispredicted": (self.mispredicted, np.bool_),
            "code_addresses": (self.code_addresses, np.int64),
            "taken": (self.taken, np.int8),
            "branch_targets": (self.branch_targets, np.int64),
        }
        for name, (array, dtype) in columns.items():
            expected_ndim = 2 if name == "sources" else 1
            if array.ndim != expected_ndim or array.shape[0] != n:
                raise ValueError(
                    f"{name}: expected shape ({n},"
                    f"{' width)' if expected_ndim == 2 else ')'} got "
                    f"{array.shape}"
                )
            normalized = np.ascontiguousarray(array, dtype=dtype)
            object.__setattr__(self, name, _sealed(normalized))

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def source_width(self) -> int:
        return int(self.sources.shape[1])

    @property
    def is_memory(self) -> np.ndarray:
        """``int8`` mask: 1 for loads and stores."""
        mask = (self.kinds == KIND_LOAD) | (self.kinds == KIND_STORE)
        return _sealed(mask.astype(np.int8))

    # ------------------------------------------------------------------
    # MicroOp round trip
    # ------------------------------------------------------------------

    @classmethod
    def from_ops(cls, ops: Sequence[MicroOp]) -> "TraceArrays":
        """Encode ``ops`` losslessly; ``to_ops`` inverts exactly.

        Raises :class:`ValueError` unless every op's ``op_id`` equals
        its position, since the columns keep positions, not ids.
        """
        n = len(ops)
        width = 1
        for op in ops:
            if len(op.sources) > width:
                width = len(op.sources)
        kinds = np.empty(n, dtype=np.int8)
        sources = np.full((n, width), -1, dtype=np.int64)
        dests = np.empty(n, dtype=np.int64)
        addresses = np.empty(n, dtype=np.int64)
        mispredicted = np.empty(n, dtype=np.bool_)
        code_addresses = np.empty(n, dtype=np.int64)
        taken = np.empty(n, dtype=np.int8)
        branch_targets = np.empty(n, dtype=np.int64)
        kind_code = _KIND_TO_CODE
        for i, op in enumerate(ops):
            if op.op_id != i:
                raise ValueError(
                    f"op at position {i} has op_id {op.op_id}; "
                    "TraceArrays needs op ids 0..n-1 in trace order"
                )
            kinds[i] = kind_code[op.kind]
            for col, reg in enumerate(op.sources):
                sources[i, col] = reg
            dests[i] = -1 if op.dest is None else op.dest
            addresses[i] = -1 if op.address is None else op.address
            mispredicted[i] = op.mispredicted
            code_addresses[i] = (
                -1 if op.code_address is None else op.code_address
            )
            taken[i] = -1 if op.taken is None else int(op.taken)
            branch_targets[i] = (
                -1 if op.branch_target is None else op.branch_target
            )
        return cls(
            kinds=kinds,
            sources=sources,
            dests=dests,
            addresses=addresses,
            mispredicted=mispredicted,
            code_addresses=code_addresses,
            taken=taken,
            branch_targets=branch_targets,
        )

    def to_ops(self) -> List[MicroOp]:
        """Decode back to validated :class:`MicroOp` objects."""
        kinds = self.kinds.tolist()
        sources = self.sources.tolist()
        dests = self.dests.tolist()
        addresses = self.addresses.tolist()
        mispredicted = self.mispredicted.tolist()
        code_addresses = self.code_addresses.tolist()
        taken = self.taken.tolist()
        branch_targets = self.branch_targets.tolist()
        ops: List[MicroOp] = []
        for i in range(len(kinds)):
            srcs = tuple(reg for reg in sources[i] if reg >= 0)
            ops.append(
                MicroOp(
                    op_id=i,
                    kind=_CODE_TO_KIND[kinds[i]],
                    sources=srcs,
                    dest=None if dests[i] < 0 else dests[i],
                    address=None if addresses[i] < 0 else addresses[i],
                    mispredicted=mispredicted[i],
                    code_address=(
                        None if code_addresses[i] < 0 else code_addresses[i]
                    ),
                    taken=None if taken[i] < 0 else bool(taken[i]),
                    branch_target=(
                        None if branch_targets[i] < 0 else branch_targets[i]
                    ),
                )
            )
        return ops

    # ------------------------------------------------------------------
    # Derived columns for the batch kernel
    # ------------------------------------------------------------------

    def unique_code_addresses(self) -> np.ndarray:
        """Distinct code addresses in first-occurrence order.

        This is the prewarm working set (`None` entries excluded); the
        order matters because cache installation order decides LRU
        state, so both paths preserve it exactly.
        """
        if perf.FAST:
            return self._unique_code_addresses_fast()
        return self._unique_code_addresses_reference()

    def _unique_code_addresses_reference(self) -> np.ndarray:
        seen = set()
        out: List[int] = []
        for address in self.code_addresses.tolist():
            if address >= 0 and address not in seen:
                seen.add(address)
                out.append(address)
        return _sealed(np.array(out, dtype=np.int64))

    def _unique_code_addresses_fast(self) -> np.ndarray:
        return ordered_unique(self.code_addresses)

    def rename_producers(self, width: Optional[int] = None) -> np.ndarray:
        """Per-op in-flight producer indices, ``(n, width)`` ``-1``-padded.

        Entry ``(i, k)`` is the op index of the most recent earlier
        writer of op ``i``'s ``k``-th *resolvable* source register —
        sources whose register has no earlier writer are skipped and
        the found producers are packed left, mirroring the pipeline's
        rename stage.
        """
        if width is None:
            width = self.source_width
        if perf.FAST:
            return self._rename_producers_fast(width)
        return self._rename_producers_reference(width)

    def _rename_producers_reference(self, width: int) -> np.ndarray:
        n = len(self)
        producers = np.full((n, width), -1, dtype=np.int64)
        sources = self.sources.tolist()
        dests = self.dests.tolist()
        last_writer: dict = {}
        for i in range(n):
            col = 0
            for reg in sources[i]:
                if reg < 0:
                    continue
                writer = last_writer.get(reg)
                if writer is not None:
                    if col >= width:
                        raise ValueError(
                            f"op {i}: more than {width} producers"
                        )
                    producers[i, col] = writer
                    col += 1
            dest = dests[i]
            if dest >= 0:
                last_writer[dest] = i
        return _sealed(producers)

    def _rename_producers_fast(self, width: int) -> np.ndarray:
        n = len(self)
        if n == 0:
            return _sealed(np.full((0, width), -1, dtype=np.int64))
        dests = self.dests
        writer_idx = np.nonzero(dests >= 0)[0]
        if writer_idx.shape[0] == 0:
            return _sealed(np.full((n, width), -1, dtype=np.int64))
        # Combo key (reg, writer index) packed into one int64; writer
        # indices are already ascending within each register, and
        # np.sort groups by register, so a right-bisect of
        # ``reg * (n + 1) + (i - 1)`` lands on the most recent writer
        # of ``reg`` strictly before op ``i``.
        stride = np.int64(n + 1)
        combo = np.sort(dests[writer_idx] * stride + writer_idx)
        found = np.full((n, self.source_width), -1, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64)
        for col in range(self.source_width):
            regs = self.sources[:, col]
            valid = regs >= 0
            query = regs * stride + (rows - 1)
            slot = np.searchsorted(combo, query, side="right") - 1
            hit = valid & (slot >= 0)
            candidate = combo[np.where(hit, slot, 0)]
            hit &= (candidate // stride) == regs
            found[:, col] = np.where(hit, candidate % stride, -1)
        # Pack found producers left (stable: preserves source order).
        order = np.argsort(found < 0, axis=1, kind="stable")
        packed = np.take_along_axis(found, order, axis=1)
        if packed.shape[1] > width:
            if np.any(packed[:, width:] >= 0):
                raise ValueError(f"more than {width} producers")
            packed = packed[:, :width]
        elif packed.shape[1] < width:
            pad = np.full((n, width - packed.shape[1]), -1, dtype=np.int64)
            packed = np.concatenate([packed, pad], axis=1)
        return _sealed(np.ascontiguousarray(packed))
