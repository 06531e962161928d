"""Micro-op ISA for the trace-driven cycle tier.

SSim is trace driven (the paper drives it with GEM5 full-system Alpha
traces; we drive it with synthetic traces generated from the workload
phase models, see :mod:`repro.sim.trace`).  A trace is a sequence of
micro-ops over the global logical register namespace of the
distributed register file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class OpKind(enum.Enum):
    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


@dataclass(frozen=True)
class MicroOp:
    """One instruction of the synthetic trace.

    Registers are global logical register indices (the name space the
    distributed register file renames into per-Slice local registers).
    ``address`` is a byte address for memory operations.
    """

    op_id: int
    kind: OpKind
    sources: Tuple[int, ...] = ()
    dest: Optional[int] = None
    address: Optional[int] = None
    mispredicted: bool = False
    code_address: Optional[int] = None
    """Instruction address, for L1I modelling (None = assume resident)."""

    taken: Optional[bool] = None
    """Actual branch direction, for dynamic prediction (None = use the
    scripted ``mispredicted`` flag)."""

    branch_target: Optional[int] = None
    """Actual branch target address (for the BTB)."""

    def __post_init__(self) -> None:
        if self.op_id < 0:
            raise ValueError(f"op_id must be non-negative, got {self.op_id}")
        if self.kind in (OpKind.LOAD, OpKind.STORE) and self.address is None:
            raise ValueError(f"{self.kind.value} op needs an address")
        if self.kind is OpKind.LOAD and self.dest is None:
            raise ValueError("load needs a destination register")
        if self.mispredicted and self.kind is not OpKind.BRANCH:
            raise ValueError("only branches can be mispredicted")
        if self.taken is not None and self.kind is not OpKind.BRANCH:
            raise ValueError("only branches have a direction")
        for reg in self.sources:
            if reg < 0:
                raise ValueError(f"negative source register {reg}")
        if self.dest is not None and self.dest < 0:
            raise ValueError(f"negative dest register {self.dest}")

    @property
    def is_memory(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.STORE)

    @property
    def uses_alu(self) -> bool:
        return self.kind in (OpKind.ALU, OpKind.BRANCH)
