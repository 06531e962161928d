"""Phase-level application model.

A *phase* is a region of execution with stable microarchitectural
behaviour: instruction-level parallelism, memory intensity, and a
working-set spectrum.  The x264 motivational study (Fig. 1) identifies
10 such phases in one input video; SPEC applications typically have a
handful.  The CASH runtime's whole job is tracking the phase-dependent
response surface IPC(Slices, L2), so phases are the natural modelling
unit for this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np


@dataclass(frozen=True)
class Phase:
    """One application phase.

    The working-set spectrum is a tuple of ``(size_kb, hit_fraction)``
    pairs: the fraction of L1-miss traffic that an L2 of at least
    ``size_kb`` captures.  Fractions are cumulative and must be
    non-decreasing with size, ending at most at 1.0 (the remainder
    always misses to memory — streaming/compulsory traffic).
    """

    name: str
    instructions_m: float
    """Phase length in millions of committed instructions."""

    ilp: float
    """Intrinsic instruction-level parallelism limit (IPC ceiling with
    unbounded resources)."""

    mem_refs_per_inst: float
    """Memory references per instruction (loads + stores)."""

    l1_miss_rate: float
    """Fraction of memory references that miss the (fixed) L1."""

    working_set: Tuple[Tuple[int, float], ...]
    """Cumulative L2 hit-fraction spectrum: ((size_kb, fraction), ...)."""

    mlp: float = 2.0
    """Memory-level parallelism on one Slice: concurrent outstanding
    misses the out-of-order window sustains."""

    comm_penalty: float = 0.03
    """Per-hop slowdown factor for cross-Slice operand forwarding."""

    branch_fraction: float = 0.15
    """Fraction of instructions that are branches."""

    mispredict_rate: float = 0.03
    """Branch mispredict rate (used by counters and the cycle tier)."""

    code_footprint_kb: int = 8
    """Size of the phase's instruction working set (Table II gives each
    Slice a 16 KB L1I; loops larger than it pay instruction-fetch
    misses in the cycle tier)."""

    def __post_init__(self) -> None:
        if self.instructions_m <= 0:
            raise ValueError(
                f"{self.name}: instructions_m must be positive, "
                f"got {self.instructions_m}"
            )
        if self.ilp < 0.1:
            raise ValueError(f"{self.name}: ilp must be >= 0.1, got {self.ilp}")
        if not 0.0 <= self.mem_refs_per_inst <= 1.0:
            raise ValueError(
                f"{self.name}: mem_refs_per_inst must be in [0, 1], "
                f"got {self.mem_refs_per_inst}"
            )
        if not 0.0 <= self.l1_miss_rate <= 1.0:
            raise ValueError(
                f"{self.name}: l1_miss_rate must be in [0, 1], "
                f"got {self.l1_miss_rate}"
            )
        if self.mlp < 1.0:
            raise ValueError(f"{self.name}: mlp must be >= 1, got {self.mlp}")
        if self.comm_penalty < 0:
            raise ValueError(
                f"{self.name}: comm_penalty must be non-negative, "
                f"got {self.comm_penalty}"
            )
        if not 0.0 <= self.branch_fraction <= 1.0:
            raise ValueError(
                f"{self.name}: branch_fraction must be in [0, 1], "
                f"got {self.branch_fraction}"
            )
        if not 0.0 <= self.mispredict_rate <= 1.0:
            raise ValueError(
                f"{self.name}: mispredict_rate must be in [0, 1], "
                f"got {self.mispredict_rate}"
            )
        if self.code_footprint_kb <= 0:
            raise ValueError(
                f"{self.name}: code_footprint_kb must be positive, "
                f"got {self.code_footprint_kb}"
            )
        last_size = 0
        last_frac = 0.0
        for size_kb, fraction in self.working_set:
            if size_kb <= last_size:
                raise ValueError(
                    f"{self.name}: working-set sizes must be strictly "
                    f"increasing, got {self.working_set}"
                )
            if fraction < last_frac or fraction > 1.0:
                raise ValueError(
                    f"{self.name}: working-set fractions must be "
                    f"non-decreasing and <= 1, got {self.working_set}"
                )
            last_size, last_frac = size_kb, fraction

    def l2_hit_fraction(self, l2_kb: int) -> float:
        """Fraction of L1-miss traffic an L2 of ``l2_kb`` KB captures.

        Capture is step-like: a working set is only retained once it
        fits entirely (an L2 slightly smaller than a looping working set
        thrashes and captures almost none of it).  This knee structure
        is what makes cache growth between knees pure overhead — the
        extra banks add hit latency without adding hits — and is the
        physical origin of the local optima in Fig. 1.
        """
        if l2_kb <= 0:
            raise ValueError(f"l2_kb must be positive, got {l2_kb}")
        captured = 0.0
        for size_kb, fraction in self.working_set:
            if l2_kb >= size_kb:
                captured = fraction
        return captured

    def l2_hit_fraction_array(self, l2_kb: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`l2_hit_fraction` over an array of L2 sizes.

        Pure table lookup (no arithmetic), so each element equals the
        scalar result exactly.
        """
        if np.any(l2_kb <= 0):
            raise ValueError("l2_kb must be positive")
        if not self.working_set:
            return np.zeros_like(l2_kb, dtype=float)
        sizes = np.array([size for size, _ in self.working_set])
        fractions = np.array([0.0] + [frac for _, frac in self.working_set])
        # Number of working-set knees that fit entirely in each L2 size;
        # `side='right'` makes an exact fit count as captured, matching
        # the scalar `l2_kb >= size_kb` comparison.
        captured = np.searchsorted(sizes, l2_kb, side="right")
        return fractions[captured]

    @property
    def instructions(self) -> float:
        return self.instructions_m * 1e6


class PhasedApplication:
    """An application: an ordered sequence of phases plus QoS metadata."""

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        qos_kind: str = "throughput",
        description: str = "",
        instructions_per_request: float = 0.0,
    ) -> None:
        if not phases:
            raise ValueError(f"{name}: an application needs at least one phase")
        if qos_kind not in ("throughput", "latency"):
            raise ValueError(
                f"{name}: qos_kind must be 'throughput' or 'latency', "
                f"got {qos_kind!r}"
            )
        if qos_kind == "latency" and instructions_per_request <= 0:
            raise ValueError(
                f"{name}: latency applications need a positive "
                "instructions_per_request"
            )
        # The harness and the oracle key per-phase state by phase name.
        seen: Set[str] = set()
        for phase in phases:
            if phase.name in seen:
                raise ValueError(f"{name}: phase name {phase.name!r} repeats")
            seen.add(phase.name)
        self.name = name
        self.phases: Tuple[Phase, ...] = tuple(phases)
        self.qos_kind = qos_kind
        self.description = description
        self.instructions_per_request = instructions_per_request
        # Phases are immutable after construction, so the total (a hot
        # quantity in the phase walker) is computed exactly once, with
        # the same left-to-right summation order as the original
        # per-call computation.
        self._total_instructions = sum(
            phase.instructions for phase in self.phases
        )

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __getitem__(self, index: int) -> Phase:
        return self.phases[index]

    @property
    def total_instructions(self) -> float:
        return self._total_instructions

    def phase_at_instruction(self, instruction: float) -> Tuple[int, Phase]:
        """Phase index and phase containing the given instruction offset.

        Offsets past the end wrap around (applications loop over their
        input during long measurement runs, as the paper's 1000-sample
        experiments do).
        """
        if instruction < 0:
            raise ValueError(
                f"instruction offset must be non-negative, got {instruction}"
            )
        offset = instruction % self.total_instructions
        for index, phase in enumerate(self.phases):
            if offset < phase.instructions:
                return index, phase
            offset -= phase.instructions
        return len(self.phases) - 1, self.phases[-1]

    def phase_schedule(self) -> List[Tuple[float, float, Phase]]:
        """(start_instruction, end_instruction, phase) for one pass."""
        schedule = []
        cursor = 0.0
        for phase in self.phases:
            schedule.append((cursor, cursor + phase.instructions, phase))
            cursor += phase.instructions
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhasedApplication({self.name!r}, phases={len(self.phases)}, "
            f"qos={self.qos_kind})"
        )
