"""Virtual machines: grouping virtual cores, and the ILP/TLP trade-off.

Section III-A: "like existing multicore chips used for IaaS
applications, CASH can group multiple cores into Virtual Machines
(VMs).  Unlike fixed architecture multicore processors, the VMs in the
CASH Architecture are composed of cores which themselves are composed
of a variable number of ALUs and cache" — and Slices can be grouped
"thereby empowering users to make decisions about trading off ILP vs.
TLP vs. process-level parallelism vs. VM-level parallelism while all
utilizing the same resources."

This module makes that trade-off a first-class object: a
:class:`VirtualMachine` is a set of virtual cores rented by one tenant;
:func:`vm_throughput` evaluates a multithreaded phase on it under an
Amdahl model; and :func:`best_vm_shape` searches the shapes a tile
budget allows — the fewer, wider cores (ILP) versus more, narrower
cores (TLP) decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from typing import TYPE_CHECKING

from repro.arch.cost import CostModel, DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, VCoreConfig, DEFAULT_CONFIG_SPACE
from repro.workloads.phase import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.sim.perfmodel import PerformanceModel


@dataclass(frozen=True)
class VirtualMachine:
    """A tenant's VM: one or more virtual cores."""

    vcores: Tuple[VCoreConfig, ...]

    def __post_init__(self) -> None:
        if not self.vcores:
            raise ValueError("a VM needs at least one virtual core")

    @property
    def num_vcores(self) -> int:
        return len(self.vcores)

    @property
    def total_tiles(self) -> int:
        return sum(config.tiles for config in self.vcores)

    @property
    def total_slices(self) -> int:
        return sum(config.slices for config in self.vcores)

    def cost_rate(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return sum(config.cost_rate(model) for config in self.vcores)

    def __str__(self) -> str:
        if len(set(self.vcores)) == 1:
            return f"{self.num_vcores}x {self.vcores[0]}"
        return " + ".join(str(config) for config in self.vcores)


def uniform_vm(count: int, config: VCoreConfig) -> VirtualMachine:
    """A VM of ``count`` identical virtual cores."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return VirtualMachine(vcores=(config,) * count)


def vm_throughput(
    phase: Phase,
    vm: VirtualMachine,
    parallel_fraction: float,
    model: "PerformanceModel" = None,
) -> float:
    """Aggregate instructions/cycle of a multithreaded phase on a VM.

    Amdahl model: a ``parallel_fraction`` of the work splits perfectly
    across the VM's virtual cores (thread-level parallelism), while the
    remainder serializes on the fastest single core (instruction-level
    parallelism is then all that helps it):

        time(W) = (1-p)·W / max_i ipc_i  +  p·W / Σ_i ipc_i
        throughput = W / time(W)
    """
    if not 0.0 <= parallel_fraction <= 1.0:
        raise ValueError(
            f"parallel_fraction must be in [0, 1], got {parallel_fraction}"
        )
    if model is None:
        from repro.sim.perfmodel import DEFAULT_PERF_MODEL

        model = DEFAULT_PERF_MODEL
    ipcs = [model.ipc(phase, config) for config in vm.vcores]
    aggregate = sum(ipcs)
    fastest = max(ipcs)
    serial_time = (1.0 - parallel_fraction) / fastest
    parallel_time = parallel_fraction / aggregate
    return 1.0 / (serial_time + parallel_time)


@dataclass(frozen=True)
class VmShapePoint:
    """One candidate VM shape with its throughput and cost."""

    vm: VirtualMachine
    throughput: float
    cost_rate: float

    @property
    def efficiency(self) -> float:
        return self.throughput / self.cost_rate if self.cost_rate else 0.0


def enumerate_vm_shapes(
    tile_budget: int,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    max_vcores: int = 16,
) -> List[VirtualMachine]:
    """All uniform VM shapes (k identical vcores) within a tile budget."""
    if tile_budget <= 0:
        raise ValueError(f"tile_budget must be positive, got {tile_budget}")
    shapes = []
    for config in space:
        if config.tiles > tile_budget:
            continue
        max_count = min(tile_budget // config.tiles, max_vcores)
        for count in range(1, max_count + 1):
            shapes.append(uniform_vm(count, config))
    return shapes


def best_vm_shape(
    phase: Phase,
    parallel_fraction: float,
    tile_budget: int,
    space: ConfigurationSpace = DEFAULT_CONFIG_SPACE,
    model: "PerformanceModel" = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    objective: str = "throughput",
) -> VmShapePoint:
    """The best uniform VM shape for a phase within a tile budget.

    ``objective`` is ``"throughput"`` (max aggregate IPC) or
    ``"efficiency"`` (max throughput per dollar).
    """
    if objective not in ("throughput", "efficiency"):
        raise ValueError(
            f"objective must be 'throughput' or 'efficiency', got {objective!r}"
        )
    shapes = enumerate_vm_shapes(tile_budget, space)
    if not shapes:
        raise ValueError(
            f"tile budget {tile_budget} cannot fit any configuration"
        )
    best: Optional[VmShapePoint] = None
    for vm in shapes:
        point = VmShapePoint(
            vm=vm,
            throughput=vm_throughput(phase, vm, parallel_fraction, model),
            cost_rate=vm.cost_rate(cost_model),
        )
        key = point.throughput if objective == "throughput" else point.efficiency
        best_key = (
            None
            if best is None
            else (best.throughput if objective == "throughput" else best.efficiency)
        )
        if best is None or key > best_key:
            best = point
    return best
