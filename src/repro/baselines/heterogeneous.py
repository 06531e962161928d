"""The coarse-grain heterogeneous architecture (Section VI-E).

To quantify what fine-grain configurability buys, the paper compares
against a big.LITTLE-style design simulated on the same fabric: one
*big* core — the largest configuration needed to meet the QoS demands
of all target applications, 8 Slices with a 4 MB L2 — and one *little*
core — the most cost-efficient configuration on average across the
benchmarks, 1 Slice with a 128 KB L2.  Core types are fixed at design
time; a scheduler may only choose between them (and, for
race-to-idle, may not even do that).

Four comparison points arise from {coarse, fine} × {race, adaptive}:
CoarseGrain-race, CoarseGrain-adaptive (the CASH runtime restricted to
the two fixed cores), FineGrain-race, and CASH.
"""

from __future__ import annotations

from typing import List

from repro.arch.vcore import ConfigurationSpace, VCoreConfig

BIG_CONFIG = VCoreConfig(slices=8, l2_kb=8192)
"""The big core: the largest configuration needed to meet the QoS
demands of all target applications (the paper's selection principle).
On the paper's workload calibration that principle yielded 8 Slices
with a 4 MB L2; our calibrated suite contains phases whose QoS-setting
optimum needs the full 8 MB (e.g. mcf, x264 phase 3), so coverage
requires 8S/8MB here."""

LITTLE_CONFIG = VCoreConfig(slices=1, l2_kb=128)
"""The little core: most cost-efficient configuration on average."""


def coarse_grain_space(
    big: VCoreConfig = BIG_CONFIG,
    little: VCoreConfig = LITTLE_CONFIG,
) -> ConfigurationSpace:
    """The two-point configuration 'menu' of a big.LITTLE design.

    Built as a ConfigurationSpace so every allocator (race, convex,
    CASH runtime) runs unchanged on the coarse-grain architecture —
    only the menu differs.
    """
    if big == little:
        raise ValueError("big and little cores must differ")
    slice_counts = sorted({big.slices, little.slices})
    l2_sizes = sorted({big.l2_kb, little.l2_kb})
    space = ConfigurationSpace(slice_counts=slice_counts, l2_sizes_kb=l2_sizes)
    return space


def coarse_grain_configs(
    big: VCoreConfig = BIG_CONFIG,
    little: VCoreConfig = LITTLE_CONFIG,
) -> List[VCoreConfig]:
    """Just the two legal core types (the full grid of the two-point
    space would also contain 1S/4MB and 8S/128KB hybrids, which a
    design-time-fixed architecture does not offer)."""
    return [little, big]
