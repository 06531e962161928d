"""Correlation-aware speedup learning (the paper's future-work pointer).

Section IV-C: the Q-learning approach "is computationally cheap, but
treats all configurations as independent.  More sophisticated learning
methods that capture correlation between configurations and
applications (e.g., [40]) will be the subject of future work."

This module implements that extension: a learner that propagates each
observation across the configuration grid through a local response
model.  The insight is that neighbouring configurations' QoS values are
strongly correlated — one more Slice or one more cache step moves IPC
by a bounded, roughly prior-shaped factor — so a single measurement
carries information about the whole neighbourhood.  Concretely, after
folding an observation into configuration k (Eqn. 7 unchanged), the
learner nudges every *less-recently-observed* configuration j toward

    q(k) · prior(j) / prior(k)

with a weight that decays with grid distance and with j's own
freshness.  Direct observations always dominate: a configuration that
was just measured is never overwritten by propagation.

The payoff is cold-start behaviour: entering a new phase, a handful of
observations sketch the whole surface, so the optimizer's early
schedules are far less wrong.  The cost is bias in non-convex regions —
propagation smooths across knees — which direct observation then
corrects.  The ablation benchmark quantifies both effects.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.arch.vcore import VCoreConfig
from repro.runtime.qlearning import SpeedupLearner, resource_prior


def grid_distance(a: VCoreConfig, b: VCoreConfig) -> float:
    """Distance between configurations in (slice, log-cache) steps."""
    slice_steps = abs(a.slices - b.slices)
    cache_steps = abs(math.log2(a.l2_kb) - math.log2(b.l2_kb))
    return slice_steps + cache_steps


class GridSmoothingLearner(SpeedupLearner):
    """A :class:`SpeedupLearner` that shares observations with
    neighbouring configurations through the resource-response prior."""

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        base_config: VCoreConfig,
        base_qos: float,
        alpha: float = 0.4,
        propagation: float = 0.35,
        radius: float = 3.0,
        **kwargs: object,
    ) -> None:
        if not 0.0 <= propagation <= 1.0:
            raise ValueError(
                f"propagation must be in [0, 1], got {propagation}"
            )
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(
            configs=configs,
            base_config=base_config,
            base_qos=base_qos,
            alpha=alpha,
            **kwargs,
        )
        self.propagation = propagation
        self.radius = radius
        self._prior: Dict[VCoreConfig, float] = {
            config: resource_prior(config, base_config) for config in configs
        }

    def observe(self, config: VCoreConfig, measured_qos: float) -> float:
        updated = super().observe(config, measured_qos)
        self._propagate(config, measured_qos)
        return updated

    def _propagate(self, source: VCoreConfig, measured_qos: float) -> None:
        source_prior = self._prior[source]
        source_visits = self._estimates[source].visits
        for config, estimate in self._estimates.items():
            if config == source:
                continue
            distance = grid_distance(source, config)
            if distance > self.radius:
                continue
            # Direct knowledge dominates: the more often a neighbour has
            # been observed itself, the less a propagated guess moves it.
            freshness_discount = 1.0 / (1.0 + estimate.visits)
            if source_visits == 0:
                continue
            weight = (
                self.propagation
                * freshness_discount
                / (1.0 + distance)
            )
            predicted = measured_qos * self._prior[config] / source_prior
            estimate.qos = (1.0 - weight) * estimate.qos + weight * predicted
        # Propagation touches an unbounded neighbourhood; signal a full
        # refresh rather than enumerating every moved configuration.
        self.invalidate_estimates()
