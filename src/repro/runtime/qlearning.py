"""Online learning of per-configuration speedups (Section IV-C, Eqn. 7).

The over/under rule needs each configuration's speedup s_k, which
varies tremendously across application phases.  CASH learns it online
with a Q-learning-style exponentially weighted average of observed QoS:

    q̂_k(t) = (1−α)·q̂_k(t−1) + α·q(t)
    ŝ_k(t) = q̂_k(t) / q̂_0(t)                              (Eqn. 7)

where q̂_0 is the estimate for the base configuration — supplied by the
Kalman filter's base-speed estimate, so the two learning mechanisms
stay consistent.  The learner is O(1) per update and treats
configurations as independent (the paper defers correlated models to
future work).

Configurations that have never been observed carry a *prior*: an
optimistic resource-proportional guess.  Exploration of stale
configurations is handled by :class:`ExplorationPolicy`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.arch.vcore import VCoreConfig


def resource_prior(config: VCoreConfig, base: VCoreConfig) -> float:
    """An a-priori speedup guess from resource ratios alone.

    Slices give near-linear gains at first and saturate; cache gives
    logarithmic gains.  The prior only has to be sane enough to seed
    the over/under rule — learning replaces it after one visit.
    """
    slice_gain = math.sqrt(config.slices / base.slices)
    cache_gain = 1.0 + 0.15 * math.log2(max(config.l2_kb / base.l2_kb, 1.0))
    return slice_gain * cache_gain


@dataclass
class _Estimate:
    qos: float
    visits: int = 0
    last_visit: int = -1


class SpeedupLearner:
    """Per-configuration QoS estimates with exponential forgetting."""

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        base_config: VCoreConfig,
        base_qos: float,
        alpha: float = 0.5,
        phase_memory: bool = True,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if base_qos <= 0:
            raise ValueError(f"base_qos must be positive, got {base_qos}")
        if base_config not in set(configs):
            raise ValueError("base_config must be one of the configurations")
        self.alpha = alpha
        self.base_config = base_config
        self.phase_memory = phase_memory
        """When False, phase changes always start a fresh table (the
        ablation baseline): nothing is recalled on revisits."""
        self._base_qos = base_qos
        self._step = 0
        self._estimates: Dict[VCoreConfig, _Estimate] = {
            config: _Estimate(qos=base_qos * resource_prior(config, base_config))
            for config in configs
        }
        # Phase bank: per-recognized-phase estimate tables, keyed by the
        # base-speed level the Kalman filter reported for the phase and
        # by the configuration-independent counter signature (cache-miss
        # intensity, branch mispredict rate) read over the Runtime
        # Interface Network.
        self._bank: List[Dict[str, object]] = [
            {"level": base_qos, "signature": (), "table": self._estimates}
        ]
        self._current_phase = 0
        # Estimate-change tracking for incremental consumers (the
        # optimizer's LearnedPoints view).  ``_version`` counts distinct
        # states of the raw-QoS estimate set; ``_change_log`` records,
        # for each version step, which configuration's estimate moved
        # (``None`` = everything, e.g. a table swap or global rescale).
        # The log is bounded; consumers that fall off its tail get a
        # full-rebuild signal instead of a per-config delta.
        self._version = 0
        self._change_log: List[Optional[VCoreConfig]] = []
        self._log_base = 0
        self._max_qos_cache: Optional[Tuple[int, float]] = None

    CHANGE_LOG_LIMIT = 256
    """Retained change-log entries before old deltas degrade to full
    rebuilds (a consumer that lags this far behind rebuilds anyway)."""

    def _record_change(self, config: Optional[VCoreConfig]) -> None:
        """Note that ``config``'s estimate moved (None = all of them)."""
        self._version += 1
        self._change_log.append(config)
        self._max_qos_cache = None
        overflow = len(self._change_log) - self.CHANGE_LOG_LIMIT
        if overflow > 0:
            del self._change_log[:overflow]
            self._log_base += overflow

    @property
    def estimates_version(self) -> int:
        """Monotone counter of raw-QoS estimate states."""
        return self._version

    def changes_since(self, version: int) -> Optional[List[VCoreConfig]]:
        """Configurations whose estimates moved since ``version``.

        Returns ``[]`` when nothing changed, a list of configurations
        for a small delta, or ``None`` when the caller must rebuild from
        scratch (table swap, global rescale, or a delta older than the
        retained log).
        """
        if version == self._version:
            return []
        if version > self._version or version < self._log_base:
            return None
        entries = self._change_log[version - self._log_base :]
        if any(entry is None for entry in entries):
            return None
        return list(entries)

    def invalidate_estimates(self) -> None:
        """Force incremental consumers to rebuild (external mutation).

        Call after touching ``_estimates`` through any path the tracked
        mutators don't cover, as
        :class:`~repro.runtime.correlated.GridSmoothingLearner`'s
        neighbourhood propagation does.
        """
        self._record_change(None)

    def max_qos_estimate(self) -> float:
        """max_k q̂_k, cached against the estimates version."""
        if perf.FAST:
            cached = self._max_qos_cache
            if cached is not None and cached[0] == self._version:
                return cached[1]
        value = max(estimate.qos for estimate in self._estimates.values())
        self._max_qos_cache = (self._version, value)
        return value

    @property
    def configs(self) -> List[VCoreConfig]:
        return list(self._estimates)

    @property
    def base_qos(self) -> float:
        """q̂_0: the base configuration's QoS estimate."""
        return self._base_qos

    def set_base_qos(self, base_qos: float) -> None:
        """Adopt the Kalman filter's base-speed estimate as q̂_0.

        Speedups are ratios to base speed, so when a phase change moves
        the base estimate, every ŝ_k shifts coherently without touching
        the per-configuration QoS estimates.
        """
        if base_qos <= 0:
            raise ValueError(f"base_qos must be positive, got {base_qos}")
        self._base_qos = base_qos

    def observe(self, config: VCoreConfig, measured_qos: float) -> float:
        """Fold one observed QoS for ``config`` (Eqn. 7); returns q̂_k."""
        if measured_qos < 0:
            raise ValueError(
                f"measured_qos must be non-negative, got {measured_qos}"
            )
        try:
            estimate = self._estimates[config]
        except KeyError:
            raise KeyError(f"{config} is not a tracked configuration") from None
        self._step += 1
        previous_qos = estimate.qos
        if estimate.visits == 0:
            # First observation replaces the prior outright.
            estimate.qos = measured_qos
        else:
            estimate.qos = (1.0 - self.alpha) * estimate.qos + (
                self.alpha * measured_qos
            )
        estimate.visits += 1
        estimate.last_visit = self._step
        if estimate.qos != previous_qos:
            self._record_change(config)
        return estimate.qos

    def rescale_on_phase_change(self, ratio: float) -> None:
        """Scale all QoS estimates by the base-speed shift ratio.

        When the Kalman filter reports base speed changed by ``ratio``,
        the best first guess for every configuration is that its QoS
        scaled by the same factor (speedups are roughly
        phase-independent to first order; learning then corrects the
        second-order structure).
        """
        if ratio <= 0:
            raise ValueError(f"ratio must be positive, got {ratio}")
        # The normalization is global (every phase's margins share it),
        # so banked tables are rescaled too — otherwise a recalled
        # phase would return estimates frozen at the load level of its
        # last visit.
        for entry in self._bank:
            for estimate in entry["table"].values():  # type: ignore[union-attr]
                estimate.qos *= ratio
        # Sentinel: ratio is exactly 1.0 iff no rescale happened, in
        # which case no estimate moved and no change must be recorded.
        if ratio != 1.0:  # lint: allow(float-eq)
            self._record_change(None)

    SIGNATURE_ABS_FLOOR = 0.005
    """Counter rates below this differ mostly by sampling noise."""

    @staticmethod
    def _signatures_match(
        a: Sequence[float], b: Sequence[float], tolerance: float
    ) -> bool:
        """Component-wise relative match of two counter signatures.

        Small rates (e.g. a 3% mispredict rate) carry proportionally
        more sampling noise, so an absolute floor keeps tail noise
        draws from splitting one phase into several bank entries.
        """
        if len(a) != len(b):
            return False
        floor = SpeedupLearner.SIGNATURE_ABS_FLOOR
        for x, y in zip(a, b):
            scale = max(abs(x), abs(y))
            if scale < 1e-12:
                continue
            if abs(x - y) > max(tolerance * scale, floor):
                return False
        return True

    def on_phase_change(
        self,
        previous_base: float,
        new_base: float,
        signature: Sequence[float] = (),
        match_tolerance: float = 0.15,
        signature_tolerance: float = 0.08,
        anchor_qos: Optional[float] = None,
    ) -> bool:
        """Switch the estimate table on a detected phase change.

        Applications revisit phases (loops, request mixes).  A phase is
        recognized by two cheap observables: the Kalman base-speed level
        and the configuration-independent counter ``signature`` (memory
        intensity, branch mispredict rate) from the Runtime Interface
        Network — distinct phases can share a base speed while differing
        wildly in surface shape, so the signature is what keeps their
        learned tables from cross-contaminating.  On a match the banked
        table is recalled, so a revisited phase starts from converged
        estimates.  An unseen phase starts a fresh table: the current
        one rescaled by the base-speed ratio (first-order guess), with
        visit counts reset so real observations replace it immediately.

        Returns True if a banked phase was recalled, False for a new
        phase.
        """
        if previous_base <= 0 or new_base <= 0:
            raise ValueError("base levels must be positive")
        if match_tolerance <= 0:
            raise ValueError(
                f"match_tolerance must be positive, got {match_tolerance}"
            )
        self._bank[self._current_phase]["level"] = previous_base
        # Match on the counter signature; among multiple signature
        # matches (rare), prefer the closest base-speed level.
        best_index = None
        best_gap = float("inf")
        bank = self._bank if self.phase_memory else []
        for index, entry in enumerate(bank):
            if index == self._current_phase:
                continue
            if not entry["signature"]:
                continue
            if not self._signatures_match(
                tuple(entry["signature"]), tuple(signature), signature_tolerance
            ):
                continue
            level = float(entry["level"])
            gap = abs(level - new_base) / new_base
            if gap < best_gap:
                best_gap = gap
                best_index = index
        if best_index is not None:
            self._current_phase = best_index
            # Running average of the stored signature: each sample is
            # noisy, and averaging sharpens the fingerprint over visits.
            stored = tuple(self._bank[best_index]["signature"])
            blended = tuple(
                0.7 * old_component + 0.3 * new_component
                for old_component, new_component in zip(stored, signature)
            )
            self._bank[best_index]["signature"] = (
                blended if len(blended) == len(signature) else tuple(signature)
            )
            self._estimates = self._bank[best_index]["table"]  # type: ignore[assignment]
            self._record_change(None)
            return True
        # Seed the fresh table from the resource-proportional prior,
        # anchored to a *measured* QoS level (never to the base-speed
        # estimate, whose transients must not be able to crush the
        # table).  Optimistic seeds are self-correcting — a too-high
        # estimate gets scheduled, observed and corrected; pessimistic
        # seeds are traps — a too-low estimate is never scheduled, so
        # it is never corrected (the essence of the local-optima
        # problem).
        anchor = anchor_qos if anchor_qos and anchor_qos > 0 else new_base
        fresh = {
            config: _Estimate(
                qos=anchor * resource_prior(config, self.base_config),
                visits=0,
                last_visit=-1,
            )
            for config in self._estimates
        }
        self._bank.append(
            {"level": new_base, "signature": tuple(signature), "table": fresh}
        )
        self._current_phase = len(self._bank) - 1
        self._estimates = fresh
        self._record_change(None)
        return False

    @property
    def known_phases(self) -> int:
        return len(self._bank)

    def qos_estimate(self, config: VCoreConfig) -> float:
        return self._estimates[config].qos

    def ordered_qos_estimates(self) -> List[float]:
        """Every q̂_k, in the order of :attr:`configs`.

        The order never changes: the first table is keyed in catalogue
        order, a fresh table copies the current table's keys, and a
        recalled table is an earlier one.
        """
        return [estimate.qos for estimate in self._estimates.values()]

    def speedup(self, config: VCoreConfig) -> float:
        """ŝ_k = q̂_k / q̂_0."""
        return self._estimates[config].qos / self._base_qos

    def speedups(self) -> Dict[VCoreConfig, float]:
        return {config: self.speedup(config) for config in self._estimates}

    def qos_estimates(self) -> Dict[VCoreConfig, float]:
        """Raw QoS estimates q̂_k (speedups × q̂_0).

        The optimizer can work in raw QoS units directly — the schedule
        produced is identical (Eqn. 5 is homogeneous in s), but raw
        units keep the learned landscape independent of transients in
        the base-speed estimate.
        """
        return {config: est.qos for config, est in self._estimates.items()}

    def visits(self, config: VCoreConfig) -> int:
        return self._estimates[config].visits

    def staleness(self, config: VCoreConfig) -> int:
        """Steps since this configuration was last observed."""
        estimate = self._estimates[config]
        if estimate.last_visit < 0:
            return self._step + 1
        return self._step - estimate.last_visit

    def ucb_candidate(
        self,
        exploration_weight: float = 0.8,
        scale: Optional[float] = None,
        exclude: Optional[VCoreConfig] = None,
    ) -> VCoreConfig:
        """The configuration with the highest optimistic potential.

        Potential is the QoS estimate plus an uncertainty bonus that
        shrinks with visits — an upper-confidence-bound rule.  Used
        when the demand exceeds every *believed* QoS: one of the barely-
        visited configurations may in truth be fast enough, and the only
        way out of the trap is to try the most promising of them.
        ``exclude`` drops the incumbent (already being measured every
        interval — probing it would teach nothing).
        """
        if exploration_weight < 0:
            raise ValueError(
                f"exploration_weight must be non-negative, "
                f"got {exploration_weight}"
            )
        candidates = [c for c in self._estimates if c != exclude]
        if not candidates:
            candidates = list(self._estimates)
        return max(
            candidates,
            key=lambda config: self.ucb_potential(
                config, exploration_weight, scale
            ),
        )

    def ucb_potential(
        self,
        config: VCoreConfig,
        exploration_weight: float = 0.8,
        scale: Optional[float] = None,
    ) -> float:
        """Optimistic QoS potential of one configuration.

        The bonus is *additive* on ``scale`` (default: the current
        maximum estimate).  A multiplicative bonus would be a trap: a
        configuration whose estimate was crushed toward zero would get
        a near-zero bonus and never look worth re-measuring, no matter
        how wrong the estimate is.
        """
        if exploration_weight < 0:
            raise ValueError(
                f"exploration_weight must be non-negative, "
                f"got {exploration_weight}"
            )
        estimate = self._estimates[config]
        if scale is None:
            scale = self.max_qos_estimate()
        bonus = (
            exploration_weight * scale / math.sqrt(estimate.visits + 1.0)
        )
        return estimate.qos + bonus


class ExplorationPolicy:
    """ε-greedy exploration of stale configurations.

    With probability ε (decaying over time) the runtime spends the
    quantum's ``over`` leg on a stale configuration near the demanded
    speedup instead of the believed-optimal one.  This is what lets the
    learner escape local optima: a configuration whose estimate is
    pessimistically wrong would otherwise never be revisited.
    """

    def __init__(
        self,
        learner: SpeedupLearner,
        epsilon: float = 0.15,
        epsilon_floor: float = 0.02,
        decay: float = 0.995,
        rng: Optional[random.Random] = None,
        cost_rates: Optional[Dict[VCoreConfig, float]] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if not 0.0 <= epsilon_floor <= epsilon:
            raise ValueError(
                f"epsilon_floor must be in [0, epsilon], got {epsilon_floor}"
            )
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.learner = learner
        self.epsilon = epsilon
        self.epsilon_floor = epsilon_floor
        self.decay = decay
        self.rng = rng if rng is not None else random.Random(0)
        self.cost_rates = cost_rates or {}

    def maybe_explore(self, target_speedup: float) -> Optional[VCoreConfig]:
        """Pick a stale configuration to try, or None to exploit.

        Among the stalest candidates the *cheapest* is probed first:
        exploration exists to refresh doubtful estimates, and a cheap
        probe buys the same information for less rent.
        """
        explore = self.rng.random() < self.epsilon
        self.epsilon = max(self.epsilon * self.decay, self.epsilon_floor)
        if not explore:
            return None
        # Candidate filter on the *optimistic* view — the larger of the
        # learned speedup and the resource prior.  Filtering on the
        # learned estimate alone is a pessimism trap: a configuration
        # whose estimate once collapsed would be excluded from probing
        # forever, even if it is in truth the cheapest feasible one.
        candidates = [
            config
            for config in self.learner.configs
            if max(
                self.learner.speedup(config),
                resource_prior(config, self.learner.base_config),
            )
            >= target_speedup * 0.8
        ]
        if not candidates:
            candidates = self.learner.configs
        # Prefer the stalest candidates: their estimates are least
        # trustworthy and most likely to hide a better optimum.  Break
        # the choice toward cheap probes.
        candidates.sort(key=self.learner.staleness, reverse=True)
        top = candidates[: max(1, min(8, len(candidates)))]
        if self.learner.staleness(top[0]) == 0:
            return None
        if self.cost_rates:
            return min(top, key=lambda c: self.cost_rates.get(c, 0.0))
        return top[0]
