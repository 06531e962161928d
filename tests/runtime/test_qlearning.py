"""Online speedup learning (Eqn. 7), the phase bank, and exploration."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import perf
from repro.arch.vcore import VCoreConfig
from repro.runtime.qlearning import (
    ExplorationPolicy,
    SpeedupLearner,
    resource_prior,
)

CONFIGS = [
    VCoreConfig(1, 64),
    VCoreConfig(2, 128),
    VCoreConfig(4, 512),
    VCoreConfig(8, 4096),
]
BASE = CONFIGS[0]


def make_learner(alpha=0.5, base_qos=1.0):
    return SpeedupLearner(
        configs=CONFIGS, base_config=BASE, base_qos=base_qos, alpha=alpha
    )


class TestResourcePrior:
    def test_base_has_prior_one(self):
        assert resource_prior(BASE, BASE) == pytest.approx(1.0)

    def test_more_resources_higher_prior(self):
        priors = [resource_prior(c, BASE) for c in CONFIGS]
        assert priors == sorted(priors)
        assert priors[-1] > priors[0]


class TestEqn7:
    def test_first_observation_replaces_prior(self):
        learner = make_learner()
        learner.observe(CONFIGS[1], 3.0)
        assert learner.qos_estimate(CONFIGS[1]) == 3.0

    def test_exponential_average_after_first(self):
        learner = make_learner(alpha=0.5)
        learner.observe(CONFIGS[1], 2.0)
        learner.observe(CONFIGS[1], 4.0)
        # q̂ = (1-α)*2 + α*4 = 3
        assert learner.qos_estimate(CONFIGS[1]) == pytest.approx(3.0)

    def test_speedup_is_ratio_to_base(self):
        learner = make_learner(base_qos=0.5)
        learner.observe(CONFIGS[1], 2.0)
        assert learner.speedup(CONFIGS[1]) == pytest.approx(4.0)

    def test_set_base_qos_shifts_all_speedups(self):
        learner = make_learner(base_qos=1.0)
        learner.observe(CONFIGS[1], 2.0)
        learner.set_base_qos(2.0)
        assert learner.speedup(CONFIGS[1]) == pytest.approx(1.0)

    def test_visits_and_staleness(self):
        learner = make_learner()
        assert learner.visits(CONFIGS[2]) == 0
        learner.observe(CONFIGS[2], 1.0)
        learner.observe(CONFIGS[1], 1.0)
        assert learner.visits(CONFIGS[2]) == 1
        assert learner.staleness(CONFIGS[2]) == 1
        assert learner.staleness(CONFIGS[1]) == 0
        assert learner.staleness(CONFIGS[3]) > 1

    def test_unknown_config_rejected(self):
        learner = make_learner()
        with pytest.raises(KeyError):
            learner.observe(VCoreConfig(7, 64), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_learner(alpha=0.0)
        with pytest.raises(ValueError):
            make_learner(base_qos=0.0)
        with pytest.raises(ValueError):
            SpeedupLearner(
                configs=CONFIGS, base_config=VCoreConfig(5, 64), base_qos=1.0
            )
        learner = make_learner()
        with pytest.raises(ValueError):
            learner.observe(BASE, -1.0)
        with pytest.raises(ValueError):
            learner.set_base_qos(0.0)

    @settings(max_examples=40, deadline=None)
    @given(observations=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=50))
    def test_estimate_stays_within_observed_range(self, observations):
        """Property: an exponential average never leaves the convex
        hull of its observations."""
        learner = make_learner()
        for value in observations:
            learner.observe(CONFIGS[1], value)
        estimate = learner.qos_estimate(CONFIGS[1])
        assert min(observations) - 1e-9 <= estimate <= max(observations) + 1e-9


class TestPhaseBank:
    SIG_A = (0.30, 0.10, 0.03)
    SIG_B = (0.20, 0.05, 0.08)

    def test_new_phase_creates_fresh_table(self):
        learner = make_learner()
        learner.observe(CONFIGS[1], 5.0)
        recalled = learner.on_phase_change(
            1.0, 2.0, signature=self.SIG_A, anchor_qos=1.0
        )
        assert recalled is False
        assert learner.known_phases == 2
        # Fresh seeds come from the prior, not the old observation.
        assert learner.qos_estimate(CONFIGS[1]) != 5.0

    def test_revisited_phase_recalls_converged_table(self):
        learner = make_learner()
        learner.observe(CONFIGS[1], 5.0)           # phase 0 knowledge
        learner.on_phase_change(1.0, 2.0, signature=self.SIG_A)
        learner.observe(CONFIGS[1], 9.0)           # phase A knowledge
        recalled = learner.on_phase_change(2.0, 1.0, signature=self.SIG_B)
        assert recalled is False                   # phase B is new
        recalled = learner.on_phase_change(1.0, 2.0, signature=self.SIG_A)
        assert recalled is True
        assert learner.qos_estimate(CONFIGS[1]) == pytest.approx(9.0)

    def test_same_level_different_signature_not_confused(self):
        """Two phases sharing a base speed must keep separate tables —
        the counter signature disambiguates."""
        learner = make_learner()
        learner.on_phase_change(1.0, 0.5, signature=self.SIG_A)
        learner.observe(CONFIGS[2], 4.0)
        learner.on_phase_change(0.5, 0.5, signature=self.SIG_B)
        assert learner.known_phases == 3
        assert learner.qos_estimate(CONFIGS[2]) != 4.0

    def test_noisy_signature_still_matches(self):
        learner = make_learner()
        learner.on_phase_change(1.0, 2.0, signature=self.SIG_A)
        learner.observe(CONFIGS[1], 7.0)
        learner.on_phase_change(2.0, 1.0, signature=self.SIG_B)
        noisy = tuple(x * 1.03 for x in self.SIG_A)  # 3% noise
        assert learner.on_phase_change(1.0, 2.0, signature=noisy) is True

    def test_optimistic_seeding_uses_anchor(self):
        learner = make_learner()
        # Drive an estimate near zero, then change phase: the fresh
        # seed must recover via the anchor, not inherit the collapse.
        learner.observe(CONFIGS[3], 0.001)
        learner.on_phase_change(1.0, 0.001, signature=self.SIG_A,
                                anchor_qos=1.0)
        assert learner.qos_estimate(CONFIGS[3]) > 1.0

    def test_rescale_applies_to_banked_tables(self):
        learner = make_learner()
        learner.observe(CONFIGS[1], 4.0)
        learner.on_phase_change(1.0, 2.0, signature=self.SIG_A)
        learner.rescale_on_phase_change(0.5)
        learner.on_phase_change(2.0, 1.0, signature=())  # back... new
        # Recall the original (index 0) is impossible (empty signature
        # never matches), but the banked first table was rescaled:
        bank_entry = learner._bank[0]["table"]
        assert bank_entry[CONFIGS[1]].qos == pytest.approx(2.0)

    def test_validation(self):
        learner = make_learner()
        with pytest.raises(ValueError):
            learner.on_phase_change(0.0, 1.0)
        with pytest.raises(ValueError):
            learner.on_phase_change(1.0, 1.0, match_tolerance=0)
        with pytest.raises(ValueError):
            learner.rescale_on_phase_change(0.0)


class TestUcb:
    def test_unvisited_config_gets_bonus(self):
        learner = make_learner()
        for config in CONFIGS[:3]:
            for _ in range(20):
                learner.observe(config, 1.0)
        # CONFIGS[3] is unvisited; its prior is highest anyway, and the
        # bonus amplifies it.
        assert learner.ucb_candidate() == CONFIGS[3]

    def test_potential_shrinks_with_visits(self):
        learner = make_learner()
        learner.observe(CONFIGS[1], 2.0)
        early = learner.ucb_potential(CONFIGS[1])
        for _ in range(30):
            learner.observe(CONFIGS[1], 2.0)
        late = learner.ucb_potential(CONFIGS[1])
        assert late < early
        assert late >= 2.0  # never below the estimate itself

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            make_learner().ucb_candidate(exploration_weight=-1)


class TestExplorationPolicy:
    def test_epsilon_decays_to_floor(self):
        learner = make_learner()
        policy = ExplorationPolicy(
            learner, epsilon=0.5, epsilon_floor=0.1, decay=0.5,
            rng=random.Random(0),
        )
        for _ in range(20):
            policy.maybe_explore(1.0)
        assert policy.epsilon == pytest.approx(0.1)

    def test_never_explores_with_zero_epsilon(self):
        learner = make_learner()
        policy = ExplorationPolicy(
            learner, epsilon=0.0, epsilon_floor=0.0, rng=random.Random(0)
        )
        assert all(
            policy.maybe_explore(1.0) is None for _ in range(50)
        )

    def test_prefers_cheap_probes(self):
        learner = make_learner()
        policy = ExplorationPolicy(
            learner,
            epsilon=1.0,
            epsilon_floor=1.0,
            decay=1.0,
            rng=random.Random(0),
            cost_rates={c: c.cost_rate() for c in CONFIGS},
        )
        candidate = policy.maybe_explore(0.0)
        assert candidate is not None
        # All configs are equally stale; the cheapest wins.
        assert candidate == CONFIGS[0]

    def test_validation(self):
        learner = make_learner()
        with pytest.raises(ValueError):
            ExplorationPolicy(learner, epsilon=2.0)
        with pytest.raises(ValueError):
            ExplorationPolicy(learner, epsilon=0.1, epsilon_floor=0.5)
        with pytest.raises(ValueError):
            ExplorationPolicy(learner, decay=0.0)


class MaxEstimateMachine(RuleBasedStateMachine):
    """``max_qos_estimate()`` equals a fresh ``max`` after every
    mutator, on the fast path where it is kept up to date instead of
    rescanned: observations that raise, lower (the holder included) or
    repeat an estimate, NaN ones, rescales, phase switches and
    ``invalidate_estimates``."""

    def __init__(self):
        super().__init__()
        self.learner = make_learner(alpha=0.5)

    def fresh_max(self):
        return max(e.qos for e in self.learner._estimates.values())

    @rule(
        position=st.integers(0, len(CONFIGS) - 1),
        qos=st.one_of(
            st.floats(0.0, 8.0),
            st.sampled_from([0.0, 1.0, 4.0, math.inf, math.nan]),
        ),
    )
    def observe(self, position, qos):
        self.learner.observe(CONFIGS[position], qos)

    @rule(position=st.integers(0, len(CONFIGS) - 1))
    def observe_the_holder_lower(self, position):
        estimates = self.learner._estimates
        holder = max(estimates, key=lambda config: estimates[config].qos)
        self.learner.observe(holder, estimates[CONFIGS[position]].qos * 0.5)

    @rule(ratio=st.sampled_from([0.5, 1.0, 1.25, 3.0, 1e-300, math.inf]))
    def rescale(self, ratio):
        self.learner.rescale_on_phase_change(ratio)

    @rule(
        signature=st.sampled_from([(0.1, 0.2), (0.5, 0.2), (0.9, 0.01)]),
        anchor=st.sampled_from([None, 0.5, 2.0]),
    )
    def switch_phase(self, signature, anchor):
        self.learner.on_phase_change(
            1.0, 1.5, signature=signature, anchor_qos=anchor
        )

    @rule()
    def invalidate(self):
        self.learner.invalidate_estimates()

    @invariant()
    def max_is_fresh(self):
        with perf.fast_paths(True):
            value = self.learner.max_qos_estimate()
        # Read twice: the second read comes from the kept value.
        with perf.fast_paths(True):
            again = self.learner.max_qos_estimate()
        fresh = self.fresh_max()
        for got in (value, again):
            assert got == fresh or (math.isnan(got) and math.isnan(fresh))


TestMaxEstimateStateful = MaxEstimateMachine.TestCase
TestMaxEstimateStateful.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
