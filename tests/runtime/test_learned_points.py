"""Incremental learned-point view vs from-scratch reconstruction.

``LearnedPoints`` patches only the entries whose Q-learning estimates
moved and caches the lower hull against the learner's version counter.
These tests drive a learner through arbitrary interleaved update
sequences (observations, phase changes, global rescales, bank recalls)
and after every step compare the incremental view — points, hull and
envelope — with a from-scratch rebuild through the seed code path.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import VCoreConfig
from repro.runtime.optimizer import (
    ConfigPoint,
    IDLE_POINT,
    LearningOptimizer,
    _lower_hull,
    compute_envelope,
    lower_envelope_cost,
    solve_two_config,
)
from repro.runtime.correlated import GridSmoothingLearner
from repro.runtime.qlearning import SpeedupLearner

CONFIGS = [
    VCoreConfig(1, 64),
    VCoreConfig(1, 512),
    VCoreConfig(2, 128),
    VCoreConfig(4, 512),
    VCoreConfig(4, 4096),
    VCoreConfig(8, 1024),
    VCoreConfig(8, 4096),
]
BASE = CONFIGS[0]
COST_RATES = [c.cost_rate(DEFAULT_COST_MODEL) for c in CONFIGS]


def make_view():
    learner = SpeedupLearner(configs=CONFIGS, base_config=BASE, base_qos=1.0)
    optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
    return learner, optimizer, optimizer.learned_points(learner)


def scratch_points(learner):
    """The seed construction: fresh dict, fresh ConfigPoint list."""
    estimates = learner.qos_estimates()
    return [
        ConfigPoint(config=c, speedup=estimates[c], cost_rate=rate)
        for c, rate in zip(CONFIGS, COST_RATES)
    ]


def assert_view_matches_scratch(view, learner):
    fresh = scratch_points(learner)
    assert view.points() == fresh
    hull, best_at = view.envelope(IDLE_POINT)
    fresh_hull, fresh_best = compute_envelope(fresh, IDLE_POINT)
    # The cached envelope is published frozen (tuple hull, read-only
    # best_at view); contents must still match the scratch build.
    assert list(hull) == fresh_hull
    # The incremental view resolves owners for hull vertices only —
    # exactly the keys the two-config LP ever looks up.
    for vertex in hull:
        assert best_at[vertex] == fresh_best[vertex]
    # And through the public hull entry point used by the LP solver.
    assert list(hull) == _lower_hull(
        [(p.speedup, p.cost_rate) for p in fresh] + [
            (IDLE_POINT.speedup, IDLE_POINT.cost_rate)
        ]
    )


# One symbolic action per step; hypothesis explores interleavings.
ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["observe", "rescale", "phase", "recall"]),
        st.integers(0, len(CONFIGS) - 1),
        st.floats(0.2, 6.0),
    ),
    min_size=1,
    max_size=40,
)


def apply_action(learner, action):
    kind, config_index, value = action
    if kind == "observe":
        learner.observe(CONFIGS[config_index], value)
    elif kind == "rescale":
        learner.rescale_on_phase_change(max(value, 0.25))
    elif kind == "phase":
        learner.on_phase_change(1.0, value, signature=(value,))
    else:  # revisit an earlier level: may recall a bank entry
        learner.on_phase_change(value, 1.0, signature=(1.0,))


class TestIncrementalEnvelope:
    @given(actions=ACTIONS)
    @settings(max_examples=50, deadline=None)
    def test_matches_scratch_after_arbitrary_updates(self, actions):
        learner, _, view = make_view()
        for action in actions:
            apply_action(learner, action)
            assert_view_matches_scratch(view, learner)

    @given(actions=ACTIONS)
    @settings(max_examples=25, deadline=None)
    def test_matches_scratch_when_read_only_at_end(self, actions):
        # Reads between updates change which incremental path runs
        # (change-log deltas vs full rebuild); reading only at the end
        # must give the same answer.
        learner, _, view = make_view()
        for action in actions:
            apply_action(learner, action)
        assert_view_matches_scratch(view, learner)

    def test_change_log_overflow_falls_back_to_full_rebuild(self):
        learner, _, view = make_view()
        view.points()  # pin a version, then overflow the bounded log
        rng = random.Random(7)
        for _ in range(SpeedupLearner.CHANGE_LOG_LIMIT + 50):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
        assert learner.changes_since(0) is None
        assert_view_matches_scratch(view, learner)

    def test_solver_agrees_with_seed_path(self):
        learner, optimizer, view = make_view()
        rng = random.Random(3)
        saturated = 0
        for _ in range(60):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
            # One target drawn as before, one past the largest estimate:
            # the saturated case, where the envelope solve raises and
            # the over/under fallback clamps.
            top = learner.max_qos_estimate()
            for target in (rng.uniform(0.1, 3.0), top * rng.uniform(1.0, 1.5)):
                estimates = learner.qos_estimates()
                schedule = optimizer.schedule(estimates, target)
                assert optimizer.schedule_points(view, target) == schedule
                try:
                    expected = optimizer.optimal_cost(estimates, target)
                except ValueError:
                    with pytest.raises(ValueError):
                        optimizer.optimal_cost_points(view, target)
                    saturated += schedule.saturated
                    continue
                assert optimizer.optimal_cost_points(view, target) == expected
        assert saturated > 0

    def test_reference_mode_rebuilds_every_read(self):
        learner, _, view = make_view()
        with perf.fast_paths(False):
            first = view.points()
            learner.observe(CONFIGS[2], 4.2)
            second = view.points()
        assert first is not second
        assert second == scratch_points(learner)

    @pytest.mark.parametrize("fast", [True, False])
    def test_negative_estimate_is_rejected_on_read(self, fast):
        # Points are built lazily, so the ConfigPoint speedup check runs
        # where each estimate is read; its error must not change.
        learner, _, view = make_view()
        view.points()
        learner._estimates[CONFIGS[2]].qos = -1.0
        learner.invalidate_estimates()
        message = "speedup must be non-negative, got -1.0"
        optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
        with perf.fast_paths(fast):
            with pytest.raises(ValueError, match=message):
                view.points()
            with pytest.raises(ValueError, match=message):
                view.envelope(IDLE_POINT)
            # A target above every estimate takes the saturation clamp.
            with pytest.raises(ValueError, match=message):
                optimizer.schedule_points(view, 100.0)

    def test_envelope_cache_reuse_without_updates(self):
        learner, _, view = make_view()
        learner.observe(CONFIGS[3], 2.5)
        assert view.envelope(IDLE_POINT) is view.envelope(IDLE_POINT)
        learner.observe(CONFIGS[3], 2.8)
        assert_view_matches_scratch(view, learner)


class _FixedLearner:
    """A learner stand-in holding given estimates; a fresh view reads
    them all on its first refresh."""

    estimates_version = 0

    def __init__(self, estimates):
        self._estimates = dict(zip(CONFIGS, estimates))

    def qos_estimate(self, config):
        return self._estimates[config]

    def changes_since(self, version):
        return []


class TestOrderedRebuild:
    """A full rebuild reads a learner's estimates in one call when the
    learner keeps them in the view's catalogue order."""

    @pytest.mark.parametrize("learner_class", [SpeedupLearner, GridSmoothingLearner])
    @given(actions=ACTIONS)
    @settings(max_examples=30, deadline=None)
    def test_rebuild_equals_per_config_reads(self, learner_class, actions):
        learner = learner_class(configs=CONFIGS, base_config=BASE, base_qos=1.0)
        optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
        view = optimizer.learned_points(learner)
        assert view._ordered is not None
        reads = []
        read = learner.qos_estimate
        learner.qos_estimate = lambda config: reads.append(config) or read(config)
        for action in actions:
            # New phases, recalls and rescales each force a full rebuild.
            apply_action(learner, action)
            expected = [read(config) for config in CONFIGS]
            assert learner.ordered_qos_estimates() == expected
            with perf.fast_paths(True):
                view._rebuild_all()
            assert view._keys[0].tolist() == expected
        assert reads == []

    @pytest.mark.parametrize("fast", [True, False])
    def test_first_negative_raises_even_after_a_nan(self, fast):
        learner, _, view = make_view()
        view.points()
        learner._estimates[CONFIGS[1]].qos = float("nan")
        learner._estimates[CONFIGS[4]].qos = -2.0
        learner._estimates[CONFIGS[5]].qos = -3.0
        learner.invalidate_estimates()
        with perf.fast_paths(fast):
            with pytest.raises(ValueError, match="got -2.0$"):
                view.points()

    def test_learner_without_the_method_reads_per_config(self):
        estimates = [0.5, 1.0, 0.98, 0.2, 0.3, 0.1, 0.4]
        learner = _FixedLearner(estimates)
        optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
        view = optimizer.learned_points(learner)
        assert view._ordered is None
        assert [point.speedup for point in view.points()] == estimates

    @pytest.mark.parametrize(
        "configs", [CONFIGS[::-1], CONFIGS + CONFIGS[:1]], ids=["reversed", "repeat"]
    )
    def test_other_catalogue_order_reads_per_config(self, configs):
        learner = SpeedupLearner(configs=CONFIGS, base_config=BASE, base_qos=1.0)
        learner.observe(CONFIGS[3], 2.5)
        rates = [config.cost_rate(DEFAULT_COST_MODEL) for config in configs]
        view = LearningOptimizer(configs=configs, cost_rates=rates).learned_points(
            learner
        )
        assert view._ordered is None
        speedups = [point.speedup for point in view.points()]
        assert speedups == [learner.qos_estimate(config) for config in configs]


@st.composite
def clamp_cases(draw):
    """Estimates, cost rates and a target around the saturation edge."""
    size = len(CONFIGS)
    estimates = draw(
        st.lists(st.floats(0.0, 6.0), min_size=size, max_size=size)
    )
    top = max(estimates)
    edge = 0.98 * top
    # Pin some estimates onto the clamp's 0.98 x max edge, one ulp to
    # either side of it, or onto the maximum itself.
    for index in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        estimates[index] = draw(
            st.sampled_from(
                [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 7.0), top]
            )
        )
    # Few distinct rates, so cost ties are common.
    rates = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0, 2.0]), min_size=size, max_size=size
        )
    )
    anchor = draw(st.sampled_from(estimates))
    target = draw(
        st.one_of(
            st.floats(0.0, top),
            st.just(top),
            st.floats(top, 2.0 * top + 1.0),
            st.floats(-1e-12, 1e-12).map(lambda delta: anchor + delta),
            st.floats(-2e-12, 2e-12).map(lambda delta: top + delta),
        )
    )
    return estimates, rates, target


def scratch_view_points(estimates):
    return [
        ConfigPoint(config=c, speedup=s, cost_rate=rate)
        for c, s, rate in zip(CONFIGS, estimates, COST_RATES)
    ]


def _outcome(solve):
    try:
        return solve()
    except ValueError as error:
        return str(error)


PINNED = (
    [0.5, 1.0, 0.98, 0.2, 0.3, 0.1, 0.4],
    [0.5, 0.99, 1.0, 0.2, 0.3, 0.1, 0.4],
)


class TestSaturationClamp:
    @given(case=clamp_cases())
    # Pinned: the cheapest candidate sits exactly on the 0.98 x max
    # edge; two candidates tie on cost; the target is within 1e-12 of
    # the maximum (an exact hit, not a clamp).
    @example(case=(PINNED[0], [1, 2, 0.5, 1, 1, 1, 1], 1.5))
    @example(case=(PINNED[1], [1, 0.5, 0.5, 1, 1, 1, 1], 1.5))
    @example(case=(PINNED[1], [1, 0.5, 2, 1, 1, 1, 1], 1.0 + 5e-13))
    @settings(max_examples=300, deadline=None)
    def test_schedule_points_matches_two_config_rule(self, case):
        estimates, rates, target = case
        optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=rates)
        view = optimizer.learned_points(_FixedLearner(estimates))
        actual = _outcome(lambda: optimizer.schedule_points(view, target))
        expected = _outcome(lambda: solve_two_config(list(view), target))
        assert actual == expected

    def test_clamp_builds_one_point(self):
        estimates = [0.5, 2.0, 1.99, 1.0, 1.97, 0.3, 1.2]
        optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
        view = optimizer.learned_points(_FixedLearner(estimates))
        schedule = optimizer.schedule_points(view, 3.0)
        assert schedule.saturated
        assert schedule == solve_two_config(scratch_view_points(estimates), 3.0)
        assert sum(point is not None for point in view._points) == 1


class TestLearnerChangeTracking:
    def test_version_advances_on_estimate_change(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        before = learner.estimates_version
        learner.observe(CONFIGS[1], 3.0)
        assert learner.estimates_version == before + 1
        assert learner.changes_since(before) == [CONFIGS[1]]

    def test_noop_observation_does_not_advance(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        learner.observe(CONFIGS[1], 3.0)
        version = learner.estimates_version
        learner.observe(CONFIGS[1], 3.0)  # estimate already exactly 3.0
        assert learner.estimates_version == version
        assert learner.changes_since(version) == []

    def test_phase_change_signals_full_rebuild(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        version = learner.estimates_version
        learner.on_phase_change(1.0, 2.0, signature=(2.0,))
        assert learner.changes_since(version) is None

    def test_max_qos_estimate_tracks_dict_max(self):
        learner = SpeedupLearner(
            configs=CONFIGS, base_config=BASE, base_qos=1.0
        )
        rng = random.Random(11)
        for _ in range(30):
            learner.observe(rng.choice(CONFIGS), rng.uniform(0.2, 6.0))
            assert learner.max_qos_estimate() == pytest.approx(
                max(learner.qos_estimates().values()), abs=0.0
            )
