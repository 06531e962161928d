"""The two-configuration LP schedule (Eqns. 5-6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.vcore import VCoreConfig
from repro.runtime.optimizer import (
    ConfigPoint,
    IDLE_POINT,
    LearningOptimizer,
    Schedule,
    ScheduleEntry,
    lower_envelope_cost,
    solve_two_config,
)


def point(slices, kb, speedup, cost):
    return ConfigPoint(
        config=VCoreConfig(slices, kb), speedup=speedup, cost_rate=cost
    )


POINTS = [
    point(1, 64, 1.0, 0.013),
    point(2, 128, 1.8, 0.026),
    point(4, 256, 3.0, 0.052),
    point(8, 512, 4.0, 0.104),
]


class TestConfigPoint:
    def test_efficiency(self):
        assert point(1, 64, 2.0, 0.5).efficiency == pytest.approx(4.0)

    def test_idle_point(self):
        assert IDLE_POINT.is_idle
        assert IDLE_POINT.speedup == 0.0
        assert IDLE_POINT.cost_rate == 0.0
        assert IDLE_POINT.efficiency == 0.0

    def test_free_fast_point_has_infinite_efficiency(self):
        free = ConfigPoint(config=None, speedup=1.0, cost_rate=0.0)
        assert free.efficiency == float("inf")

    def test_validation(self):
        for speedup, cost, message in (
            (-1.0, 0.0, "speedup must be non-negative, got -1.0"),
            (1.0, -0.1, "cost_rate must be non-negative, got -0.1"),
        ):
            with pytest.raises(ValueError) as by_keyword:
                ConfigPoint(config=None, speedup=speedup, cost_rate=cost)
            with pytest.raises(ValueError) as by_position:
                ConfigPoint(None, speedup, cost)
            assert str(by_keyword.value) == str(by_position.value) == message


class TestScheduleInvariants:
    def test_fractions_must_sum_to_one(self):
        for fractions, total in (((0.5,), 0.5), ((), 0.0), ((0.75, 0.5), 1.25)):
            entries = tuple(ScheduleEntry(IDLE_POINT, f) for f in fractions)
            with pytest.raises(ValueError) as excinfo:
                Schedule(entries=entries)
            assert str(excinfo.value) == f"schedule fractions sum to {total}, not 1"

    def test_entry_fraction_in_unit_range(self):
        for fraction in (1.5, -0.5):
            with pytest.raises(ValueError) as excinfo:
                ScheduleEntry(point=IDLE_POINT, fraction=fraction)
            assert str(excinfo.value) == f"fraction must be in [0, 1], got {fraction}"

    def test_average_speedup_and_cost(self):
        schedule = Schedule(
            entries=(
                ScheduleEntry(POINTS[0], 0.5),
                ScheduleEntry(POINTS[1], 0.5),
            )
        )
        assert schedule.average_speedup == pytest.approx(1.4)
        assert schedule.average_cost_rate == pytest.approx(0.0195)

    def test_active_entries_exclude_idle(self):
        schedule = Schedule(
            entries=(
                ScheduleEntry(POINTS[0], 0.3),
                ScheduleEntry(IDLE_POINT, 0.7),
            )
        )
        assert len(schedule.active_entries) == 1
        assert schedule.configs() == [POINTS[0].config]


class TestSolveTwoConfig:
    def test_zero_target_idles(self):
        schedule = solve_two_config(POINTS, 0.0)
        assert schedule.entries[0].point.is_idle
        assert schedule.average_cost_rate == 0.0

    def test_exact_match_uses_single_config(self):
        schedule = solve_two_config(POINTS, 1.8)
        assert len(schedule.active_entries) == 1
        assert schedule.active_entries[0].point is POINTS[1]

    def test_average_speedup_equals_target(self):
        schedule = solve_two_config(POINTS, 2.4)
        assert schedule.average_speedup == pytest.approx(2.4)

    def test_over_is_cheapest_above(self):
        schedule = solve_two_config(POINTS, 2.4)
        over = schedule.entries[0].point
        assert over is POINTS[2]  # cheapest with s > 2.4

    def test_under_is_most_efficient_below(self):
        # POINTS[1] efficiency ~69.2 beats POINTS[0]'s ~76.9? No:
        # 1.0/.013=76.9 vs 1.8/.026=69.2 — under should be POINTS[0].
        schedule = solve_two_config(POINTS, 2.4)
        under = schedule.entries[1].point
        assert under is POINTS[0]

    def test_saturation_clamps_to_fastest(self):
        schedule = solve_two_config(POINTS, 99.0)
        assert schedule.saturated
        assert schedule.entries[0].point is POINTS[3]

    def test_below_all_mixes_with_idle(self):
        schedule = solve_two_config(POINTS, 0.5)
        assert schedule.entries[0].point is POINTS[0]
        assert schedule.entries[1].point.is_idle
        assert schedule.average_speedup == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_two_config([], 1.0)
        with pytest.raises(ValueError):
            solve_two_config(POINTS, -1.0)

    @settings(max_examples=80, deadline=None)
    @given(target=st.floats(min_value=0.01, max_value=3.99))
    def test_schedule_always_meets_target(self, target):
        """Property: any reachable target is met exactly on average."""
        schedule = solve_two_config(POINTS, target)
        assert not schedule.saturated
        assert schedule.average_speedup == pytest.approx(target, rel=1e-9)


class TestLowerEnvelope:
    def test_exact_target_on_a_point(self):
        cost, schedule = lower_envelope_cost(POINTS, 1.8)
        assert cost <= 0.026 + 1e-12
        assert schedule.average_speedup == pytest.approx(1.8)

    def test_cost_never_exceeds_any_single_feasible_config(self):
        for target in (0.5, 1.0, 2.0, 3.5):
            cost, _ = lower_envelope_cost(POINTS, target)
            for p in POINTS:
                if p.speedup >= target:
                    assert cost <= p.cost_rate + 1e-12

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            lower_envelope_cost(POINTS, 10.0)

    def test_envelope_skips_dominated_points(self):
        """A config that is slower AND pricier than a mix never
        appears on the hull."""
        dominated = point(3, 8192, 1.5, 0.9)
        cost_with, _ = lower_envelope_cost(POINTS + [dominated], 1.5)
        cost_without, _ = lower_envelope_cost(POINTS, 1.5)
        assert cost_with == pytest.approx(cost_without)

    def test_schedule_averages_match(self):
        cost, schedule = lower_envelope_cost(POINTS, 2.2)
        assert schedule.average_speedup == pytest.approx(2.2)
        assert schedule.average_cost_rate == pytest.approx(cost)

    @settings(max_examples=60, deadline=None)
    @given(
        speeds=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=10
        ),
        target_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_envelope_never_beaten_by_two_point_mixes(self, speeds, target_frac):
        """Property: the envelope is the true LP optimum — no pair of
        points (with idle) can average the target more cheaply."""
        points = [
            ConfigPoint(config=None, speedup=s, cost_rate=0.01 * s * s + 0.005)
            for s in speeds
        ]
        target = target_frac * max(speeds)
        cost, _ = lower_envelope_cost(points, target)
        candidates = points + [IDLE_POINT]
        for a in candidates:
            for b in candidates:
                lo, hi = sorted((a, b), key=lambda p: p.speedup)
                if not lo.speedup <= target <= hi.speedup:
                    continue
                span = hi.speedup - lo.speedup
                w = 0.0 if span == 0 else (target - lo.speedup) / span
                mix_cost = w * hi.cost_rate + (1 - w) * lo.cost_rate
                assert cost <= mix_cost + 1e-9

    def test_zero_target_is_free(self):
        cost, schedule = lower_envelope_cost(POINTS, 0.0)
        assert cost == 0.0


class TestLearningOptimizer:
    def _optimizer(self):
        configs = [p.config for p in POINTS]
        return LearningOptimizer(
            configs=configs, cost_rates=[p.cost_rate for p in POINTS]
        )

    def test_points_require_all_estimates(self):
        optimizer = self._optimizer()
        with pytest.raises(KeyError):
            optimizer.points({POINTS[0].config: 1.0})

    def test_schedule_uses_estimates(self):
        optimizer = self._optimizer()
        speedups = {p.config: p.speedup for p in POINTS}
        schedule = optimizer.schedule(speedups, 2.4)
        assert schedule.average_speedup == pytest.approx(2.4)

    def test_optimal_cost_matches_envelope(self):
        optimizer = self._optimizer()
        speedups = {p.config: p.speedup for p in POINTS}
        cost, _ = optimizer.optimal_cost(speedups, 2.0)
        expected, _ = lower_envelope_cost(POINTS, 2.0)
        assert cost == pytest.approx(expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LearningOptimizer(configs=[POINTS[0].config], cost_rates=[1, 2])
        with pytest.raises(ValueError):
            LearningOptimizer(configs=[], cost_rates=[])
