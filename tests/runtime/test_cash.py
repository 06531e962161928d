"""The assembled CASH runtime (Algorithm 1) against synthetic plants."""

import random

import pytest

from repro import perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import VCoreConfig
from repro.runtime.cash import (
    CASHRuntime,
    LegObservation,
    QoSMeasurement,
    RuntimeDecision,
)
from repro.runtime.optimizer import LearnedPoints

CONFIGS = [
    VCoreConfig(1, 64),
    VCoreConfig(2, 128),
    VCoreConfig(4, 256),
    VCoreConfig(8, 512),
]


def make_runtime(qos_goal=1.5, explore=True, **kwargs):
    return CASHRuntime(
        configs=CONFIGS,
        cost_rates=[c.cost_rate(DEFAULT_COST_MODEL) for c in CONFIGS],
        qos_goal=qos_goal,
        base_config=CONFIGS[0],
        initial_base_qos=0.5,
        explore=explore,
        **kwargs,
    )


class _Plant:
    """A stationary synthetic machine with per-config true QoS."""

    def __init__(self, qos_by_config, noise=0.0, seed=0, signature=(0.3, 0.1, 0.03)):
        self.qos = dict(qos_by_config)
        self.noise = noise
        self.rng = random.Random(seed)
        self.signature = signature

    def run(self, schedule) -> QoSMeasurement:
        total = 0.0
        legs = []
        for entry in schedule.entries:
            q = 0.0 if entry.point.is_idle else self.qos[entry.point.config]
            q *= 1.0 + self.rng.gauss(0.0, self.noise)
            total += max(q, 0.0) * entry.fraction
            legs.append(
                LegObservation(
                    config=entry.point.config,
                    fraction=entry.fraction,
                    qos=max(q, 0.0),
                )
            )
        return QoSMeasurement(
            overall_qos=total, legs=tuple(legs), signature=self.signature
        )


STATIONARY = {
    CONFIGS[0]: 0.6,
    CONFIGS[1]: 1.1,
    CONFIGS[2]: 1.9,
    CONFIGS[3]: 2.6,
}


def run_closed_loop(runtime, plant, steps):
    measurement = None
    deliveries = []
    for _ in range(steps):
        decision = runtime.step(measurement)
        measurement = plant.run(decision.schedule)
        deliveries.append(measurement.overall_qos)
    return deliveries


class TestClosedLoopConvergence:
    def test_meets_goal_on_stationary_plant(self):
        runtime = make_runtime(qos_goal=1.5, explore=False)
        plant = _Plant(STATIONARY)
        deliveries = run_closed_loop(runtime, plant, 60)
        tail = deliveries[-20:]
        assert all(q >= 1.5 * 0.97 for q in tail)

    def test_cost_approaches_envelope_optimum(self):
        """After learning, the schedule cost must approach the true
        envelope cost for the goal."""
        from repro.runtime.optimizer import ConfigPoint, lower_envelope_cost

        runtime = make_runtime(qos_goal=1.5, explore=False)
        plant = _Plant(STATIONARY)
        run_closed_loop(runtime, plant, 80)
        true_points = [
            ConfigPoint(
                config=c,
                speedup=STATIONARY[c],
                cost_rate=c.cost_rate(DEFAULT_COST_MODEL),
            )
            for c in CONFIGS
        ]
        optimal_cost, _ = lower_envelope_cost(true_points, 1.5)
        final_cost = runtime.last_schedule.average_cost_rate
        assert final_cost <= optimal_cost * 1.30

    def test_meets_goal_under_noise(self):
        runtime = make_runtime(qos_goal=1.5)
        plant = _Plant(STATIONARY, noise=0.02)
        deliveries = run_closed_loop(runtime, plant, 120)
        tail = deliveries[-40:]
        violations = sum(q < 1.5 * 0.95 for q in tail)
        assert violations <= 4

    def test_unreachable_goal_saturates_at_fastest(self):
        runtime = make_runtime(qos_goal=10.0, explore=False)
        plant = _Plant(STATIONARY)
        run_closed_loop(runtime, plant, 60)
        final = runtime.last_decision
        assert final.schedule.saturated or (
            runtime.last_schedule.average_speedup >= 2.5
        )


class TestSaturatedSteps:
    def test_saturated_fast_step_builds_no_envelope(self, monkeypatch):
        # A target above every estimate makes the envelope solve raise,
        # so the fast path clamps without asking for an envelope; every
        # other step still solves on it.
        calls = []
        original = LearnedPoints.envelope

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LearnedPoints, "envelope", counting)
        seen = set()
        with perf.fast_paths(True):
            for goal in (1.5, 10.0):
                runtime = make_runtime(qos_goal=goal)
                plant = _Plant(STATIONARY)
                measurement = None
                for _ in range(40):
                    before = len(calls)
                    decision = runtime.step(measurement)
                    saturated = decision.schedule.saturated
                    assert (len(calls) == before) == saturated
                    seen.add(saturated)
                    measurement = plant.run(decision.schedule)
        assert seen == {True, False}

    @pytest.mark.parametrize("fast", [True, False])
    def test_ucb_scan_runs_only_after_the_probe_coin_passes(self, fast):
        # A saturated step draws exactly one number from the exploration
        # RNG, the 30% probe coin, and scans the UCB potentials only
        # when the coin passes.
        runtime = make_runtime(qos_goal=10.0)
        events = []
        draw = runtime.exploration.rng.random
        scan = runtime.learner.ucb_candidate

        def recording_draw():
            value = draw()
            events.append(("coin", value))
            return value

        def recording_scan(*args, **kwargs):
            events.append(("scan",))
            return scan(*args, **kwargs)

        runtime.exploration.rng.random = recording_draw
        runtime.learner.ucb_candidate = recording_scan
        plant = _Plant(STATIONARY)
        measurement = None
        passed = 0
        with perf.fast_paths(fast):
            for _ in range(80):
                del events[:]
                decision = runtime.step(measurement)
                measurement = plant.run(decision.schedule)
                if not decision.schedule.saturated:
                    continue
                assert events[0][0] == "coin", events
                coin = events[0][1]
                assert events[1:] == ([("scan",)] if coin < 0.3 else [])
                passed += coin < 0.3
        assert 0 < passed < 60


class TestPhaseAdaptation:
    def test_adapts_to_base_speed_shift(self):
        """When the plant slows 2x (a phase change), the runtime must
        recover the goal within a handful of intervals."""
        runtime = make_runtime(qos_goal=1.2)
        fast = _Plant(STATIONARY, signature=(0.3, 0.1, 0.03))
        slow = _Plant(
            {c: q * 0.55 for c, q in STATIONARY.items()},
            signature=(0.2, 0.05, 0.08),
        )
        measurement = None
        for _ in range(50):
            decision = runtime.step(measurement)
            measurement = fast.run(decision.schedule)
        recovered_at = None
        for step in range(40):
            decision = runtime.step(measurement)
            measurement = slow.run(decision.schedule)
            if measurement.overall_qos >= 1.2 * 0.97:
                recovered_at = step
                break
        assert recovered_at is not None and recovered_at <= 12

    def test_phase_change_flag_reported(self):
        runtime = make_runtime(qos_goal=1.2)
        fast = _Plant(STATIONARY, signature=(0.3, 0.1, 0.03))
        slow = _Plant(STATIONARY, signature=(0.2, 0.05, 0.08))
        measurement = None
        for _ in range(10):
            measurement = fast.run(runtime.step(measurement).schedule)
        flags = []
        for _ in range(5):
            decision = runtime.step(measurement)
            flags.append(decision.phase_change)
            measurement = slow.run(decision.schedule)
        assert any(flags)

    def test_revisited_phase_recovers_fast(self):
        """Second entry into a known phase should recall its table."""
        runtime = make_runtime(qos_goal=1.2)
        a = _Plant(STATIONARY, signature=(0.3, 0.1, 0.03))
        b = _Plant(
            {c: q * 0.6 for c, q in STATIONARY.items()},
            signature=(0.2, 0.05, 0.08),
        )
        measurement = None
        for plant, steps in ((a, 40), (b, 40), (a, 40)):
            for _ in range(steps):
                decision = runtime.step(measurement)
                measurement = plant.run(decision.schedule)
        # Final re-entry into b: count violating intervals.
        violations = 0
        for step in range(15):
            decision = runtime.step(measurement)
            measurement = b.run(decision.schedule)
            if measurement.overall_qos < 1.2 * 0.95:
                violations += 1
        assert violations <= 3


class TestLocalOptimaEscape:
    def test_escapes_pessimistic_estimates(self):
        """Seed the learner with crushed estimates for every config.
        The UCB saturation path must rediscover the fast ones."""
        runtime = make_runtime(qos_goal=2.0)
        for config in CONFIGS:
            runtime.learner.observe(config, 0.05)
        plant = _Plant(STATIONARY)
        deliveries = run_closed_loop(runtime, plant, 80)
        assert max(deliveries[-20:]) >= 2.0 * 0.95


class TestBookkeeping:
    def test_decisions_recorded(self):
        # Only the latest decision is kept: the slot holds exactly what
        # step returned, and no per-step history accumulates.
        runtime = make_runtime()
        assert runtime.last_decision is None
        plant = _Plant(STATIONARY)
        measurement = None
        for _ in range(10):
            decision = runtime.step(measurement)
            assert isinstance(decision, RuntimeDecision)
            assert runtime.last_decision is decision
            measurement = plant.run(decision.schedule)
        assert not hasattr(runtime, "decisions")

    def test_first_step_without_measurement(self):
        runtime = make_runtime()
        decision = runtime.step(None)
        assert decision.schedule.average_speedup >= 0

    def test_instruction_count_estimate_is_o1(self):
        runtime = make_runtime()
        count = runtime.instruction_count_estimate()
        assert 100 <= count <= 5000
        with pytest.raises(ValueError):
            runtime.instruction_count_estimate(0)

    def test_goal_validation(self):
        with pytest.raises(ValueError):
            make_runtime(qos_goal=0.0)

    def test_measurement_validation(self):
        for build, message in (
            (
                lambda: QoSMeasurement(overall_qos=-1.0),
                "overall_qos must be non-negative, got -1.0",
            ),
            (
                lambda: QoSMeasurement(-0.5, (), ()),
                "overall_qos must be non-negative, got -0.5",
            ),
            (
                lambda: LegObservation(config=None, fraction=2.0, qos=0.0),
                "fraction must be in [0, 1], got 2.0",
            ),
            (
                lambda: LegObservation(None, -0.1, 0.0),
                "fraction must be in [0, 1], got -0.1",
            ),
            (
                lambda: LegObservation(config=None, fraction=0.5, qos=-1.0),
                "qos must be non-negative, got -1.0",
            ),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == message
