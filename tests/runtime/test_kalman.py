"""The Kalman base-speed estimator and phase-change detector."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.kalman import KalmanEstimator, PhaseChangeDetector


def make_estimator(**overrides):
    defaults = dict(
        initial_base=1.0,
        process_variance=1e-4,
        measurement_variance=1e-3,
    )
    defaults.update(overrides)
    return KalmanEstimator(**defaults)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            KalmanEstimator(initial_base=0)
        with pytest.raises(ValueError):
            KalmanEstimator(initial_base=1, process_variance=0)
        with pytest.raises(ValueError):
            KalmanEstimator(initial_base=1, measurement_variance=0)
        with pytest.raises(ValueError):
            KalmanEstimator(initial_base=1, initial_error_variance=0)

    def test_update_rejects_negative(self):
        estimator = make_estimator()
        with pytest.raises(ValueError):
            estimator.update(-1.0, 1.0)
        with pytest.raises(ValueError):
            estimator.update(1.0, -1.0)

    def test_reset(self):
        estimator = make_estimator()
        variance = estimator.error_variance
        estimator.reset(2.5)
        assert estimator.estimate == 2.5
        assert estimator.error_variance == variance
        with pytest.raises(ValueError):
            estimator.reset(0.0)


class TestConvergence:
    @settings(max_examples=30, deadline=None)
    @given(
        true_base=st.floats(min_value=0.1, max_value=5.0),
        speedup=st.floats(min_value=0.5, max_value=8.0),
    )
    def test_converges_to_true_base_noiseless(self, true_base, speedup):
        """Property: with q = s*b exactly, the estimate converges to b."""
        estimator = make_estimator(initial_base=1.0)
        for _ in range(200):
            estimator.update(speedup * true_base, speedup)
        assert estimator.estimate == pytest.approx(true_base, rel=0.02)

    def test_converges_under_noise(self):
        rng = random.Random(0)
        true_base = 0.7
        estimator = make_estimator()
        for _ in range(500):
            q = 2.0 * true_base * (1 + rng.gauss(0, 0.02))
            estimator.update(q, 2.0)
        assert estimator.estimate == pytest.approx(true_base, rel=0.05)

    def test_tracks_base_speed_shift(self):
        """A phase change (b doubles) moves the estimate quickly —
        convergence is exponential (Section IV-B)."""
        estimator = make_estimator()
        for _ in range(100):
            estimator.update(2.0 * 0.5, 2.0)
        before = estimator.estimate
        steps = 0
        while abs(estimator.estimate - 1.0) > 0.1 and steps < 50:
            estimator.update(2.0 * 1.0, 2.0)
            steps += 1
        assert steps < 25
        assert estimator.estimate > before

    def test_variance_stays_positive(self):
        estimator = make_estimator()
        for i in range(100):
            estimator.update(1.0 + (i % 3) * 0.01, 1.5)
            assert estimator.error_variance > 0

    def test_gain_and_innovation_exposed(self):
        estimator = make_estimator()
        estimator.update(2.0, 1.0)
        assert estimator.last_gain > 0
        assert estimator.last_innovation == pytest.approx(2.0 - 1.0)

    def test_estimate_never_collapses_to_zero(self):
        estimator = make_estimator()
        for _ in range(100):
            estimator.update(0.0, 5.0)
        assert estimator.estimate > 0

    def test_zero_speedup_leaves_estimate(self):
        """With s = 0 the measurement carries no base-speed information
        (gain is zero)."""
        estimator = make_estimator()
        before = estimator.estimate
        estimator.update(0.5, 0.0)
        assert estimator.estimate == before


class TestPhaseChangeDetector:
    def test_no_detection_when_stable(self):
        estimator = make_estimator()
        detector = PhaseChangeDetector(estimator, threshold=0.2)
        for _ in range(50):
            estimator.update(1.0, 1.0)
            assert detector.observe() is None

    def test_detects_confirmed_shift(self):
        estimator = make_estimator()
        detector = PhaseChangeDetector(estimator, threshold=0.2, confirm=2)
        for _ in range(20):
            estimator.update(1.0, 1.0)
            detector.observe()
        changes = []
        for _ in range(30):
            estimator.update(3.0, 1.0)  # base tripled
            change = detector.observe()
            if change:
                changes.append(change)
        assert len(changes) == 1
        assert changes[0].new_base > changes[0].previous_base
        assert changes[0].magnitude > 0

    def test_single_step_excursion_ignored(self):
        """One outlier is a disturbance, not a phase (confirm=2)."""
        estimator = make_estimator(
            measurement_variance=1e-6, process_variance=1e-2
        )
        detector = PhaseChangeDetector(estimator, threshold=0.2, confirm=2)
        for _ in range(10):
            estimator.update(1.0, 1.0)
            detector.observe()
        estimator.update(5.0, 1.0)  # a page fault, say
        first = detector.observe()
        estimator.update(1.0, 1.0)
        second = detector.observe()
        assert first is None
        # The estimate snapped back before confirmation completed.
        assert second is None

    def test_reference_reanchors_after_detection(self):
        estimator = make_estimator()
        detector = PhaseChangeDetector(estimator, threshold=0.2, confirm=1)
        for _ in range(10):
            estimator.update(1.0, 1.0)
            detector.observe()
        fired = 0
        for _ in range(40):
            estimator.update(4.0, 1.0)
            if detector.observe():
                fired += 1
        assert fired == 1  # one phase change, not one per step

    def test_validation(self):
        estimator = make_estimator()
        with pytest.raises(ValueError):
            PhaseChangeDetector(estimator, threshold=0)
        with pytest.raises(ValueError):
            PhaseChangeDetector(estimator, confirm=0)
