"""Kalman estimation of the application's base speed (Eqns. 3–4).

The controller's key parameter is ``b``, the base QoS (QoS on one Slice
with 64 KB of L2).  A phase change is precisely a shift in ``b``, but
``b`` cannot be measured directly without dropping to the base
configuration — which would violate QoS.  CASH instead estimates it from
the observable pair (applied speedup, delivered QoS) with a scalar
Kalman filter over the time-varying model

    b(t) = b(t-1) + δb(t)
    q(t) = s(t-1) · b(t-1) + δq(t)                        (Eqn. 3)

The filter is statistically optimal and exponentially convergent: the
steps needed to detect a phase change are logarithmic in the base-speed
gap between consecutive phases (Section IV-B).  The only parameter not
measured from hardware is ``r``, the measurement noise, a constant
property of the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class KalmanEstimator:
    """Scalar Kalman filter tracking base QoS b(t)."""

    def __init__(
        self,
        initial_base: float,
        process_variance: float = 0.01,
        measurement_variance: float = 0.01,
        initial_error_variance: float = 1.0,
    ) -> None:
        if initial_base <= 0:
            raise ValueError(f"initial_base must be positive, got {initial_base}")
        if process_variance <= 0:
            raise ValueError(
                f"process_variance must be positive, got {process_variance}"
            )
        if measurement_variance <= 0:
            raise ValueError(
                f"measurement_variance must be positive, got {measurement_variance}"
            )
        if initial_error_variance <= 0:
            raise ValueError(
                f"initial_error_variance must be positive, "
                f"got {initial_error_variance}"
            )
        self._b_hat = initial_base
        self.process_variance = process_variance
        self.measurement_variance = measurement_variance
        self._error_variance = initial_error_variance
        self.last_gain = 0.0
        self.last_innovation = 0.0

    @property
    def estimate(self) -> float:
        """The a-posteriori base-speed estimate b̂(t)."""
        return self._b_hat

    @property
    def error_variance(self) -> float:
        """The a-posteriori error variance E(t)."""
        return self._error_variance

    def update(self, measured_qos: float, applied_speedup: float) -> float:
        """Fold in one observation q(t) taken under speedup s(t-1).

        Implements Eqn. 4:

            b̂⁻(t)  = b̂(t-1)
            E⁻(t)  = E(t-1) + v(t)
            Kal(t) = E⁻(t)·s / (s²·E⁻(t) + r)
            b̂(t)   = b̂⁻(t) + Kal(t)·[q(t) − s·b̂⁻(t)]
            E(t)   = [1 − Kal(t)·s]·E⁻(t)
        """
        if measured_qos < 0:
            raise ValueError(
                f"measured_qos must be non-negative, got {measured_qos}"
            )
        if applied_speedup < 0:
            raise ValueError(
                f"applied_speedup must be non-negative, got {applied_speedup}"
            )
        s = applied_speedup
        b_prior = self._b_hat
        e_prior = self._error_variance + self.process_variance
        gain = (e_prior * s) / (s * s * e_prior + self.measurement_variance)
        innovation = measured_qos - s * b_prior
        self._b_hat = b_prior + gain * innovation
        self._error_variance = (1.0 - gain * s) * e_prior
        # Keep the estimate physically meaningful: base speed is
        # positive, and a transient of bad observations must not wedge
        # the filter at a non-recoverable operating point.
        if self._b_hat <= 0:
            self._b_hat = max(measured_qos / max(s, 1e-9), 1e-12)
        if self._error_variance <= 0:
            self._error_variance = self.process_variance
        self.last_gain = gain
        self.last_innovation = innovation
        return self._b_hat

    def reset(self, base: float) -> None:
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        self._b_hat = base


@dataclass(frozen=True)
class PhaseChange:
    """A detected shift in base speed."""

    step: int
    previous_base: float
    new_base: float

    @property
    def magnitude(self) -> float:
        return abs(self.new_base - self.previous_base)


class PhaseChangeDetector:
    """Flags phase changes from the Kalman estimate's movement.

    A phase change is declared when the estimate moves by more than
    ``threshold`` (relative) from its reference value for ``confirm``
    consecutive observations — a single-step excursion is usually a
    disturbance (a page fault, a mis-estimated schedule), not a phase.
    The reference re-anchors after each detection, so repeated drift in
    one direction raises repeated detections, one per phase.
    """

    def __init__(
        self,
        estimator: KalmanEstimator,
        threshold: float = 0.2,
        confirm: int = 2,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if confirm <= 0:
            raise ValueError(f"confirm must be positive, got {confirm}")
        self.estimator = estimator
        self.threshold = threshold
        self.confirm = confirm
        self._reference = estimator.estimate
        self._previous = estimator.estimate
        self._streak = 0
        self._step = 0
        self.changes: List[PhaseChange] = []

    def observe(self) -> Optional[PhaseChange]:
        """Check the current estimate; returns a change if one fired.

        Besides the drift-from-reference test, the estimate must have
        locally *settled* (small step-to-step movement): the Kalman
        filter converges to a large shift over several steps, and
        firing mid-transit would report one phase change as many.
        """
        self._step += 1
        current = self.estimator.estimate
        previous = self._previous
        self._previous = current
        if self._reference <= 0:
            self._reference = current
            return None
        drift = abs(current - self._reference) / self._reference
        if drift > self.threshold:
            self._streak += 1
        else:
            self._streak = 0
        settled = (
            previous > 0
            and abs(current - previous) / previous < self.threshold / 4.0
        )
        if self._streak >= self.confirm and settled:
            change = PhaseChange(
                step=self._step,
                previous_base=self._reference,
                new_base=current,
            )
            self.changes.append(change)
            self._reference = current
            self._streak = 0
            return change
        return None
