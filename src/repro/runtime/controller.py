"""Deadbeat QoS controller (Section IV-A, Eqns. 1–2).

The controller measures the error between the QoS goal and the
delivered QoS and computes the speedup — relative to the application's
base speed — that eliminates the error as fast as possible:

    e(t) = q0 - q(t)                                     (Eqn. 1)
    s(t) = s(t-1) + e(t) / b                             (Eqn. 2)

``b`` is the base QoS: the application's QoS on one Slice with a 64 KB
L2.  A deadbeat design drives the error to zero in one step under a
perfect model; the Kalman estimator supplies a continually updated
``b̂(t)`` so the controller stays deadbeat across phases.
"""

from __future__ import annotations

from typing import Optional


class DeadbeatController:
    """Integrates QoS error into a speedup demand."""

    def __init__(
        self,
        qos_goal: float,
        base_qos: float,
        min_speedup: float = 0.0,
        max_speedup: float = 64.0,
        initial_speedup: Optional[float] = None,
        gain: float = 1.0,
    ) -> None:
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        if base_qos <= 0:
            raise ValueError(f"base_qos must be positive, got {base_qos}")
        if min_speedup < 0:
            raise ValueError(f"min_speedup must be non-negative, got {min_speedup}")
        if max_speedup <= min_speedup:
            raise ValueError(
                f"max_speedup ({max_speedup}) must exceed min_speedup "
                f"({min_speedup})"
            )
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        self.qos_goal = qos_goal
        self.base_qos = base_qos
        self.min_speedup = min_speedup
        self.max_speedup = max_speedup
        self.gain = gain
        """Integrator gain κ.  κ = 1 is the paper's deadbeat design
        (one-step correction under a perfect model); κ < 1 damps the
        loop, trading a slower (1/κ-step) response for a √(κ/(2−κ))
        attenuation of measurement noise at the output."""
        if initial_speedup is None:
            # Start at the speedup that would exactly meet the goal if
            # the base-speed estimate were correct.
            initial_speedup = qos_goal / base_qos
        self._speedup = self._clamp(initial_speedup)
        self.last_error = 0.0

    def _clamp(self, speedup: float) -> float:
        return max(self.min_speedup, min(self.max_speedup, speedup))

    @property
    def speedup(self) -> float:
        """The current speedup demand s(t)."""
        return self._speedup

    def error(self, measured_qos: float) -> float:
        """QoS error e(t) = q0 - q(t) (Eqn. 1)."""
        return self.qos_goal - measured_qos

    def update(
        self,
        measured_qos: float,
        base_estimate: Optional[float] = None,
        max_useful_speedup: Optional[float] = None,
    ) -> float:
        """Advance the control law one interval; returns the new s(t).

        ``base_estimate`` is the Kalman filter's b̂(t); when omitted the
        static base QoS is used (the limited controller of Section IV-A
        that reacts to phases only slowly).

        ``max_useful_speedup`` is an anti-windup bound: when no
        configuration can deliver more than this speedup, integrating
        error beyond it only delays recovery once the demand becomes
        satisfiable again, so the integrator is clamped there.
        """
        if measured_qos < 0:
            raise ValueError(
                f"measured_qos must be non-negative, got {measured_qos}"
            )
        base = self.base_qos if base_estimate is None else base_estimate
        if base <= 0:
            raise ValueError(f"base estimate must be positive, got {base}")
        self.last_error = self.error(measured_qos)
        speedup = self._clamp(self._speedup + self.gain * self.last_error / base)
        if max_useful_speedup is not None:
            if max_useful_speedup <= 0:
                raise ValueError(
                    "max_useful_speedup must be positive, "
                    f"got {max_useful_speedup}"
                )
            speedup = min(speedup, max_useful_speedup)
        self._speedup = speedup
        return self._speedup

    def retarget(self, qos_goal: float) -> None:
        """Change the QoS goal mid-run (e.g. a customer edits their SLO)."""
        if qos_goal <= 0:
            raise ValueError(f"qos_goal must be positive, got {qos_goal}")
        self.qos_goal = qos_goal

    def reset(self, speedup: Optional[float] = None) -> None:
        if speedup is None:
            speedup = self.qos_goal / self.base_qos
        self._speedup = self._clamp(speedup)
        self.last_error = 0.0
