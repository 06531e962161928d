"""Cost-minimizing configuration scheduling (Section IV-C, Eqns. 5–6).

The optimizer maps a speedup demand s(t) into a schedule of
configurations over a quantum of τ time units:

    minimize   τ_idle·c_idle + (1/τ)·Σ_k τ_k·c_k
    subject to (1/τ)·Σ_k τ_k·s_k = s(t)
               τ_idle + Σ_k τ_k = τ,   τ_k ≥ 0            (Eqn. 5)

Linear-programming theory says a problem with two constraints has an
optimal solution with at most two non-zero τ_k — the paper names them
``over`` and ``under``:

    over  = argmin_k { c_k | s_k > s(t) }
    under = argmax_k { s_k / c_k | s_k < s(t) }
    t_over  = τ · (s(t) − s_under) / (s_over − s_under)
    t_under = τ − t_over                                   (Eqn. 6)

This module provides both the paper's over/under rule
(:func:`solve_two_config`) — what the CASH runtime executes with
*learned* speedups — and the exact LP optimum via the lower convex
envelope (:func:`lower_envelope_cost`), which the oracle uses with
*true* speedups.
"""

from __future__ import annotations

from bisect import insort
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import native, perf
from repro.arch.vcore import VCoreConfig

# Values built once or more per control interval are NamedTuples: a
# frozen dataclass sets each field through ``object.__setattr__``, a
# tuple is built in one call.  A NamedTuple body cannot override
# ``__new__``, so a type that validates subclasses its fields tuple
# with ``__slots__ = ()`` (no instance dict), and its ``__new__``
# checks the fields and then builds the tuple directly.
_new_tuple = tuple.__new__


class _ConfigPointFields(NamedTuple):
    config: Optional[VCoreConfig]
    speedup: float
    cost_rate: float


class ConfigPoint(_ConfigPointFields):
    """One configuration's operating point: speedup s_k and cost c_k."""

    __slots__ = ()

    def __new__(
        cls, config: Optional[VCoreConfig], speedup: float, cost_rate: float
    ) -> "ConfigPoint":
        if speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {speedup}")
        if cost_rate < 0:
            raise ValueError(f"cost_rate must be non-negative, got {cost_rate}")
        return _new_tuple(cls, (config, speedup, cost_rate))

    @property
    def is_idle(self) -> bool:
        return self.config is None

    @property
    def efficiency(self) -> float:
        """Speedup per unit cost (the ``under`` selection metric)."""
        # cost_rate is validated non-negative, so <= is the exact guard
        # without relying on float equality.
        if self.cost_rate <= 0.0:
            return float("inf") if self.speedup > 0 else 0.0
        return self.speedup / self.cost_rate


IDLE_POINT = ConfigPoint(config=None, speedup=0.0, cost_rate=0.0)


class _ScheduleEntryFields(NamedTuple):
    point: ConfigPoint
    fraction: float


class ScheduleEntry(_ScheduleEntryFields):
    """One leg of a schedule: run ``point`` for ``fraction`` of τ."""

    __slots__ = ()

    def __new__(cls, point: ConfigPoint, fraction: float) -> "ScheduleEntry":
        if not -1e-12 <= fraction <= 1.0 + 1e-12:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return _new_tuple(cls, (point, fraction))


class _ScheduleFields(NamedTuple):
    entries: Tuple[ScheduleEntry, ...]
    saturated: bool


class Schedule(_ScheduleFields):
    """A (at most two-leg) schedule over one quantum.

    ``saturated`` is True when the demand exceeded every
    configuration's speedup and the schedule was clamped to the fastest
    configuration.
    """

    __slots__ = ()

    def __new__(
        cls, entries: Tuple[ScheduleEntry, ...], saturated: bool = False
    ) -> "Schedule":
        # This and the averages below add left to right in a loop, not
        # with builtin ``sum()``, which compensates float rounding from
        # CPython 3.12 on: CASH's Kalman update reads ``average_speedup``.
        total = 0.0
        for entry in entries:
            total += entry.fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"schedule fractions sum to {total}, not 1")
        return _new_tuple(cls, (entries, saturated))

    @property
    def average_speedup(self) -> float:
        total = 0.0
        for entry in self.entries:
            total += entry.point.speedup * entry.fraction
        return total

    @property
    def average_cost_rate(self) -> float:
        total = 0.0
        for entry in self.entries:
            total += entry.point.cost_rate * entry.fraction
        return total

    @property
    def active_entries(self) -> Tuple[ScheduleEntry, ...]:
        return tuple(e for e in self.entries if not e.point.is_idle)

    def configs(self) -> List[VCoreConfig]:
        return [e.point.config for e in self.active_entries]


def solve_two_config(
    points: Sequence[ConfigPoint],
    target_speedup: float,
    idle: ConfigPoint = IDLE_POINT,
) -> Schedule:
    """The paper's over/under two-configuration rule (Eqn. 6).

    ``points`` are the candidate configurations with their (possibly
    learned) speedups and cost rates; ``idle`` is the do-nothing point
    (zero speedup and, optimistically, zero cost).
    """
    if target_speedup < 0:
        raise ValueError(
            f"target_speedup must be non-negative, got {target_speedup}"
        )
    if not points:
        raise ValueError("need at least one configuration point")
    if target_speedup <= 0.0:
        return Schedule(entries=(ScheduleEntry(idle, 1.0),))

    # Exact hit: a single configuration meets the demand exactly.
    exact = [p for p in points if abs(p.speedup - target_speedup) <= 1e-12]
    if exact:
        cheapest = min(exact, key=lambda p: p.cost_rate)
        return Schedule(entries=(ScheduleEntry(cheapest, 1.0),))

    over_candidates = [p for p in points if p.speedup > target_speedup]
    under_candidates = [p for p in points if p.speedup < target_speedup]

    if not over_candidates:
        # Demand is unreachable; clamp to the fastest configuration and
        # flag saturation so the caller can surface the QoS risk.  With
        # noisy (learned) speedups several configurations tie for
        # fastest within the noise, so pick the cheapest of the
        # near-fastest set — this keeps the choice stable in tight
        # phases instead of churning on the noisy argmax.
        fastest_speed = max(p.speedup for p in points)
        fastest = min(
            (p for p in points if p.speedup >= 0.98 * fastest_speed),
            key=lambda p: p.cost_rate,
        )
        return Schedule(entries=(ScheduleEntry(fastest, 1.0),), saturated=True)

    over = min(over_candidates, key=lambda p: (p.cost_rate, p.speedup))
    if under_candidates:
        under = max(under_candidates, key=lambda p: (p.efficiency, -p.cost_rate))
    else:
        under = idle

    t_over = (target_speedup - under.speedup) / (over.speedup - under.speedup)
    t_over = min(max(t_over, 0.0), 1.0)
    return Schedule(
        entries=(
            ScheduleEntry(over, t_over),
            ScheduleEntry(under, 1.0 - t_over),
        )
    )


def _lower_hull(points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Lower convex hull of 2D points sorted by x (Andrew's monotone chain)."""
    return _lower_hull_presorted(sorted(set(points)))


def _lower_hull_presorted(
    points: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Monotone chain over already-sorted, already-deduplicated points.

    The envelope twin sorts its first-wins keys itself and then pays
    only for this chain — the exact same comparisons (and therefore the
    exact same hull) as :func:`_lower_hull` on the equivalent input.
    """
    if len(points) <= 2:
        return list(points)
    hull: List[Tuple[float, float]] = []
    append = hull.append
    pop = hull.pop
    for point in points:
        px, py = point
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            if cross <= 0:
                pop()
            else:
                break
        append(point)
    return hull


def _build_envelope(
    buffers: native.EnvelopeBuffers,
    owner: Callable[[int], ConfigPoint],
    idle: ConfigPoint,
) -> tuple:
    """Frozen ``(hull, best_at)`` of the points in ``buffers``.

    The same hull :func:`compute_envelope` builds from ``idle`` and
    the points ``owner(i)``, whose speedup and cost are
    ``buffers.keys[0, i]`` and ``buffers.keys[1, i]``: first-wins keys,
    idle's key only when no point carries it, and the monotone chain
    over them sorted.  ``best_at`` holds hull vertices only — the keys
    the LP ever looks up — so a caller builds at most one
    ``ConfigPoint`` per vertex, the point at the first position
    carrying its key.  A vertex is read back from its point, as
    ``compute_envelope`` reads it.  The envelope is published frozen
    (tuple hull, read-only mapping view): it may be shared by every
    consumer until its points change, so in-place edits must be
    impossible.

    With the fast paths on and the compiled core loaded, one native
    call ranks the keys and runs the chain; otherwise, or when a key is
    NaN, :func:`_build_envelope_reference` does.
    """
    core = native.batch_core() if perf.FAST else None
    if core is not None:
        count = core.lower_envelope(buffers, idle.speedup, idle.cost_rate)
        if count >= 0:
            hull = []
            best_at = {}
            for position in buffers.scratch[1, :count].tolist():
                point = idle if position < 0 else owner(position)
                key = (point.speedup, point.cost_rate)
                best_at[key] = point
                hull.append(key)
            return tuple(hull), MappingProxyType(best_at)
    return _build_envelope_reference(buffers.keys, owner, idle)


def _build_envelope_reference(
    keys: np.ndarray,
    owner: Callable[[int], ConfigPoint],
    idle: ConfigPoint,
) -> tuple:
    """Scalar twin of :func:`_build_envelope`: the first-wins keys
    sorted, idle's key inserted when no point carries it, and the
    Python monotone chain."""
    speedups, costs = keys.tolist()
    first: Dict[Tuple[float, float], int] = {}
    for position, key in enumerate(zip(speedups, costs)):
        first.setdefault(key, position)
    keys_sorted = sorted(first)
    idle_key = (idle.speedup, idle.cost_rate)
    if idle_key not in first:
        insort(keys_sorted, idle_key)
    hull = _lower_hull_presorted(keys_sorted)
    best_at = {
        vertex: owner(first[vertex]) if vertex in first else idle
        for vertex in hull
    }
    return tuple(hull), MappingProxyType(best_at)


def compute_envelope(
    points: Sequence[ConfigPoint],
    idle: ConfigPoint = IDLE_POINT,
) -> Tuple[List[Tuple[float, float]], Dict[Tuple[float, float], ConfigPoint]]:
    """Lower convex envelope of {(s_k, c_k)} ∪ {idle}.

    Returns ``(hull, best_at)``: the hull vertices sorted by speedup and
    the map from each distinct (speedup, cost) pair back to the first
    configuration point carrying it.  This is the target-independent
    part of :func:`lower_envelope_cost`, split out so callers that solve
    many targets against the same operating points (the oracle, the
    runtime's per-step over/under solve) can reuse one envelope.
    """
    best_at: Dict[Tuple[float, float], ConfigPoint] = {}
    for p in points:
        key = (p.speedup, p.cost_rate)
        if key not in best_at:
            best_at[key] = p
    idle_key = (idle.speedup, idle.cost_rate)
    if idle_key not in best_at:
        best_at[idle_key] = idle
    hull = _lower_hull(list(best_at))
    return hull, best_at


def lower_envelope_cost(
    points: Sequence[ConfigPoint],
    target_speedup: float,
    idle: ConfigPoint = IDLE_POINT,
) -> Tuple[float, Schedule]:
    """Exact optimum of Eqn. 5: minimal cost rate to average s(t).

    Time-sharing makes any point on a segment between two operating
    points reachable, so the optimum lies on the lower convex envelope
    of {(s_k, c_k)} ∪ {idle}.  Returns ``(cost_rate, schedule)``.
    Raises ``ValueError`` if the target exceeds every speedup.

    When ``points`` carries a memoized envelope (an
    :class:`~repro.sim.optables.OperatingPointTable` or a
    :class:`LearnedPoints`) and the fast paths are on, the cached hull
    is reused instead of being rebuilt per call.
    """
    if target_speedup < 0:
        raise ValueError(
            f"target_speedup must be non-negative, got {target_speedup}"
        )
    if not len(points):
        raise ValueError("need at least one configuration point")
    cached = getattr(points, "envelope", None)
    if cached is not None and perf.FAST:
        hull, best_at = cached(idle)
    else:
        hull, best_at = compute_envelope(points, idle)
    max_speed = hull[-1][0]
    if target_speedup > max_speed + 1e-12:
        raise ValueError(
            f"target speedup {target_speedup} exceeds the fastest "
            f"configuration ({max_speed})"
        )
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 - 1e-12 <= target_speedup <= x2 + 1e-12:
            span = x2 - x1
            weight = 0.0 if span == 0 else (target_speedup - x1) / span
            weight = min(max(weight, 0.0), 1.0)
            cost = y1 + weight * (y2 - y1)
            schedule = Schedule(
                entries=(
                    ScheduleEntry(best_at[(x2, y2)], weight),
                    ScheduleEntry(best_at[(x1, y1)], 1.0 - weight),
                )
            )
            return cost, schedule
    # target equals the single hull point (hull of length 1).
    point = best_at[hull[0]]
    return point.cost_rate, Schedule(entries=(ScheduleEntry(point, 1.0),))


class LearnedPoints:
    """A live, incrementally-maintained view of a learner's raw-QoS points.

    The seed runtime rebuilt the full ``ConfigPoint`` list (and the
    lower hull) from fresh ``qos_estimates()`` dictionaries on every
    step — ~130 ``ConfigPoint`` constructions and two hull sorts per
    control interval.  A Q-learning update only touches the one or two
    configurations that actually executed, so this view keeps every
    position's estimate in one float64 buffer of its own and writes
    exactly the entries whose estimates changed (tracked by the
    learner's ``estimates_version`` counter and per-config change log);
    a full rebuild reads every estimate in one call when the learner
    keeps them in this catalogue's order.
    The lower envelope is cached and rebuilt only when some estimate
    moved since it was last built; a rebuild hands the estimates and
    cost rates to the compiled chain in one call (its Python twin sorts
    the same keys), and builds first-wins owners for hull vertices
    only.  A position's ``ConfigPoint`` is built only when
    something reads it — a hull vertex's owner, :meth:`points` or
    iteration — and is cached until that position's estimate changes.
    Once :meth:`points` has read the whole list, changes patch it in
    place until the next full rebuild.  Estimates read back from the
    buffer are Python floats.

    Points are expressed in *raw QoS units* (q̂_k, not ŝ_k) — the units
    the CASH runtime solves in — so changes to the base-speed estimate
    alone do not invalidate anything.

    With :data:`repro.perf.FAST` off, every access rebuilds from
    scratch, reproducing the reference engine's behaviour for A/B
    benchmarking.
    """

    def __init__(
        self,
        learner: "SpeedupLearnerLike",
        configs: Sequence[VCoreConfig],
        cost_rates: Sequence[float],
    ) -> None:
        if len(configs) != len(cost_rates):
            raise ValueError(
                f"{len(configs)} configs but {len(cost_rates)} cost rates"
            )
        if not configs:
            raise ValueError("need at least one configuration")
        for rate in cost_rates:
            if rate < 0:
                raise ValueError(f"cost_rate must be non-negative, got {rate}")
        self._learner = learner
        self._configs = list(configs)
        self._cost_rates = list(cost_rates)
        # A learner that hands its estimates over in this catalogue's
        # order (a runtime's own learner does) lets a full rebuild read
        # them in one call.  Duplicated configs, another order or a
        # learner without the method keep the per-config reads.
        ordered = getattr(learner, "ordered_qos_estimates", None)
        self._ordered: Optional[Callable[[], List[float]]] = (
            ordered
            if ordered is not None
            and list(getattr(learner, "configs", ())) == self._configs
            else None
        )
        self._index: Dict[VCoreConfig, int] = {}
        for position, config in enumerate(self._configs):
            self._index.setdefault(config, position)
        self._version: Optional[int] = None
        # One float64 buffer holds the envelope chain's keys: row 0 each
        # position's raw-QoS estimate, written in place, and row 1 its
        # cost rate.  The ConfigPoint built from a position is cached on
        # first read (None until then).  Once ``points()`` has filled
        # every position (``_whole``), changes patch the list in place,
        # so a whole list is never handed out with holes.
        size = len(self._configs)
        self._keys = np.zeros((2, size), dtype=np.float64)
        self._keys[1] = self._cost_rates
        self._buffers = native.EnvelopeBuffers(
            self._keys, np.zeros((2, size + 1), dtype=np.int64)
        )
        self._points: List[Optional[ConfigPoint]] = []
        self._whole = False
        self._envelopes: Dict[tuple, tuple] = {}

    def _estimate(self, config: VCoreConfig) -> float:
        """The learner's estimate, checked as a ``ConfigPoint`` would."""
        speedup = self._learner.qos_estimate(config)
        if speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {speedup}")
        return speedup

    def _rebuild_all(self) -> None:
        if perf.FAST and self._ordered is not None:
            estimates = self._ordered()
            # The first negative estimate in catalogue order raises, as
            # the per-config reads do; a NaN before it must not hide it.
            negative = next((value for value in estimates if value < 0), None)
            if negative is not None:
                raise ValueError(f"speedup must be non-negative, got {negative}")
            self._keys[0] = estimates
        else:
            self._keys[0] = [self._estimate(config) for config in self._configs]
        self._points = [None] * len(self._configs)
        self._whole = False

    def _apply_change(self, position: int, speedup: float) -> None:
        self._keys[0, position] = speedup
        self._points[position] = None
        if self._whole:
            self._point_at(position)

    def _refresh(self) -> None:
        version = getattr(self._learner, "estimates_version", None)
        if not perf.FAST or version is None:
            self._rebuild_all()
            self._envelopes = {}
            self._version = None
            return
        # A version is pinned only after the buffer has been filled.
        if self._version == version:
            return
        changed = (
            self._learner.changes_since(self._version)
            if self._version is not None
            else None
        )
        if changed is None:
            self._rebuild_all()
        else:
            for config in changed:
                position = self._index.get(config)
                if position is None:
                    continue
                self._apply_change(position, self._estimate(config))
        self._envelopes = {}
        self._version = version

    def _point_at(self, position: int) -> ConfigPoint:
        point = self._points[position]
        if point is None:
            point = ConfigPoint(
                config=self._configs[position],
                speedup=self._keys.item(0, position),
                cost_rate=self._cost_rates[position],
            )
            self._points[position] = point
        return point

    def points(self) -> List[ConfigPoint]:
        """The current operating points, patched up to date."""
        self._refresh()
        if not self._whole:
            for position in range(len(self._points)):
                self._point_at(position)
            self._whole = True
        return self._points

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[ConfigPoint]:
        return iter(self.points())

    def __getitem__(self, index):
        return self.points()[index]

    def saturation_clamp(self, target: float) -> Optional[ConfigPoint]:
        """:func:`solve_two_config`'s clamp for a saturated ``target``.

        None unless every estimate lies below ``target`` by more than
        the solver's exact-hit tolerance (1e-12), and None when no
        estimate reaches 0.98 x the largest (a NaN largest, on which
        the solver raises).  Otherwise the point its saturated branch
        picks — the first cheapest estimate within 2% of the largest —
        found on the estimates as floats, so only that one
        ``ConfigPoint`` is built.
        """
        self._refresh()
        speedups = self._keys[0].tolist()
        fastest = max(speedups)
        # Rounding is monotone, so the largest estimate is the one
        # nearest a target above them all: this one test rules out both
        # the solver's over candidates and its exact hits.
        if target - fastest <= 1e-12:
            return None
        floor = 0.98 * fastest
        rates = self._cost_rates
        best = -1
        for position, speedup in enumerate(speedups):
            if speedup >= floor and (best < 0 or rates[position] < rates[best]):
                best = position
        if best < 0:
            return None
        return self._point_at(best)

    def envelope(self, idle: ConfigPoint = IDLE_POINT) -> tuple:
        """Cached ``(hull, best_at)``, rebuilt only on estimate change.

        The rebuild is :func:`_build_envelope` on the estimates and
        cost rates — the hull :func:`compute_envelope` builds from
        scratch — with first-wins owners for hull vertices only (the
        solver never looks up points off the hull).
        """
        self._refresh()
        cache_key = (idle.config, idle.speedup, idle.cost_rate)
        cached = self._envelopes.get(cache_key)
        if cached is None:
            cached = _build_envelope(self._buffers, self._point_at, idle)
            self._envelopes[cache_key] = cached
        return cached


class SpeedupLearnerLike:  # pragma: no cover - typing aid only
    """Protocol sketch of what :class:`LearnedPoints` needs."""

    estimates_version: int

    def qos_estimate(self, config: VCoreConfig) -> float: ...

    def changes_since(self, version: int) -> Optional[List[VCoreConfig]]: ...

    # Optional: ``configs`` and ``ordered_qos_estimates()``, every
    # estimate in that order, for one-call full rebuilds.


class LearningOptimizer:
    """The runtime's optimizer: learned speedups through the LP rule.

    Holds the configuration catalogue (with cost rates from the cost
    model) and, given the learner's current speedup estimates, produces
    the over/under schedule for a speedup demand.
    """

    def __init__(
        self,
        configs: Sequence[VCoreConfig],
        cost_rates: Sequence[float],
        idle: ConfigPoint = IDLE_POINT,
    ) -> None:
        if len(configs) != len(cost_rates):
            raise ValueError(
                f"{len(configs)} configs but {len(cost_rates)} cost rates"
            )
        if not configs:
            raise ValueError("need at least one configuration")
        self.configs = list(configs)
        self.cost_rates = list(cost_rates)
        self.idle = idle

    def points(self, speedups: Dict[VCoreConfig, float]) -> List[ConfigPoint]:
        missing = [c for c in self.configs if c not in speedups]
        if missing:
            raise KeyError(f"no speedup estimate for {missing[:3]}...")
        return [
            ConfigPoint(config=c, speedup=speedups[c], cost_rate=rate)
            for c, rate in zip(self.configs, self.cost_rates)
        ]

    def schedule(
        self, speedups: Dict[VCoreConfig, float], target_speedup: float
    ) -> Schedule:
        return solve_two_config(self.points(speedups), target_speedup, self.idle)

    def optimal_cost(
        self, speedups: Dict[VCoreConfig, float], target_speedup: float
    ) -> Tuple[float, Schedule]:
        return lower_envelope_cost(
            self.points(speedups), target_speedup, self.idle
        )

    def learned_points(self, learner: "SpeedupLearnerLike") -> LearnedPoints:
        """An incremental point view bound to this catalogue's costs."""
        return LearnedPoints(learner, self.configs, self.cost_rates)

    def schedule_points(
        self, points: Sequence[ConfigPoint], target_speedup: float
    ) -> Schedule:
        """Over/under schedule from pre-built points (no dict round-trip).

        A saturated demand on a :class:`LearnedPoints` view is clamped
        by :meth:`LearnedPoints.saturation_clamp`, which reads the
        view's float lists instead of building every point; the
        schedule is the one :func:`solve_two_config` returns.
        """
        if perf.FAST and isinstance(points, LearnedPoints):
            clamp = points.saturation_clamp(target_speedup)
            if clamp is not None:
                return Schedule(
                    entries=(ScheduleEntry(clamp, 1.0),), saturated=True
                )
        return solve_two_config(points, target_speedup, self.idle)

    def optimal_cost_points(
        self, points: Sequence[ConfigPoint], target_speedup: float
    ) -> Tuple[float, Schedule]:
        """Envelope LP from pre-built points (cache-aware via envelope)."""
        return lower_envelope_cost(points, target_speedup, self.idle)
