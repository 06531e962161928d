"""The latency simulator's lazy true-point view against the eager list.

On the fast path ``LatencySimulator.true_points`` returns a view that
builds ``ConfigPoint`` objects only when read.  Whatever an allocator
reads through it — iteration, ``len``, indexing, the oracle's envelope,
race-to-idle's ``point_for`` — must equal the list the scalar reference
path builds, and wherever that list raises the view must raise the same
error.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.arch.vcore import VCoreConfig
from repro.experiments.harness import _CapacityPoints, _PhaseCapacities
from repro.experiments.scenarios import make_latency_simulator
from repro.runtime.optimizer import ConfigPoint, IDLE_POINT, compute_envelope
from repro.sim.optables import OperatingPointTable
from repro.workloads.apps import get_app

APPS = ("apache", "mailserver")
SIMS = {name: make_latency_simulator(get_app(name)) for name in APPS}
OUTSIDE_SPACE = VCoreConfig(3, 192)

# -cycles_per_second / target_latency: zero required capacity.
ZERO_REQUIRED_RATE = -1.0e8 / 110_000.0

CASES = st.tuples(
    st.sampled_from(APPS),
    st.integers(0, 63),
    st.one_of(
        st.floats(0.0, 5_000.0),
        st.floats(-5_000.0, 5_000.0, allow_nan=False),
    ),
    st.sampled_from(
        [IDLE_POINT, ConfigPoint(config=None, speedup=0.0, cost_rate=0.004)]
    ),
)


def eager_points(sim, phase, rate):
    """The reference path's list, or the exception it raises."""
    with perf.fast_paths(False):
        try:
            return sim.true_points(phase, rate), None
        except (ValueError, ZeroDivisionError) as error:
            return None, error


def fast_points(sim, phase, rate):
    with perf.fast_paths(True):
        return sim.true_points(phase, rate)


class TestLatencyPointView:
    @given(case=CASES)
    @example(case=("apache", 0, 800.0, IDLE_POINT))
    @example(case=("mailserver", 1, -2_000.0, IDLE_POINT))
    @example(case=("apache", 2, ZERO_REQUIRED_RATE, IDLE_POINT))
    @settings(max_examples=60, deadline=None)
    def test_view_matches_eager_list(self, case):
        name, phase_index, rate, idle = case
        sim = SIMS[name]
        phase = sim.app.phases[phase_index % len(sim.app.phases)]
        eager, error = eager_points(sim, phase, rate)
        if error is not None:
            with pytest.raises(type(error)) as raised:
                fast_points(sim, phase, rate)
            assert str(raised.value) == str(error)
            return

        # Read paths that build no full list, each on a fresh view.
        hull, best_at = fast_points(sim, phase, rate).envelope(idle)
        fresh_hull, fresh_best = compute_envelope(eager, idle)
        assert list(hull) == fresh_hull
        for vertex in hull:
            assert best_at[vertex] == fresh_best[vertex]
        lookup = fast_points(sim, phase, rate)
        for config in sim.space:
            first = next(p for p in eager if p.config == config)
            assert lookup.point_for(config) == first
        assert lookup.point_for(OUTSIDE_SPACE) is None

        # The sequence protocol gives exactly the eager list.
        view = fast_points(sim, phase, rate)
        assert len(view) == len(eager)
        assert [view[index] for index in range(len(eager))] == eager
        assert view[-1] == eager[-1]
        assert list(view) == eager
        # Materializing the list changes no other answer.
        assert list(view.envelope(idle)[0]) == fresh_hull
        assert view.point_for(eager[7].config) == eager[7]

    @pytest.mark.parametrize("rate", [800.0, -2_000.0])
    def test_negative_capacities_fall_back_to_eager_list(self, rate):
        # No valid model yields a negative capacity; a negative
        # per-request instruction count forces one past the phase check.
        app = get_app("apache")
        sim = make_latency_simulator(app)
        app.instructions_per_request = -app.instructions_per_request
        phase = app.phases[0]
        eager, error = eager_points(sim, phase, rate)
        if error is not None:
            with pytest.raises(ValueError) as raised:
                fast_points(sim, phase, rate)
            assert str(raised.value) == str(error)
        else:
            # Negative capacity over negative required capacity: every
            # point is valid, and the eager list is what comes back.
            points = fast_points(sim, phase, rate)
            assert isinstance(points, list)
            assert points == eager

    def test_duplicates_resolve_first_wins(self):
        # No configuration space here repeats a (speedup, cost) key or a
        # configuration, so pin the first-wins rules on a built table.
        small, large = VCoreConfig(1, 64), VCoreConfig(2, 128)
        table = OperatingPointTable(
            (
                ConfigPoint(config=small, speedup=2.0, cost_rate=0.01),
                ConfigPoint(config=large, speedup=2.0, cost_rate=0.01),
                ConfigPoint(config=small, speedup=5.0, cost_rate=0.05),
                ConfigPoint(config=large, speedup=9.0, cost_rate=0.20),
            )
        )
        per_request, required = 4.0, 0.5
        eager = [
            ConfigPoint(
                config=point.config,
                speedup=point.speedup / per_request / required,
                cost_rate=point.cost_rate,
            )
            for point in table
        ]
        entries = _PhaseCapacities(table, per_request)
        hull, best_at = _CapacityPoints(entries, required).envelope()
        fresh_hull, fresh_best = compute_envelope(eager)
        assert list(hull) == fresh_hull
        assert (1.0, 0.01) in hull
        for vertex in hull:
            assert best_at[vertex] == fresh_best[vertex]
        view = _CapacityPoints(entries, required)
        assert view.point_for(small) == eager[0]
        assert view.point_for(large) == eager[1]
