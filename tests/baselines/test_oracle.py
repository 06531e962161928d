"""The brute-force oracle (Section V-C)."""

import pytest

from repro import perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import DEFAULT_CONFIG_SPACE
from repro.baselines import oracle as oracle_module
from repro.baselines.oracle import (
    OracleAllocator,
    build_oracle_table,
    phase_points,
)
from repro.experiments.harness import _CapacityPoints
from repro.experiments.scenarios import make_latency_simulator
from repro.sim.optables import operating_point_table
from repro.sim.perfmodel import DEFAULT_PERF_MODEL
from repro.workloads.apps import get_app, make_x264


class TestPhasePoints:
    def test_one_point_per_config(self):
        phase = make_x264().phases[0]
        points = phase_points(phase, DEFAULT_PERF_MODEL)
        assert len(points) == len(DEFAULT_CONFIG_SPACE)

    def test_points_carry_true_ipc_and_cost(self):
        phase = make_x264().phases[0]
        for point in phase_points(phase, DEFAULT_PERF_MODEL):
            assert point.speedup == pytest.approx(
                DEFAULT_PERF_MODEL.ipc(phase, point.config)
            )
            assert point.cost_rate == pytest.approx(
                point.config.cost_rate(DEFAULT_COST_MODEL)
            )


class TestOracleTable:
    def test_entry_per_phase(self):
        app = make_x264()
        table = build_oracle_table(app, qos_goal=0.7, model=DEFAULT_PERF_MODEL)
        assert set(table) == {phase.name for phase in app.phases}

    def test_schedules_meet_goal(self):
        app = make_x264()
        goal = 0.7
        table = build_oracle_table(app, qos_goal=goal, model=DEFAULT_PERF_MODEL)
        for entry in table.values():
            assert entry.schedule.average_speedup == pytest.approx(goal)

    def test_cost_never_exceeds_cheapest_feasible_config(self):
        app = make_x264()
        goal = 0.7
        table = build_oracle_table(app, qos_goal=goal, model=DEFAULT_PERF_MODEL)
        for phase in app.phases:
            feasible = [
                config.cost_rate(DEFAULT_COST_MODEL)
                for config in DEFAULT_CONFIG_SPACE
                if DEFAULT_PERF_MODEL.ipc(phase, config) >= goal
            ]
            assert table[phase.name].cost_rate <= min(feasible) + 1e-12

    def test_rejects_bad_goal(self):
        with pytest.raises(ValueError):
            build_oracle_table(make_x264(), qos_goal=0, model=DEFAULT_PERF_MODEL)


class TestOracleAllocator:
    def test_decides_the_envelope_schedule(self):
        phase = make_x264().phases[0]
        points = phase_points(phase, DEFAULT_PERF_MODEL)
        allocator = OracleAllocator(qos_goal=0.7)
        schedule = allocator.decide(None, points)
        assert schedule.average_speedup == pytest.approx(0.7)

    def test_unreachable_goal_runs_fastest(self):
        phase = make_x264().phases[0]
        points = phase_points(phase, DEFAULT_PERF_MODEL)
        allocator = OracleAllocator(qos_goal=99.0)
        schedule = allocator.decide(None, points)
        assert schedule.saturated
        fastest = max(points, key=lambda p: p.speedup)
        assert schedule.entries[0].point is fastest

    def test_rejects_bad_goal(self):
        with pytest.raises(ValueError):
            OracleAllocator(qos_goal=-1)


@pytest.fixture
def solves(monkeypatch):
    """Every ``lower_envelope_cost`` call the oracle makes."""
    calls = []
    solve = oracle_module.lower_envelope_cost

    def counting(points, *args, **kwargs):
        calls.append(points)
        return solve(points, *args, **kwargs)

    monkeypatch.setattr(oracle_module, "lower_envelope_cost", counting)
    return calls


class TestOracleMemo:
    def table(self, index=0):
        phase = make_x264().phases[index]
        return operating_point_table(phase, DEFAULT_PERF_MODEL)

    def test_solves_once_per_table(self, solves):
        allocator = OracleAllocator(qos_goal=0.7)
        first, second = self.table(0), self.table(1)
        with perf.fast_paths(True):
            schedules = [
                allocator.decide(None, table)
                for table in (first, first, second, first, second)
            ]
        assert solves == [first, second]
        assert schedules[0] == oracle_module.lower_envelope_cost(first, 0.7)[1]
        assert schedules[2] == oracle_module.lower_envelope_cost(second, 0.7)[1]
        assert schedules[1] is schedules[0] and schedules[3] is schedules[0]
        assert schedules[4] is schedules[2]

    def test_unreachable_goal_fallback_solves_once(self, solves):
        table = self.table()
        allocator = OracleAllocator(qos_goal=99.0)
        with perf.fast_paths(True):
            first = allocator.decide(None, table)
            again = allocator.decide(None, table)
        assert solves == [table]
        assert again is first
        assert first.saturated
        assert first.entries[0].point is max(table, key=lambda p: p.speedup)
        with perf.fast_paths(False):
            assert OracleAllocator(qos_goal=99.0).decide(None, table) == first

    def test_reference_mode_and_lists_solve_every_call(self, solves):
        table = self.table()
        allocator = OracleAllocator(qos_goal=0.7)
        with perf.fast_paths(False):
            allocator.decide(None, table)
            allocator.decide(None, table)
        points = list(table)
        with perf.fast_paths(True):
            allocator.decide(None, points)
            allocator.decide(None, points)
        assert len(solves) == 4

    def test_capacity_view_is_never_memoized(self, solves):
        sim = make_latency_simulator(get_app("apache"))
        phase = sim.app.phases[0]
        allocator = OracleAllocator(qos_goal=1.0)
        with perf.fast_paths(True):
            view = sim.true_points(phase, 800.0)
            assert isinstance(view, _CapacityPoints)
            first = allocator.decide(None, view)
            again = allocator.decide(None, view)
            other = allocator.decide(None, sim.true_points(phase, 1600.0))
        assert len(solves) == 3
        assert solves[0] is view and solves[1] is view
        assert not allocator._solved
        assert again == first and again is not first
        assert other != first
