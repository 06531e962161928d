"""The closed-loop evaluation harness."""

import math

import pytest

from repro.arch.vcore import DEFAULT_CONFIG_SPACE, VCoreConfig
from repro.baselines.oracle import OracleAllocator
from repro.baselines.race import RaceToIdleAllocator, worst_case_config
from repro.experiments.harness import (
    CASHAllocator,
    LatencySimulator,
    ThroughputSimulator,
    _PhaseWalker,
    qos_target_for,
)
from repro.sim.perfmodel import DEFAULT_PERF_MODEL
from repro.workloads.apps import get_app, make_x264
from repro.workloads.requests import OscillatingLoad


class TestQosTarget:
    def test_is_worst_phase_best_ipc_with_margin(self):
        app = make_x264()
        goal = qos_target_for(app, margin=1.0)
        worst_case_best = min(
            max(DEFAULT_PERF_MODEL.ipc(phase, c) for c in DEFAULT_CONFIG_SPACE)
            for phase in app.phases
        )
        assert goal == pytest.approx(worst_case_best)

    def test_margin_scales(self):
        app = make_x264()
        assert qos_target_for(app, margin=0.5) == pytest.approx(
            qos_target_for(app, margin=1.0) * 0.5
        )

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            qos_target_for(make_x264(), margin=0.0)


class TestPhaseWalker:
    def test_advances_through_phases(self):
        app = make_x264()
        walker = _PhaseWalker(app)
        _, first = walker.current_phase()
        assert first.name == "x264.p1"
        executed, used, crossed = walker.run_cycles(
            1e9, lambda phase: 1.0, stop_at_boundary=True
        )
        assert crossed is True
        assert executed == pytest.approx(first.instructions, rel=1e-6)
        _, second = walker.current_phase()
        assert second.name == "x264.p2"

    def test_respects_cycle_budget(self):
        walker = _PhaseWalker(make_x264())
        executed, used, crossed = walker.run_cycles(1000.0, lambda p: 2.0)
        assert used == pytest.approx(1000.0)
        assert executed == pytest.approx(2000.0)
        assert crossed is False

    def test_zero_ipc_burns_cycles_without_progress(self):
        walker = _PhaseWalker(make_x264())
        executed, used, crossed = walker.run_cycles(500.0, lambda p: 0.0)
        assert executed == 0.0
        assert used == pytest.approx(500.0)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            _PhaseWalker(make_x264()).run_cycles(-1.0, lambda p: 1.0)

    def test_current_phase_is_fresh_after_every_write(self, monkeypatch):
        app = make_x264()
        lookup = app.phase_at_instruction
        scans = []

        def counting(offset):
            scans.append(offset)
            return lookup(offset)

        monkeypatch.setattr(app, "phase_at_instruction", counting)
        walker = _PhaseWalker(app)
        assert walker.current_phase() == lookup(0.0)
        assert walker.current_phase() == lookup(0.0)
        assert len(scans) == 1  # no write, no second scan
        offsets = []
        for start, end, _ in app.phase_schedule():
            for boundary in (start, end):
                offsets += [
                    boundary,
                    math.nextafter(boundary, -math.inf),
                    math.nextafter(boundary, math.inf),
                ]
        for offset in offsets:
            if offset < 0:
                continue
            before = len(scans)
            walker.offset = offset
            assert walker.current_phase() == lookup(offset)
            assert len(scans) == before + 1
            # An equal value in a new object is a write too.
            walker.offset = float(repr(offset))
            assert walker.offset == offset
            assert walker.current_phase() == lookup(offset)
            assert len(scans) == before + 2

    def test_current_phase_follows_run_cycles_and_direct_writes(self):
        app = make_x264()
        walker = _PhaseWalker(app)
        for _ in range(12):
            walker.run_cycles(4e6, lambda phase: 1.7, stop_at_boundary=True)
            assert walker.current_phase() == app.phase_at_instruction(
                walker.offset
            )
            walker.offset += 3.1e5  # as the latency loop writes it
            assert walker.current_phase() == app.phase_at_instruction(
                walker.offset
            )


def make_sim(**overrides):
    app = make_x264()
    defaults = dict(
        app=app,
        qos_goal=qos_target_for(app),
        interval_cycles=2.5e5,
        noise_std_frac=0.02,
    )
    defaults.update(overrides)
    return ThroughputSimulator(**defaults)


class TestThroughputSimulator:
    def test_requires_throughput_app(self):
        with pytest.raises(ValueError):
            ThroughputSimulator(app=get_app("apache"), qos_goal=1.0)

    def test_validation(self):
        app = make_x264()
        with pytest.raises(ValueError):
            ThroughputSimulator(app=app, qos_goal=0.0)
        with pytest.raises(ValueError):
            ThroughputSimulator(app=app, qos_goal=1.0, interval_cycles=0)
        with pytest.raises(ValueError):
            ThroughputSimulator(app=app, qos_goal=1.0, noise_std_frac=-1)
        with pytest.raises(ValueError):
            ThroughputSimulator(app=app, qos_goal=1.0, violation_margin=1.0)

    def test_oracle_run_meets_goal_everywhere(self):
        sim = make_sim()
        result = sim.run(OracleAllocator(qos_goal=sim.qos_goal), intervals=300)
        assert result.violation_rate == 0.0
        assert result.num_intervals == 300

    def test_race_never_violates_and_costs_more(self):
        sim = make_sim()
        config = worst_case_config(sim.app, sim.qos_goal, DEFAULT_PERF_MODEL)
        race = RaceToIdleAllocator(config=config, qos_goal=sim.qos_goal)
        oracle_run = sim.run(OracleAllocator(qos_goal=sim.qos_goal), 300)
        race_run = make_sim().run(race, 300)
        assert race_run.violation_rate == 0.0
        assert race_run.cost_dollars > oracle_run.cost_dollars

    def test_intervals_never_straddle_phases(self):
        """Each recorded interval belongs to exactly one phase."""
        sim = make_sim()
        result = sim.run(OracleAllocator(qos_goal=sim.qos_goal), intervals=400)
        boundaries = 0
        for record in result.records:
            assert record.cycles <= sim.interval_cycles + 1
            if record.cycles < sim.interval_cycles - 1:
                boundaries += 1
        assert boundaries >= 3  # x264 changes phase often enough

    def test_deterministic_by_seed(self):
        a = make_sim(seed=5).run(OracleAllocator(qos_goal=make_sim().qos_goal), 50)
        b = make_sim(seed=5).run(OracleAllocator(qos_goal=make_sim().qos_goal), 50)
        assert a.cost_dollars == b.cost_dollars

    def test_warmup_not_recorded(self):
        sim = make_sim()
        result = sim.run(
            OracleAllocator(qos_goal=sim.qos_goal), intervals=50,
            warmup_intervals=100,
        )
        assert result.num_intervals == 50
        assert result.records[0].start_cycle == 0.0

    def test_cash_allocator_integrates(self):
        sim = make_sim()
        allocator = CASHAllocator(
            configs=list(DEFAULT_CONFIG_SPACE), qos_goal=sim.qos_goal
        )
        result = sim.run(allocator, intervals=120)
        assert result.cost_dollars > 0
        assert result.allocator_name == "CASH"

    def test_cost_rate_series_lengths(self):
        sim = make_sim()
        result = sim.run(OracleAllocator(qos_goal=sim.qos_goal), 60)
        assert len(result.cost_rate_series()) == 60
        assert len(result.normalized_performance_series()) == 60
        assert len(result.time_axis_mcycles()) == 60


class TestLatencySimulator:
    def _sim(self, **overrides):
        app = get_app("apache")
        defaults = dict(
            app=app,
            load=OscillatingLoad(),
            target_latency_cycles=110_000.0,
        )
        defaults.update(overrides)
        return LatencySimulator(**defaults)

    def test_requires_latency_app(self):
        with pytest.raises(ValueError):
            LatencySimulator(
                app=make_x264(), load=OscillatingLoad(),
                target_latency_cycles=1e5,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            self._sim(target_latency_cycles=0)
        with pytest.raises(ValueError):
            self._sim(cycles_per_second=0)
        # The settings ThroughputSimulator already rejects.
        for interval_cycles in (-1.0, 0.0):
            with pytest.raises(ValueError, match="interval_cycles"):
                self._sim(interval_cycles=interval_cycles)
        with pytest.raises(ValueError, match="noise_std_frac"):
            self._sim(noise_std_frac=-0.5)
        for margin in (1.5, -0.1):
            with pytest.raises(ValueError, match="violation_margin"):
                self._sim(violation_margin=margin)

    def test_capacity_margin_one_is_latency_target(self):
        """q = 1 exactly when the M/M/1 latency equals the target."""
        sim = self._sim()
        phase = sim.app.phases[0]
        for config in (VCoreConfig(1, 64), VCoreConfig(4, 512)):
            for rate in (250.0, 900.0):
                q = sim.qos_of(phase, config, rate)
                latency = sim.latency_cycles(phase, config, rate)
                if q >= 1.0:
                    assert latency <= sim.target_latency + 1e-6
                else:
                    assert latency > sim.target_latency - 1e-6

    def test_latency_capped(self):
        sim = self._sim()
        phase = sim.app.phases[0]
        latency = sim.latency_cycles(phase, VCoreConfig(1, 64), 1e9)
        assert latency == 10.0 * sim.target_latency

    def test_more_capacity_lowers_latency(self):
        sim = self._sim()
        phase = sim.app.phases[0]
        small = sim.latency_cycles(phase, VCoreConfig(1, 64), 800.0)
        large = sim.latency_cycles(phase, VCoreConfig(8, 1024), 800.0)
        assert large < small

    def test_oracle_run_has_no_violations(self):
        sim = self._sim()
        result = sim.run(OracleAllocator(qos_goal=1.0), intervals=200)
        assert result.violation_rate == 0.0

    def test_race_holds_worst_case_core_constantly(self):
        from repro.experiments.scenarios import latency_worst_case_config

        sim = self._sim()
        config = latency_worst_case_config(sim)
        race = RaceToIdleAllocator(
            config=config, qos_goal=1.0, can_idle=False
        )
        result = sim.run(race, intervals=100)
        assert result.violation_rate == 0.0
        rates = set(round(r.cost_rate, 8) for r in result.records)
        assert len(rates) == 1  # flat cost line, as in Fig. 9

    def test_request_rate_recorded(self):
        sim = self._sim()
        result = sim.run(OracleAllocator(qos_goal=1.0), intervals=50)
        assert all(r.request_rate > 0 for r in result.records)
