"""The event-driven provider service (``repro.cloud.service``).

Covers the engine's behavioral surface: report accounting sanity,
convergence hibernation (decide steps < active steps), idle-tenant
parking, the streaming metrics sink, incremental ``run(until)``
segments, mode locking, and the schema-versioned checksummed
checkpoint/restore format (tier-1: a round-trip must continue
bit-identically to the uninterrupted run).
"""

import pickle

import pytest

from repro import perf
from repro.arch.fabric import Fabric
from repro.cloud.service import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    MetricsSink,
    ServiceEngine,
)
from repro.cloud.tenant import Tenant
from repro.cloud.traffic import (
    TenantTraffic,
    TrafficScenario,
    TrafficSpec,
    generate_traffic,
)
from repro.experiments.harness import qos_target_for
from repro.workloads.apps import get_app


@pytest.fixture(autouse=True)
def restore_fast_paths():
    yield
    perf.set_fast_paths(True)


def small_scenario(tenants=10, horizon=160, seed=3, **overrides):
    base = dict(
        tenants=tenants,
        horizon=horizon,
        seed=seed,
        activity=0.3,
        mean_burst=6.0,
        lifetime_min=60.0,
    )
    base.update(overrides)
    return generate_traffic(TrafficSpec(**base))


def build_engine(scenario=None, metrics=None, **overrides):
    if scenario is None:
        scenario = small_scenario()
    kwargs = dict(fabric=Fabric(16, 16), overcommit=2.0, metrics=metrics)
    kwargs.update(overrides)
    return ServiceEngine(scenario, **kwargs)


class TestReportAccounting:
    def test_report_sanity(self):
        engine = build_engine()
        report = engine.run()
        assert report.intervals == engine.scenario.spec.horizon
        assert report.admitted > 0
        assert report.admitted + report.rejected <= len(
            engine.scenario.tenants
        )
        assert len(report.accounts) == report.admitted
        assert 0 < report.active_steps <= report.tenant_intervals
        assert 0.0 <= report.mean_utilization <= 1.0
        assert report.revenue_rate > 0.0
        total_active = sum(
            account.active_intervals for account in report.accounts.values()
        )
        assert total_active == report.active_steps

    def test_hibernation_reduces_decides(self):
        engine = build_engine(converged_after=4, reprobe_every=24)
        report = engine.run()
        assert 0 < report.decide_steps < report.active_steps

    def test_hibernation_disabled_when_converged_after_zero(self):
        engine = build_engine(converged_after=0)
        report = engine.run()
        assert report.decide_steps == report.active_steps

    @pytest.mark.parametrize("fast", [True, False])
    def test_last_burst_interval_counts_toward_utilization(self, fast):
        """A tenant parks after the interval it ran in is sampled."""
        app = get_app("bzip")
        tenant = Tenant(
            tenant_id=0, app=app, qos_goal=qos_target_for(app), policy="race"
        )
        scenario = TrafficScenario(
            spec=TrafficSpec(tenants=1, horizon=4),
            tenants=(TenantTraffic(tenant=tenant, bursts=((0, 1),)),),
            flash_windows=(),
        )
        with perf.fast_paths(fast):
            report = ServiceEngine(scenario, fabric=Fabric(16, 16)).run()
        footprint = report.accounts[0].footprint_tiles
        assert footprint > 0
        assert report.utilization_tile_intervals == footprint

    def test_parking_releases_idle_tenants(self):
        engine = build_engine()
        engine.run()
        # After the horizon every still-resident tenant whose traffic
        # has gone quiet must hold no tiles.
        for tenant_id, resident in engine._residents.items():
            if not resident.traffic.is_active(engine.scenario.spec.horizon):
                assert not engine.fabric.has_allocation(tenant_id)


class TestRunSegments:
    def test_run_until_is_resumable(self):
        straight = build_engine().run()
        engine = build_engine()
        engine.run(until=50)
        engine.run(until=110)
        segmented = engine.run()
        assert segmented == straight

    def test_until_must_advance(self):
        engine = build_engine()
        engine.run(until=50)
        with pytest.raises(ValueError):
            engine.run(until=40)

    def test_until_beyond_horizon_rejected(self):
        engine = build_engine()
        with pytest.raises(ValueError):
            engine.run(until=engine.scenario.spec.horizon + 1)

    def test_mode_is_locked_after_first_run(self):
        engine = build_engine()
        with perf.fast_paths(True):
            engine.run(until=40)
        with perf.fast_paths(False):
            with pytest.raises(RuntimeError):
                engine.run(until=80)


class TestMetricsSink:
    def test_ring_is_bounded_and_counts_everything(self):
        sink = MetricsSink(capacity=16)
        engine = build_engine(metrics=sink)
        engine.run()
        assert len(sink.records) == 16
        assert sink.emitted > 16

    def test_jsonl_stream_matches_emitted(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        sink = MetricsSink(capacity=8, jsonl_path=str(path))
        engine = build_engine(metrics=sink)
        engine.run()
        lines = path.read_text().splitlines()
        assert len(lines) == sink.emitted

    def test_event_mode_emits_stretch_records(self):
        sink = MetricsSink(capacity=4096)
        engine = build_engine(metrics=sink)
        with perf.fast_paths(True):
            engine.run()
        kinds = {record["kind"] for record in sink.records}
        assert kinds == {"interval", "stretch"}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsSink(capacity=0)


class TestCheckpoint:
    @pytest.mark.parametrize("fast", [True, False])
    def test_round_trip_continues_bit_identically(self, fast):
        with perf.fast_paths(fast):
            straight = build_engine().run()
            engine = build_engine()
            engine.run(until=60)
            blob = engine.checkpoint()
            resumed = ServiceEngine.restore(blob).run()
        assert resumed == straight

    def test_restore_does_not_disturb_original(self):
        with perf.fast_paths(True):
            engine = build_engine()
            engine.run(until=60)
            blob = engine.checkpoint()
            ServiceEngine.restore(blob)
            continued = engine.run()
            straight = build_engine().run()
        assert continued == straight

    def test_save_and_load_paths(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        engine = build_engine()
        engine.run(until=40)
        engine.save_checkpoint(path)
        straight = build_engine().run()
        assert ServiceEngine.load_checkpoint(path).run() == straight

    def test_bad_magic_rejected(self):
        engine = build_engine()
        blob = engine.checkpoint()
        with pytest.raises(CheckpointError, match="magic"):
            ServiceEngine.restore(b"NOTMAGIC" + blob[8:])

    def test_corruption_rejected(self):
        engine = build_engine()
        blob = bytearray(engine.checkpoint())
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError, match="checksum"):
            ServiceEngine.restore(bytes(blob))

    def test_truncation_rejected(self):
        engine = build_engine()
        blob = engine.checkpoint()
        with pytest.raises(CheckpointError):
            ServiceEngine.restore(blob[:20])

    def test_wrong_schema_rejected(self):
        import hashlib

        from repro.cloud import service

        payload = pickle.dumps(
            {"schema": CHECKPOINT_SCHEMA + 1, "engine": None},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = (
            service._CHECKPOINT_MAGIC
            + hashlib.sha256(payload).digest()
            + payload
        )
        with pytest.raises(CheckpointError, match="schema"):
            ServiceEngine.restore(blob)
