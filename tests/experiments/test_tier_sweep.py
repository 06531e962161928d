"""The sharded tier-agreement sweep: specs, dispatch, and the report."""

import errno
import json
import os

import pytest

from repro.arch.vcore import VCoreConfig
from repro.experiments.report import tier_table
from repro.experiments.scenarios import (
    TIER_APPS,
    TIER_CONFIGS,
    run_tier_cell,
    tier_agreement_grid,
)
from repro.experiments.stats import (
    TierCellSpec,
    record_bench_cycle,
    run_cell,
    run_cells,
)
from repro.sim.ssim import CycleResult


class TestTierCellSpec:
    def test_run_cell_dispatches_tier_specs(self):
        spec = TierCellSpec(
            app_name="apache",
            phase_index=0,
            config=VCoreConfig(2, 128),
            instructions=600,
        )
        result = run_cell(spec)
        assert isinstance(result, CycleResult)
        assert result.pipeline.instructions == 600
        assert result.pipeline.config == VCoreConfig(2, 128)

    def test_spec_matches_direct_call(self):
        spec = TierCellSpec(
            app_name="mcf",
            phase_index=1,
            config=VCoreConfig(4, 256),
            instructions=600,
            seed=3,
        )
        direct = run_tier_cell(
            "mcf", 1, VCoreConfig(4, 256), instructions=600, seed=3
        )
        assert run_cell(spec) == direct

    def test_phase_index_out_of_range_rejected(self):
        try:
            run_tier_cell("apache", 99, VCoreConfig(1, 64), instructions=100)
        except ValueError as error:
            assert "phase" in str(error)
        else:  # pragma: no cover - the assertion documents the contract
            raise AssertionError("expected ValueError")

    def test_specs_pickle_through_worker_pool(self):
        specs = [
            TierCellSpec(
                app_name="apache",
                phase_index=index,
                config=config,
                instructions=400,
            )
            for index in (0, 1)
            for config in (VCoreConfig(1, 64), VCoreConfig(2, 128))
        ]
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        assert serial == parallel


class TestTierAgreementGrid:
    def test_grid_shape_and_keys(self):
        results, timing = tier_agreement_grid(
            app_names=("apache",), instructions=400, jobs=1
        )
        assert len(results) == 2 * len(TIER_CONFIGS)  # apache has 2 phases
        for (app_name, phase_index, config), cell in results.items():
            assert app_name == "apache"
            assert phase_index in (0, 1)
            assert config in TIER_CONFIGS
            assert isinstance(cell, CycleResult)
        assert timing["cells"] == len(results)
        assert timing["instructions"] == 400
        assert timing["apps"] == ["apache"]

    def test_jobs_invisible_in_results(self):
        serial, _ = tier_agreement_grid(
            app_names=("apache", "mcf"), instructions=400, jobs=1
        )
        parallel, _ = tier_agreement_grid(
            app_names=("apache", "mcf"), instructions=400, jobs=3
        )
        assert list(serial) == list(parallel)
        assert serial == parallel

    def test_default_apps_cover_the_tier_grid(self):
        assert set(TIER_APPS) == {"x264", "apache", "mcf"}
        assert [config.slices for config in TIER_CONFIGS] == [1, 2, 4, 8]


class TestTierTable:
    def test_table_rows_and_footer(self):
        results, _ = tier_agreement_grid(
            app_names=("apache",), instructions=400, jobs=1
        )
        table = tier_table(results)
        lines = table.splitlines()
        assert "err %" in lines[0]
        assert len(lines) == 2 + len(results) + 2  # header, rule, footer
        assert lines[-2].startswith("mean |err|")
        assert lines[-1].startswith("max |err|")

    def test_empty_results_render_header_only(self):
        table = tier_table({})
        assert len(table.splitlines()) == 2


class TestRecordBenchCycle:
    def test_writes_and_merges_sections(self, tmp_path):
        target = tmp_path / "BENCH_CYCLE.json"
        record_bench_cycle("first", {"a": 1}, path=str(target))
        record_bench_cycle("second", {"b": 2}, path=str(target))
        data = json.loads(target.read_text())
        assert data == {"first": {"a": 1}, "second": {"b": 2}}

    @pytest.mark.parametrize(
        "damage",
        [lambda text: text[:-5], lambda text: f"[{text}]"],
        ids=["truncated", "not-an-object"],
    )
    def test_unreadable_report_is_refused_and_kept(self, tmp_path, damage):
        # What a merge conflict or a hand edit can leave: merging into
        # it must not drop the sections it still holds.
        target = tmp_path / "BENCH_CYCLE.json"
        record_bench_cycle("first", {"a": 1}, path=str(target))
        record_bench_cycle("second", {"b": 2}, path=str(target))
        target.write_text(damage(target.read_text()))
        before = target.read_bytes()
        with pytest.raises(ValueError, match="BENCH_CYCLE.json.*delete"):
            record_bench_cycle("third", {"c": 3}, path=str(target))
        assert target.read_bytes() == before

    def test_full_disk_keeps_report_and_leaves_no_scratch(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "BENCH_CYCLE.json"
        record_bench_cycle("first", {"a": 1}, path=str(target))
        before = target.read_bytes()

        class FullDisk:
            def __init__(self, fd, *args, **kwargs):
                self.fd = fd

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                os.close(self.fd)
                return False

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fdopen", FullDisk)
        with pytest.raises(OSError) as raised:
            record_bench_cycle("second", {"b": 2}, path=str(target))
        assert raised.value.errno == errno.ENOSPC
        assert target.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
