"""Memoized operating-point tables and the vectorized kernel."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import ConfigurationSpace, DEFAULT_CONFIG_SPACE
from repro.runtime.optimizer import ConfigPoint, compute_envelope
from repro.sim.optables import (
    OperatingPointTable,
    build_table_scalar,
    build_table_vectorized,
    cache_clear,
    cache_info,
    operating_point_table,
)
from repro.sim.perfmodel import DEFAULT_PERF_MODEL
from repro.workloads.apps import make_apache, make_x264
from repro.workloads.phase import Phase

MODEL = DEFAULT_PERF_MODEL
SPACE = DEFAULT_CONFIG_SPACE


@st.composite
def phases(draw):
    """Random but valid phases (non-decreasing working-set spectrum)."""
    n = draw(st.integers(1, 4))
    sizes = draw(
        st.lists(
            st.sampled_from([64 * 2 ** i for i in range(8)]),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    fractions = draw(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)
    )
    return Phase(
        name="rand",
        instructions_m=draw(st.floats(1.0, 50.0)),
        ilp=draw(st.floats(0.5, 6.0)),
        mem_refs_per_inst=draw(st.floats(0.05, 0.6)),
        l1_miss_rate=draw(st.floats(0.01, 0.5)),
        working_set=tuple(zip(sorted(sizes), sorted(fractions))),
        mlp=draw(st.floats(1.0, 8.0)),
        comm_penalty=draw(st.floats(0.0, 0.2)),
    )


class TestVectorizedKernel:
    @given(phase=phases())
    @settings(max_examples=60, deadline=None)
    def test_ipc_grid_matches_scalar_everywhere(self, phase):
        grid = MODEL.ipc_grid(phase, SPACE).ravel()
        for index, config in enumerate(SPACE):
            assert grid[index] == pytest.approx(
                MODEL.ipc(phase, config), abs=1e-12
            )

    @given(phase=phases())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_table_bit_identical_to_scalar(self, phase):
        scalar = build_table_scalar(phase, MODEL, SPACE)
        vectorized = build_table_vectorized(phase, MODEL, SPACE)
        assert tuple(scalar) == tuple(vectorized)

    def test_real_application_phases_bit_identical(self):
        for app in (make_x264(), make_apache()):
            for phase in app.phases:
                assert tuple(build_table_scalar(phase)) == tuple(
                    build_table_vectorized(phase)
                )

    def test_nondefault_space(self):
        space = ConfigurationSpace(
            slice_counts=(1, 3, 8), l2_sizes_kb=(128, 1024)
        )
        phase = make_x264().phases[0]
        assert tuple(build_table_scalar(phase, MODEL, space)) == tuple(
            build_table_vectorized(phase, MODEL, space)
        )


class TestOperatingPointTable:
    def setup_method(self):
        self.table = build_table_scalar(make_x264().phases[0])

    def test_sequence_protocol(self):
        assert len(self.table) == len(SPACE)
        assert list(self.table)[0] == self.table[0]

    def test_get_ipc(self):
        point = self.table[5]
        assert self.table.get_ipc(point.config) == point.speedup

    def test_get_ipc_unknown_config_is_none(self):
        space = ConfigurationSpace(slice_counts=(1,), l2_sizes_kb=(64,))
        small = build_table_scalar(make_x264().phases[0], MODEL, space)
        assert small.get_ipc(self.table[-1].config) is None

    def test_point_for_is_the_first_wins_scan(self):
        for point in self.table:
            assert self.table.point_for(point.config) is next(
                p for p in self.table if p.config == point.config
            )
        space = ConfigurationSpace(slice_counts=(1,), l2_sizes_kb=(64,))
        small = build_table_scalar(make_x264().phases[0], MODEL, space)
        assert small.point_for(self.table[-1].config) is None
        first, second = self.table[0], self.table[1]
        twice = OperatingPointTable(
            (first, ConfigPoint(first.config, second.speedup, 1.0))
        )
        assert twice.point_for(first.config) is first

    def test_seal_freezes_point_map(self):
        table = build_table_scalar(make_x264().phases[0]).seal()
        with pytest.raises(TypeError):
            table._by_config[table[0].config] = table[1]

    def test_max_qos(self):
        assert self.table.max_qos == max(p.speedup for p in self.table)

    def test_envelope_cached_and_exact(self):
        hull, best_at = self.table.envelope()
        fresh_hull, fresh_best = compute_envelope(list(self.table.points))
        # Cached envelopes are published frozen: tuple hull, read-only
        # best_at view — same contents as the scratch computation.
        assert list(hull) == fresh_hull
        assert best_at == fresh_best
        assert self.table.envelope() is self.table.envelope()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OperatingPointTable(())


class TestTableCache:
    def setup_method(self):
        cache_clear()

    def teardown_method(self):
        cache_clear()

    def test_hit_returns_same_object(self):
        phase = make_x264().phases[0]
        first = operating_point_table(phase, MODEL, SPACE)
        second = operating_point_table(phase, MODEL, SPACE)
        assert first is second
        assert cache_info()["hits"] >= 1

    def test_keyed_by_value_not_identity(self):
        phase = make_x264().phases[0]
        clone = Phase(**{f: getattr(phase, f) for f in (
            "name", "instructions_m", "ilp", "mem_refs_per_inst",
            "l1_miss_rate", "working_set", "mlp", "comm_penalty",
        )})
        assert clone is not phase
        assert operating_point_table(phase, MODEL, SPACE) is (
            operating_point_table(clone, MODEL, SPACE)
        )

    def test_distinct_phases_get_distinct_tables(self):
        first, second = make_x264().phases[:2]
        assert operating_point_table(first, MODEL, SPACE) is not (
            operating_point_table(second, MODEL, SPACE)
        )

    def test_cached_equals_scalar_reference(self):
        for phase in make_x264().phases:
            assert tuple(operating_point_table(phase, MODEL, SPACE)) == tuple(
                build_table_scalar(phase, MODEL, SPACE, DEFAULT_COST_MODEL)
            )

    def test_reference_mode_bypasses_cache(self):
        phase = make_x264().phases[0]
        with perf.fast_paths(False):
            first = operating_point_table(phase, MODEL, SPACE)
            second = operating_point_table(phase, MODEL, SPACE)
        assert first is not second
        assert tuple(first) == tuple(second)
        assert cache_info()["size"] == 0


class TestNoDiskTier:
    def test_cache_dir_variable_is_inert(self, tmp_path):
        # The store is in-process only: the retired disk tier's
        # variable writes nothing, and cacheconf still reports no tier.
        script = (
            "from repro import cacheconf\n"
            "from repro.sim.optables import operating_point_table\n"
            "from repro.workloads.apps import APP_NAMES, get_app\n"
            "for name in APP_NAMES:\n"
            "    for phase in get_app(name).phases:\n"
            "        operating_point_table(phase)\n"
            "print(cacheconf.cache_dir())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path), PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "None"
        assert list(tmp_path.iterdir()) == []
