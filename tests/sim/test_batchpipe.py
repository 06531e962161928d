"""Batch tier vs object pipeline: bit-identity under every dispatch.

Every cell :func:`repro.sim.batchpipe.run_batch` advances must come
back *bit-identical* to ``MultiSlicePipeline.run`` on the same trace —
the :class:`PipelineResult`, every per-Slice counter and the full
memory-system stats — across random phase mixes, batch sizes
{1, 3, 8} and Slice counts {1, 2, 4, 8}, whether the compiled kernel
runs, the native core is disabled or cannot be built, or fast paths
are off entirely.
"""

import dataclasses
import random
import shutil

import numpy as np
import pytest

from repro import native, perf
from repro.arch.counters import CounterKind
from repro.arch.params import DEFAULT_SLICE_PARAMS
from repro.arch.vcore import VCoreConfig
from repro.sim.batchpipe import BatchCell, run_batch
from repro.sim.isa import MicroOp, OpKind
from repro.sim.pipeline import MultiSlicePipeline
from repro.sim.soa import TraceArrays
from repro.sim.ssim import SSim
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase


@pytest.fixture(autouse=True)
def restore_switches():
    fast, enabled = perf.FAST, native.native_enabled()
    yield
    perf.set_fast_paths(fast)
    native.set_native_enabled(enabled)


def make_phase(**overrides):
    defaults = dict(
        name="p",
        instructions_m=10,
        ilp=3.0,
        mem_refs_per_inst=0.3,
        l1_miss_rate=0.1,
        working_set=((256, 0.6), (2048, 0.9)),
        branch_fraction=0.15,
        mispredict_rate=0.05,
    )
    defaults.update(overrides)
    return Phase(**defaults)


PHASES = (
    make_phase(name="balanced"),
    make_phase(name="memory", mem_refs_per_inst=0.5, l1_miss_rate=0.3),
    make_phase(name="compute", ilp=6.0, mem_refs_per_inst=0.05),
    make_phase(name="branchy", branch_fraction=0.3, mispredict_rate=0.2),
)

SLICE_LADDER = (1, 2, 4, 8)


def generate_trace(phase, seed, instructions=500):
    generator = TraceGenerator(
        phase, DEFAULT_SLICE_PARAMS.physical_registers, seed=seed
    )
    return generator.generate_arrays(instructions)


def object_snapshot(cell):
    """What the per-cycle twin produces for one cell."""
    pipeline = MultiSlicePipeline(cell.config)
    result = pipeline.run(cell.trace.to_ops())
    counters = [
        {kind: block.value(kind) for kind in CounterKind}
        for block in pipeline.counters
    ]
    return result, counters, pipeline.memory.stats()


def assert_batch_matches_objects(cells):
    outcomes = run_batch(cells)
    assert len(outcomes) == len(cells)
    for cell, outcome in zip(cells, outcomes):
        result, counters, memory_stats = object_snapshot(cell)
        assert outcome.result == result
        assert outcome.memory_stats == memory_stats
        assert len(outcome.counters) == len(counters)
        for block, expected in zip(outcome.counters, counters):
            assert {
                kind: block.value(kind) for kind in CounterKind
            } == expected


def mixed_cells(batch_size, seed):
    """A random phase mix across the full Slice ladder."""
    rng = random.Random(seed)
    cells = []
    for index in range(batch_size):
        phase = rng.choice(PHASES)
        slices = SLICE_LADDER[index % len(SLICE_LADDER)]
        trace = generate_trace(phase, seed=rng.randrange(1000))
        cells.append(
            BatchCell(
                trace=trace,
                config=VCoreConfig(slices=slices, l2_kb=64 * slices),
            )
        )
    return cells


class TestBitIdentity:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_random_mix_matches_object_pipeline(self, batch_size):
        assert_batch_matches_objects(mixed_cells(batch_size, seed=batch_size))

    @pytest.mark.parametrize("slices", SLICE_LADDER)
    def test_every_slice_count(self, slices):
        trace = generate_trace(PHASES[0], seed=7)
        cells = [
            BatchCell(
                trace=trace, config=VCoreConfig(slices=slices, l2_kb=256)
            )
        ]
        assert_batch_matches_objects(cells)

    def test_shared_trace_across_configs(self):
        # The sweep shape: one trace, the whole configuration ladder.
        trace = generate_trace(PHASES[1], seed=3)
        cells = [
            BatchCell(
                trace=trace,
                config=VCoreConfig(slices=slices, l2_kb=64 * slices),
            )
            for slices in SLICE_LADDER
        ]
        assert_batch_matches_objects(cells)

    def test_native_disabled_fallback_is_identical(self):
        cells = mixed_cells(3, seed=11)
        with perf.fast_paths(True):
            native_outcomes = run_batch(cells)
            native.set_native_enabled(False)
            fallback_outcomes = run_batch(cells)
        for via_native, via_objects in zip(native_outcomes, fallback_outcomes):
            assert via_native.result == via_objects.result
            assert via_native.memory_stats == via_objects.memory_stats

    def test_scalar_mode_matches(self):
        cells = mixed_cells(2, seed=5)
        with perf.fast_paths(False):
            assert_batch_matches_objects(cells)


class TestDispatch:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_wide_sources_fall_back_to_object_path(self):
        # Three source registers exceed the kernel's producer width;
        # the batch API must still answer (through the object twin).
        ops = [
            MicroOp(op_id=0, kind=OpKind.ALU, dest=1, code_address=0),
            MicroOp(op_id=1, kind=OpKind.ALU, dest=2, code_address=64),
            MicroOp(op_id=2, kind=OpKind.ALU, dest=3, code_address=128),
            MicroOp(
                op_id=3,
                kind=OpKind.ALU,
                sources=(1, 2, 3),
                code_address=192,
            ),
        ]
        trace = TraceArrays.from_ops(ops)
        assert trace.source_width == 3
        cells = [BatchCell(trace=trace, config=VCoreConfig(slices=1, l2_kb=64))]
        assert_batch_matches_objects(cells)

    def test_results_come_back_in_cell_order(self):
        trace_a = generate_trace(PHASES[0], seed=1)
        trace_b = generate_trace(PHASES[2], seed=2)
        cells = [
            BatchCell(trace=trace_a, config=VCoreConfig(slices=2, l2_kb=128)),
            BatchCell(trace=trace_b, config=VCoreConfig(slices=1, l2_kb=64)),
            BatchCell(trace=trace_a, config=VCoreConfig(slices=4, l2_kb=256)),
        ]
        outcomes = run_batch(cells)
        for cell, outcome in zip(cells, outcomes):
            assert outcome.result.config == cell.config
            assert outcome.result.instructions == len(cell.trace)


def generated(phase, seed, count=900):
    """``generate_arrays`` columns and the generator state after it."""
    generator = TraceGenerator(phase, seed=seed)
    trace = generator.generate_arrays(count)
    columns = {
        field.name: getattr(trace, field.name)
        for field in dataclasses.fields(TraceArrays)
    }
    return columns, generator.rng.getstate()


def assert_same_generation(left, right):
    (left_columns, left_state), (right_columns, right_state) = left, right
    for name, column in left_columns.items():
        assert column.dtype == right_columns[name].dtype, name
        assert np.array_equal(column, right_columns[name]), name
    assert left_state == right_state


class TestCompilerFailure:
    """A missing or failing C compiler degrades to the scalar twins —
    the per-cycle pipeline and the reference trace generator: same
    answers, and :func:`native.batch_core_error` names the cause."""

    @pytest.fixture
    def empty_build_dir(self, tmp_path):
        previous = native._BUILD_DIR
        yield tmp_path
        native.set_build_dir(previous)

    @pytest.mark.parametrize(
        "compiler,cause",
        [(None, "no C compiler"), (shutil.which("false"), "failed")],
        ids=["absent", "failing"],
    )
    def test_results_match_native(
        self, empty_build_dir, monkeypatch, compiler, cause
    ):
        if compiler is None and cause == "failed":
            pytest.skip("no `false` executable on PATH")
        perf.set_fast_paths(True)
        native.set_native_enabled(True)
        if native.batch_core() is None:
            pytest.skip("native kernel unavailable on this host")
        cells = mixed_cells(3, seed=13)
        phase = PHASES[1]
        config = VCoreConfig(slices=2, l2_kb=128)
        native_cells = run_batch(cells)
        native_ssim = SSim().run_cycle_accurate(phase, config, 600, seed=4)
        native_trace = generated(PHASES[3], seed=8)

        monkeypatch.setattr(native, "_find_compiler", lambda: compiler)
        native.set_build_dir(empty_build_dir)
        assert native.batch_core() is None
        assert cause in native.batch_core_error()
        assert list(empty_build_dir.iterdir()) == []
        fallback_cells = run_batch(cells)
        for via_native, via_objects in zip(native_cells, fallback_cells):
            assert via_native.result == via_objects.result
            assert via_native.memory_stats == via_objects.memory_stats
        assert (
            SSim().run_cycle_accurate(phase, config, 600, seed=4)
            == native_ssim
        )
        assert_same_generation(generated(PHASES[3], seed=8), native_trace)

    def test_disabled_core_generates_through_the_reference(
        self, monkeypatch
    ):
        perf.set_fast_paths(True)
        native.set_native_enabled(False)
        calls = []
        reference = TraceGenerator._generate_reference

        def counting(generator, count):
            calls.append(count)
            return reference(generator, count)

        monkeypatch.setattr(TraceGenerator, "_generate_reference", counting)
        TraceGenerator(PHASES[0], seed=1).generate_arrays(300)
        assert calls == [300]

    def test_native_generator_checks_buffer_sizes(self, monkeypatch):
        perf.set_fast_paths(True)
        native.set_native_enabled(True)
        core = native.batch_core()
        if core is None:
            pytest.skip("native kernel unavailable on this host")
        seen = []

        class ShortColumns:
            def generate_trace(self, count, *arrays):
                seen.append(arrays)
                return core.generate_trace(count + 1, *arrays)

        monkeypatch.setattr(native, "batch_core", lambda: ShortColumns())
        generator = TraceGenerator(PHASES[0], seed=2)
        state = generator.rng.getstate()
        with pytest.raises(ValueError, match="layout needs"):
            generator.generate_arrays(50)
        assert seen and generator.rng.getstate() == state

    def test_failing_generator_raises_and_leaves_state(self, monkeypatch):
        perf.set_fast_paths(True)

        class FailingCore:
            def generate_trace(self, count, *arrays):
                # Scribble over every buffer first: none of it may
                # reach the generator.
                for array in arrays:
                    array[...] = 1
                return -1

        def snapshot(generator):
            return (
                generator.rng.getstate(),
                generator._pc,
                list(generator._hot_blocks),
                list(generator._sweep_position),
                dict(generator._branch_bias),
                dict(generator._branch_target),
            )

        monkeypatch.setattr(native, "batch_core", lambda: FailingCore())
        generator = TraceGenerator(PHASES[3], seed=6)
        with perf.fast_paths(False):
            generator.generate_arrays(700)
        before = snapshot(generator)
        assert before[2] and before[4]
        with pytest.raises(RuntimeError, match="allocation failure"):
            generator.generate_arrays(500)
        assert snapshot(generator) == before
