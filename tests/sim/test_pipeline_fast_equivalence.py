"""The compiled cycle kernel is an optimization, never a model change.

Every trace here runs twice — through :func:`repro.sim.batchpipe.run_batch`
on ``TraceArrays.from_ops(trace)`` (the compiled batch kernel when a
compiler is available) and through the per-cycle scalar engine,
``MultiSlicePipeline.run`` — and must produce *identical* results: the
:class:`PipelineResult`, every per-Slice counter, and the full
memory-hierarchy statistics.  Likewise the column trace generator:
``generate_arrays`` with fast paths on (the compiled port,
``sim/_tracegen.c``) and off (the scalar reference) emits the same
columns and leaves the same generator state, so a fixed-seed experiment
is bit-for-bit reproducible with the switch in either position.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.arch.counters import CounterKind
from repro.arch.vcore import VCoreConfig
from repro.sim.batchpipe import BatchCell, run_batch
from repro.sim.isa import MicroOp, OpKind
from repro.sim.pipeline import MultiSlicePipeline
from repro.sim.soa import TraceArrays
from repro.sim.ssim import SSim
from repro.sim.trace import TraceGenerator
from repro.workloads.apps import get_app
from repro.workloads.phase import Phase


@pytest.fixture(autouse=True)
def restore_fast_paths():
    previous = perf.FAST
    yield
    perf.set_fast_paths(previous)


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


def counter_snapshot(blocks):
    return [{kind: c.value(kind) for kind in CounterKind} for c in blocks]


def assert_identical(trace, config):
    """``run_batch`` on the encoded trace equals the per-cycle engine."""
    with perf.fast_paths(True):
        (outcome,) = run_batch(
            [BatchCell(trace=TraceArrays.from_ops(trace), config=config)]
        )
    pipeline = MultiSlicePipeline(config)
    result = pipeline.run(trace)
    assert outcome.result == result
    assert counter_snapshot(outcome.counters) == counter_snapshot(
        pipeline.counters
    )
    assert outcome.memory_stats == pipeline.memory.stats()


class TestHandcraftedTraces:
    """Targeted shapes: each exercises one mechanism of the kernel's
    event-driven schedule."""

    def test_dependent_alu_chain(self):
        # Serial chain: every wakeup comes through the scoreboard.
        ops = [
            MicroOp(op_id=i, kind=OpKind.ALU, sources=(1,) if i else (0,), dest=1)
            for i in range(300)
        ]
        assert_identical(ops, VCoreConfig(2, 128))

    def test_independent_alu_ops(self):
        ops = [
            MicroOp(op_id=i, kind=OpKind.ALU, sources=(0,), dest=1 + i % 60)
            for i in range(300)
        ]
        assert_identical(ops, VCoreConfig(4, 256))

    def test_streaming_loads_exercise_release_heap(self):
        # Every load misses: the load-release heap carries the schedule.
        ops = []
        for i in range(400):
            if i % 2:
                ops.append(
                    MicroOp(
                        op_id=i,
                        kind=OpKind.LOAD,
                        sources=(0,),
                        dest=1 + i % 50,
                        address=i * 64 + (1 << 35),
                    )
                )
            else:
                ops.append(
                    MicroOp(op_id=i, kind=OpKind.ALU, sources=(0,), dest=1)
                )
        assert_identical(ops, VCoreConfig(2, 64))

    def test_stores_and_loads_interleaved(self):
        ops = []
        for i in range(300):
            address = (i % 16) * 64
            if i % 3 == 0:
                ops.append(
                    MicroOp(
                        op_id=i, kind=OpKind.STORE, sources=(0,), address=address
                    )
                )
            else:
                ops.append(
                    MicroOp(
                        op_id=i,
                        kind=OpKind.LOAD,
                        sources=(0,),
                        dest=1 + i % 30,
                        address=address,
                    )
                )
        assert_identical(ops, VCoreConfig(8, 512))

    def test_mispredicted_branches_flush(self):
        ops = []
        for i in range(300):
            if i % 7 == 0:
                ops.append(
                    MicroOp(
                        op_id=i,
                        kind=OpKind.BRANCH,
                        sources=(0,),
                        mispredicted=(i % 14 == 0),
                        code_address=(2 << 40) + (i % 5) * 64,
                        taken=True,
                        branch_target=(2 << 40),
                    )
                )
            else:
                ops.append(
                    MicroOp(op_id=i, kind=OpKind.ALU, sources=(0,), dest=1)
                )
        assert_identical(ops, VCoreConfig(2, 128))

    def test_wide_code_footprint_misses_l1i(self):
        # Code addresses spread past the 16 KB L1I: fetch misses must
        # stall identically in both engines.
        ops = [
            MicroOp(
                op_id=i,
                kind=OpKind.ALU,
                sources=(0,),
                dest=1,
                code_address=(2 << 40) + (i % 1024) * 64,
            )
            for i in range(2048)
        ]
        assert_identical(ops, VCoreConfig(1, 64))


class TestGeneratedTraces:
    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    def test_default_phase_all_slice_counts(self, slices):
        trace = TraceGenerator(make_phase(), seed=0).generate(1500)
        assert_identical(trace, VCoreConfig(slices, 64 * slices))

    @settings(max_examples=20, deadline=None)
    @given(
        ilp=st.floats(min_value=0.5, max_value=8.0),
        mem_refs=st.floats(min_value=0.0, max_value=0.6),
        l1_miss=st.floats(min_value=0.0, max_value=1.0),
        branch_fraction=st.floats(min_value=0.0, max_value=0.4),
        mispredict=st.floats(min_value=0.0, max_value=0.5),
        hit_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=50, max_value=800),
        slices=st.sampled_from([1, 2, 4, 8]),
        l2_kb=st.sampled_from([64, 128, 256, 512]),
    )
    def test_random_phase_random_config(
        self,
        ilp,
        mem_refs,
        l1_miss,
        branch_fraction,
        mispredict,
        hit_fraction,
        seed,
        count,
        slices,
        l2_kb,
    ):
        phase = make_phase(
            ilp=ilp,
            mem_refs_per_inst=mem_refs,
            l1_miss_rate=l1_miss,
            branch_fraction=branch_fraction,
            mispredict_rate=mispredict,
            working_set=((128, hit_fraction),),
        )
        trace = TraceGenerator(phase, seed=seed).generate(count)
        assert_identical(trace, VCoreConfig(slices, l2_kb))


def generator_state(generator):
    """Everything a later call reads; the branch tables in visit order."""
    return (
        generator._pc,
        list(generator._hot_blocks),
        list(generator._sweep_position),
        list(generator._branch_bias.items()),
        list(generator._branch_target.items()),
        generator.rng.getstate(),
    )


COLUMNS = [field.name for field in dataclasses.fields(TraceArrays)]


def assert_same_columns(fast, reference):
    for name in COLUMNS:
        left, right = getattr(fast, name), getattr(reference, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def generate_arrays(phase, seed, count, fast, **kwargs):
    """``generate_arrays`` with fast paths on or off; returns the
    columns and the generator."""
    with perf.fast_paths(fast):
        generator = TraceGenerator(phase, seed=seed, **kwargs)
        return generator.generate_arrays(count), generator


class TestTraceGeneratorFastVsReference:
    def test_same_ops_same_rng_state(self):
        phase = make_phase()
        fast, fast_gen = generate_arrays(phase, 11, 3000, fast=True)
        reference, ref_gen = generate_arrays(phase, 11, 3000, fast=False)
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)

    def test_second_batch_continues_identically(self):
        # The compiled port must hand the CPython RNG back exactly
        # where the scalar loop would have left it, so a later batch
        # (in either mode) continues the same stream.
        phase = make_phase()
        first_fast, fast_gen = generate_arrays(phase, 5, 700, fast=True)
        ref_gen = TraceGenerator(phase, seed=5)
        with perf.fast_paths(False):
            first_ref = ref_gen.generate_arrays(700)
            second_ref = ref_gen.generate_arrays(700)
        assert_same_columns(first_fast, first_ref)
        with perf.fast_paths(True):
            second_fast = fast_gen.generate_arrays(700)
        assert_same_columns(second_fast, second_ref)

    def test_rng_usable_after_fast_generate(self):
        phase = make_phase()
        _, gen = generate_arrays(phase, 9, 500, fast=True)
        _, ref_gen = generate_arrays(phase, 9, 500, fast=False)
        mirror = random.Random()
        mirror.setstate(ref_gen.rng.getstate())
        assert [gen.rng.random() for _ in range(8)] == [
            mirror.random() for _ in range(8)
        ]

    @settings(max_examples=15, deadline=None)
    @given(
        ilp=st.floats(min_value=0.1, max_value=200.0),
        mem_refs=st.floats(min_value=0.0, max_value=0.6),
        l1_miss=st.floats(min_value=0.0, max_value=1.0),
        branch_fraction=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.integers(min_value=1, max_value=2000),
    )
    # A high ILP makes most dependency distances hit the cap of 64,
    # where the reference still draws once before its bound stops it.
    @example(
        ilp=200.0,
        mem_refs=0.3,
        l1_miss=0.1,
        branch_fraction=0.15,
        seed=0,
        count=500,
    )
    def test_random_phase_sequences_match(
        self, ilp, mem_refs, l1_miss, branch_fraction, seed, count
    ):
        phase = make_phase(
            ilp=ilp,
            mem_refs_per_inst=mem_refs,
            l1_miss_rate=l1_miss,
            branch_fraction=branch_fraction,
        )
        fast, fast_gen = generate_arrays(phase, seed, count, fast=True)
        reference, ref_gen = generate_arrays(phase, seed, count, fast=False)
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)

    @pytest.mark.parametrize(
        "phase_overrides,kwargs",
        [
            ({}, {"num_registers": 2**27 - 1}),
            ({}, {"num_registers": 2**27}),
            ({"code_footprint_kb": 2**23 - 1}, {}),
            ({"code_footprint_kb": 2**23}, {}),
        ],
        ids=[
            "registers-27-bit",
            "registers-28-bit",
            "code-blocks-27-bit",
            "code-blocks-28-bit",
        ],
    )
    def test_wide_draws_match_on_both_sides_of_27_bits(
        self, phase_overrides, kwargs
    ):
        # 27- and 28-bit register and code-block draws: one-word
        # getrandbits draws whose width (n.bit_length()) and rejection
        # loop must match _randbelow exactly.
        phase = make_phase(branch_fraction=0.3, **phase_overrides)
        fast, fast_gen = generate_arrays(phase, 3, 400, fast=True, **kwargs)
        reference, ref_gen = generate_arrays(
            phase, 3, 400, fast=False, **kwargs
        )
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)

    @pytest.mark.parametrize(
        "phase_overrides,kwargs",
        [
            ({}, {"num_registers": 2**32 - 1}),
            ({}, {"num_registers": 2**32}),
            ({}, {"num_registers": 2**32 + 1}),
            ({}, {"num_registers": 2**63 - 1}),
            ({"code_footprint_kb": 2**28}, {}),
            ({"code_footprint_kb": 2**40 + 3}, {}),
        ],
        ids=[
            "registers-32-bit",
            "registers-33-bit",
            "registers-33-bit-odd",
            "registers-63-bit",
            "code-blocks-33-bit",
            "code-blocks-45-bit",
        ],
    )
    def test_multi_word_draws_match(self, phase_overrides, kwargs):
        # getrandbits past 32 bits fills two MT words, low word first,
        # and shifts the second; _randbelow then rejects values >= n.
        phase = make_phase(branch_fraction=0.3, **phase_overrides)
        fast, fast_gen = generate_arrays(phase, 3, 400, fast=True, **kwargs)
        reference, ref_gen = generate_arrays(
            phase, 3, 400, fast=False, **kwargs
        )
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)

    def test_registers_past_int64_take_the_reference(self):
        # 2**63 registers cannot cross ctypes' c_int64, so FAST runs
        # the reference; every register it draws is below 2**63, so
        # both switch positions give the same columns.
        phase = make_phase()
        fast, fast_gen = generate_arrays(
            phase, 4, 300, fast=True, num_registers=2**63
        )
        reference, ref_gen = generate_arrays(
            phase, 4, 300, fast=False, num_registers=2**63
        )
        assert int(reference.dests.max()) >= 2**62
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)

    def test_code_addresses_past_int64_raise_the_same_error(self):
        phase = make_phase(code_footprint_kb=2**58)
        errors = []
        for fast in (True, False):
            with pytest.raises(OverflowError) as excinfo:
                generate_arrays(phase, 4, 300, fast=fast)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_reference_native_reference_continuation(self):
        # One generator alternates between the two paths: the compiled
        # port must read the branch table and a full 96-entry hot set
        # the reference built, and hand back state the reference
        # continues from.
        phase = make_phase(branch_fraction=0.25, l1_miss_rate=0.4)
        mixed = TraceGenerator(phase, seed=21)
        alone = TraceGenerator(phase, seed=21)
        with perf.fast_paths(False):
            mixed.generate_arrays(2000)
        assert len(mixed._hot_blocks) == 96
        assert mixed._branch_bias
        chunks = []
        for fast in (True, False):
            with perf.fast_paths(fast):
                chunks.append(mixed.generate_arrays(1500))
        with perf.fast_paths(False):
            alone.generate_arrays(2000)
            for expected in chunks:
                assert_same_columns(expected, alone.generate_arrays(1500))
        assert generator_state(mixed) == generator_state(alone)

    @pytest.mark.parametrize("app", ["x264", "apache", "mcf"])
    def test_perfbench_sized_trace_matches(self, app):
        # The shape of perfbench's tiers cells: 40,000 ops of a real
        # phase on the default register file.
        phase = get_app(app).phases[0]
        fast, fast_gen = generate_arrays(phase, 1, 40_000, fast=True)
        reference, ref_gen = generate_arrays(phase, 1, 40_000, fast=False)
        assert_same_columns(fast, reference)
        assert generator_state(fast_gen) == generator_state(ref_gen)


class TestRuntimeIterationRegression:
    """Section VI-A microbenchmark values, pinned bit-exactly.

    These are the numbers ``repro overheads`` prints; the cycle tier
    must reproduce them with the switch in either position (the
    compiled kernel on, the per-cycle engine off).
    """

    PINNED = {1: 2020.4, 2: 1269.4, 3: 1074.6}

    @pytest.mark.parametrize("slices,expected", sorted(PINNED.items()))
    def test_pinned_fast(self, slices, expected):
        with perf.fast_paths(True):
            assert SSim().runtime_iteration_cycles(slices=slices) == expected

    @pytest.mark.parametrize("slices,expected", sorted(PINNED.items()))
    def test_pinned_reference(self, slices, expected):
        with perf.fast_paths(False):
            assert SSim().runtime_iteration_cycles(slices=slices) == expected
