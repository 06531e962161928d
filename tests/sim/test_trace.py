"""Synthetic trace generation."""

import pytest

from repro.sim.isa import MicroOp, OpKind
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase


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


class TestMicroOpValidation:
    def test_load_needs_address_and_dest(self):
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.LOAD, dest=1)
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.LOAD, address=64)

    def test_store_needs_address(self):
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.STORE)

    def test_only_branches_mispredict(self):
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.ALU, dest=1, mispredicted=True)

    def test_negative_registers_rejected(self):
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.ALU, sources=(-1,), dest=1)
        with pytest.raises(ValueError):
            MicroOp(op_id=0, kind=OpKind.ALU, dest=-2)

    def test_helper_properties(self):
        load = MicroOp(op_id=0, kind=OpKind.LOAD, dest=1, address=64)
        assert load.is_memory and not load.uses_alu
        branch = MicroOp(op_id=1, kind=OpKind.BRANCH)
        assert branch.uses_alu and not branch.is_memory


class TestGeneration:
    def test_generates_requested_count(self):
        ops = TraceGenerator(make_phase()).generate(500)
        assert len(ops) == 500
        assert [op.op_id for op in ops] == list(range(500))

    def test_deterministic_by_seed(self):
        a = TraceGenerator(make_phase(), seed=3).generate(200)
        b = TraceGenerator(make_phase(), seed=3).generate(200)
        assert a == b

    def test_different_seeds_differ(self):
        a = TraceGenerator(make_phase(), seed=1).generate(200)
        b = TraceGenerator(make_phase(), seed=2).generate(200)
        assert a != b

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            TraceGenerator(make_phase()).generate(0)

    def test_rejects_too_few_registers(self):
        with pytest.raises(ValueError):
            TraceGenerator(make_phase(), num_registers=4)

    def test_memory_mix_matches_phase(self):
        phase = make_phase(mem_refs_per_inst=0.4)
        ops = TraceGenerator(phase, seed=0).generate(5000)
        stats = TraceGenerator.stats(ops)
        assert stats.memory_fraction == pytest.approx(0.4, abs=0.05)

    def test_branch_mix_matches_phase(self):
        phase = make_phase(branch_fraction=0.2)
        ops = TraceGenerator(phase, seed=0).generate(5000)
        stats = TraceGenerator.stats(ops)
        assert stats.branches / len(ops) == pytest.approx(0.2, abs=0.04)

    def test_mispredict_rate_matches_phase(self):
        phase = make_phase(branch_fraction=0.3, mispredict_rate=0.1)
        ops = TraceGenerator(phase, seed=0).generate(10_000)
        stats = TraceGenerator.stats(ops)
        assert stats.mispredicts / max(stats.branches, 1) == pytest.approx(
            0.1, abs=0.04
        )

    def test_pure_compute_phase_has_no_memory_ops(self):
        phase = make_phase(mem_refs_per_inst=0.0, working_set=())
        ops = TraceGenerator(phase, seed=0).generate(1000)
        assert TraceGenerator.stats(ops).memory_fraction == 0.0

    def test_addresses_are_block_aligned(self):
        ops = TraceGenerator(make_phase(), seed=0).generate(2000)
        for op in ops:
            if op.is_memory:
                assert op.address % 64 == 0

    def test_addresses_show_temporal_locality(self):
        """Most accesses re-touch recent blocks (the L1 hit share)."""
        phase = make_phase(l1_miss_rate=0.1)
        ops = TraceGenerator(phase, seed=0).generate(10_000)
        addresses = [op.address for op in ops if op.is_memory]
        unique = len(set(addresses))
        # With 90% re-use, unique blocks are a small share of accesses.
        assert unique < 0.3 * len(addresses)

    def test_working_set_bounds_cold_addresses(self):
        phase = make_phase(working_set=((128, 0.9),), l1_miss_rate=1.0)
        generator = TraceGenerator(phase, seed=0)
        ops = generator.generate(5000)
        in_region = [
            op.address
            for op in ops
            if op.is_memory and op.address < (1 << 30)
        ]
        assert in_region and max(in_region) < 128 * 1024


class TestGenerateArrays:
    """The SoA generation path is a twin of ``generate``, not a fork."""

    def test_matches_object_generation(self):
        phase = make_phase()
        arrays = TraceGenerator(phase, seed=5).generate_arrays(1200)
        ops = TraceGenerator(phase, seed=5).generate(1200)
        assert arrays.to_ops() == ops

    def test_scalar_twin_matches(self):
        from repro import perf

        phase = make_phase(branch_fraction=0.25, l1_miss_rate=0.3)
        with perf.fast_paths(True):
            fast = TraceGenerator(phase, seed=2).generate_arrays(800)
        with perf.fast_paths(False):
            reference = TraceGenerator(phase, seed=2).generate_arrays(800)
        assert fast.to_ops() == reference.to_ops()

    def test_rng_state_continues_identically(self):
        """Consecutive chunks must splice: array generation leaves the
        generator in exactly the state object generation would."""
        phase = make_phase()
        via_arrays = TraceGenerator(phase, seed=9)
        via_objects = TraceGenerator(phase, seed=9)
        first = via_arrays.generate_arrays(400)
        assert first.to_ops() == via_objects.generate(400)
        # The follow-on chunk draws from the continued stream on both
        # sides, so any state divergence shows up immediately.
        second = via_arrays.generate_arrays(400)
        assert second.to_ops() == via_objects.generate(400)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            TraceGenerator(make_phase()).generate_arrays(0)
