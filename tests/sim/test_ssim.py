"""The SSim facade: overheads and tier agreement."""

from dataclasses import replace

import pytest

from repro.arch.vcore import VCoreConfig
from repro.sim.pipeline import MultiSlicePipeline
from repro.sim.ssim import SSim
from repro.sim.trace import TraceGenerator
from repro.workloads.apps import make_x264


@pytest.fixture(scope="module")
def ssim():
    return SSim()


class TestRuntimeOverhead:
    """Section VI-A: ~2000 / 1100 / 977 cycles per runtime iteration."""

    def test_one_slice_near_2000_cycles(self, ssim):
        cycles = ssim.runtime_iteration_cycles(slices=1)
        assert 1500 <= cycles <= 2500

    def test_decreases_with_slices(self, ssim):
        one = ssim.runtime_iteration_cycles(slices=1)
        two = ssim.runtime_iteration_cycles(slices=2)
        three = ssim.runtime_iteration_cycles(slices=3)
        assert one > two > three

    def test_three_slice_near_paper_value(self, ssim):
        cycles = ssim.runtime_iteration_cycles(slices=3)
        assert 700 <= cycles <= 1300

    def test_not_application_dependent(self, ssim):
        """The runtime's own instruction stream is fixed."""
        a = ssim.runtime_iteration_cycles(slices=1, seed=7)
        b = ssim.runtime_iteration_cycles(slices=1, seed=7)
        assert a == b

    def test_rejects_bad_arguments(self, ssim):
        with pytest.raises(ValueError):
            ssim.runtime_iteration_cycles(slices=0)
        with pytest.raises(ValueError):
            ssim.runtime_iteration_cycles(iterations=0)


class TestTierAgreement:
    def test_fast_tier_tracks_cycle_tier_on_small_configs(self, ssim):
        """The analytic model should predict the cycle tier within a
        factor-level bound on modest virtual cores."""
        phase = make_x264().phases[0]
        for config in (VCoreConfig(1, 64), VCoreConfig(2, 256),
                       VCoreConfig(4, 512)):
            result = ssim.run_cycle_accurate(phase, config, instructions=2500)
            assert result.relative_error < 0.5

    def test_tiers_agree_on_ordering(self, ssim):
        """Both tiers must rank a weak and a strong configuration the
        same way — the runtime only needs relative judgements."""
        phase = make_x264().phases[1]  # compute-heavy
        weak = ssim.run_cycle_accurate(phase, VCoreConfig(1, 64), 2500)
        strong = ssim.run_cycle_accurate(phase, VCoreConfig(4, 256), 2500)
        assert strong.measured_ipc > weak.measured_ipc
        assert strong.predicted_ipc > weak.predicted_ipc

    def test_compare_tiers_returns_per_config_results(self, ssim):
        phase = make_x264().phases[0]
        configs = [VCoreConfig(1, 64), VCoreConfig(2, 128)]
        results = ssim.compare_tiers(phase, configs, instructions=1500)
        assert len(results) == 2
        assert all(r.measured_ipc > 0 for r in results)

    def test_explicit_trace_reused(self, ssim):
        phase = make_x264().phases[0]
        trace = TraceGenerator(phase, seed=5).generate(1000)
        a = ssim.run_cycle_accurate(phase, VCoreConfig(1, 64), trace=trace)
        b = ssim.run_cycle_accurate(phase, VCoreConfig(1, 64), trace=trace)
        assert a.measured_ipc == b.measured_ipc

    def test_explicit_trace_matches_generated_trace(self, ssim):
        phase = make_x264().phases[0]
        config = VCoreConfig(2, 128)
        trace = TraceGenerator(
            phase, ssim.slice_params.physical_registers, seed=5
        ).generate(800)
        given = ssim.run_cycle_accurate(phase, config, trace=trace)
        generated = ssim.run_cycle_accurate(phase, config, 800, seed=5)
        assert given == generated

    def test_out_of_order_op_ids_run_on_the_pipeline(self, ssim):
        # Swapping each adjacent pair of ids keeps them 0..n-1 but not
        # in trace order, which TraceArrays cannot encode.
        phase = make_x264().phases[0]
        config = VCoreConfig(2, 128)
        ops = TraceGenerator(phase, seed=5).generate(600)
        trace = [replace(op, op_id=op.op_id ^ 1) for op in ops]
        result = ssim.run_cycle_accurate(phase, config, trace=trace)
        assert result.pipeline == MultiSlicePipeline(config).run(trace)
