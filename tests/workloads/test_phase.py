"""Phase models and phased applications."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.workloads.phase import Phase, PhasedApplication


def make_phase(**overrides):
    defaults = dict(
        name="p",
        instructions_m=10,
        ilp=2.0,
        mem_refs_per_inst=0.3,
        l1_miss_rate=0.1,
        working_set=((128, 0.5), (1024, 0.9)),
    )
    defaults.update(overrides)
    return Phase(**defaults)


class TestPhaseValidation:
    def test_valid_phase(self):
        phase = make_phase()
        assert phase.instructions == 10e6

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            make_phase(instructions_m=0)

    def test_rejects_tiny_ilp(self):
        with pytest.raises(ValueError):
            make_phase(ilp=0.05)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            make_phase(mem_refs_per_inst=1.5)
        with pytest.raises(ValueError):
            make_phase(l1_miss_rate=-0.1)
        with pytest.raises(ValueError):
            make_phase(branch_fraction=2.0)
        with pytest.raises(ValueError):
            make_phase(mispredict_rate=-1.0)

    def test_rejects_mlp_below_one(self):
        with pytest.raises(ValueError):
            make_phase(mlp=0.5)

    def test_rejects_unsorted_working_set(self):
        with pytest.raises(ValueError):
            make_phase(working_set=((1024, 0.5), (128, 0.9)))

    def test_rejects_decreasing_fractions(self):
        with pytest.raises(ValueError):
            make_phase(working_set=((128, 0.9), (1024, 0.5)))

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ValueError):
            make_phase(working_set=((128, 1.2),))


class TestL2HitFraction:
    def test_step_semantics(self):
        """Capture jumps only once a working set fully fits."""
        phase = make_phase(working_set=((128, 0.5), (1024, 0.9)))
        assert phase.l2_hit_fraction(64) == 0.0
        assert phase.l2_hit_fraction(128) == 0.5
        assert phase.l2_hit_fraction(512) == 0.5  # plateau
        assert phase.l2_hit_fraction(1024) == 0.9
        assert phase.l2_hit_fraction(8192) == 0.9

    def test_empty_working_set_captures_nothing(self):
        phase = make_phase(working_set=())
        assert phase.l2_hit_fraction(8192) == 0.0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            make_phase().l2_hit_fraction(0)

    @given(
        kb1=st.sampled_from([64 * 2 ** i for i in range(8)]),
        kb2=st.sampled_from([64 * 2 ** i for i in range(8)]),
    )
    def test_monotone_nondecreasing(self, kb1, kb2):
        phase = make_phase()
        if kb1 <= kb2:
            assert phase.l2_hit_fraction(kb1) <= phase.l2_hit_fraction(kb2)


class TestPhasedApplication:
    def _app(self):
        return PhasedApplication(
            name="app",
            phases=[
                make_phase(name="a", instructions_m=10),
                make_phase(name="b", instructions_m=20),
            ],
        )

    def test_requires_phases(self):
        with pytest.raises(ValueError):
            PhasedApplication(name="x", phases=[])

    def test_rejects_unknown_qos_kind(self):
        with pytest.raises(ValueError):
            PhasedApplication(name="x", phases=[make_phase()], qos_kind="power")

    def test_latency_needs_request_size(self):
        with pytest.raises(ValueError):
            PhasedApplication(name="x", phases=[make_phase()], qos_kind="latency")

    def test_rejects_repeated_phase_name(self):
        # Per-phase tables are keyed by name: a repeat would be
        # simulated with the first phase's table.
        with pytest.raises(ValueError, match="'a'"):
            PhasedApplication(
                name="x",
                phases=[
                    make_phase(name="a", instructions_m=10),
                    make_phase(name="a", instructions_m=20, ilp=1.5),
                ],
            )

    def test_total_instructions(self):
        assert self._app().total_instructions == 30e6

    def test_phase_at_instruction(self):
        app = self._app()
        index, phase = app.phase_at_instruction(5e6)
        assert (index, phase.name) == (0, "a")
        index, phase = app.phase_at_instruction(15e6)
        assert (index, phase.name) == (1, "b")

    def test_phase_lookup_wraps(self):
        app = self._app()
        index, phase = app.phase_at_instruction(31e6)
        assert (index, phase.name) == (0, "a")

    def test_phase_lookup_rejects_negative(self):
        with pytest.raises(ValueError):
            self._app().phase_at_instruction(-1)

    def test_phase_schedule(self):
        schedule = self._app().phase_schedule()
        assert schedule[0][:2] == (0.0, 10e6)
        assert schedule[1][:2] == (10e6, 30e6)

    def test_sequence_protocol(self):
        app = self._app()
        assert len(app) == 2
        assert app[1].name == "b"
        assert [p.name for p in app] == ["a", "b"]

    @given(offset=st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_lookup_always_lands_in_a_phase(self, offset):
        app = self._app()
        index, phase = app.phase_at_instruction(offset)
        assert phase in app.phases
        assert 0 <= index < len(app)


def subtractive_scan(app, instruction):
    """The lookup as a scan over each phase's ``instructions`` property."""
    offset = instruction % app.total_instructions
    for index, phase in enumerate(app.phases):
        if offset < phase.instructions:
            return index, phase
        offset -= phase.instructions
    return len(app.phases) - 1, app.phases[-1]


class TestPhaseLookupAtBoundaries:
    @given(
        lengths=st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        passes=st.integers(min_value=0, max_value=3),
    )
    def test_lookup_matches_subtractive_scan(self, lengths, passes):
        app = PhasedApplication(
            name="x",
            phases=[
                make_phase(name=f"p{i}", instructions_m=length)
                for i, length in enumerate(lengths)
            ],
        )
        boundaries = [0.0]
        for phase in app.phases:
            boundaries.append(boundaries[-1] + phase.instructions)
        for boundary in boundaries:
            # ``passes`` whole passes later: past the wrap.
            shifted = boundary + passes * app.total_instructions
            for offset in (
                shifted,
                math.nextafter(shifted, -math.inf),
                math.nextafter(shifted, math.inf),
            ):
                if offset < 0:
                    continue
                assert app.phase_at_instruction(offset) == subtractive_scan(
                    app, offset
                )
