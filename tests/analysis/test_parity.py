"""Trigger / no-trigger fixtures for the FAST-parity rule."""

from pathlib import Path


class TestFastParity:
    def test_deleted_scalar_twin_triggers(self, lint_source):
        """The acceptance scenario: a fast path whose reference twin
        was deleted (no else arm, nothing after the branch)."""
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    return fast_qos(x)
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_stubbed_reference_twin_triggers(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    return fast_qos(x)
                else:
                    pass
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_not_implemented_reference_triggers(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    return fast_qos(x)
                else:
                    raise NotImplementedError
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_stubbed_fast_branch_triggers(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    pass
                return slow_qos(x)
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_fast_paths_enabled_call_is_recognized(self, lint_source):
        findings = lint_source(
            """
            from repro.perf import fast_paths_enabled

            def qos(x):
                if fast_paths_enabled():
                    return fast_qos(x)
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_if_else_twins_are_clean(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    return fast_qos(x)
                else:
                    return slow_qos(x)
            """
        )
        assert findings == []

    def test_early_exit_idiom_is_clean(self, lint_source):
        """`if not perf.FAST: return scalar(...)` + fall-through fast
        path — the optables.py idiom."""
        findings = lint_source(
            """
            from repro import perf

            def table(x):
                if not perf.FAST:
                    return build_scalar(x)
                return build_vectorized(x)
            """
        )
        assert findings == []

    def test_fallthrough_reference_is_clean(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    cached = lookup(x)
                    if cached is not None:
                        return cached
                return recompute(x)
            """
        )
        assert findings == []

    def test_conditional_expression_is_clean(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                return fast_qos(x) if perf.FAST else slow_qos(x)
            """
        )
        assert findings == []

    def test_unrelated_if_is_clean(self, lint_source):
        findings = lint_source(
            """
            def qos(x):
                if x > 0:
                    return x
            """
        )
        assert findings == []

    def test_dispatch_twin_methods_are_clean(self, lint_source):
        """The dispatch idiom: a public entry point dispatching to a
        private fast twin, the reference twin on fall-through."""
        findings = lint_source(
            """
            from repro import perf

            class Engine:
                def run(self, trace):
                    if perf.FAST:
                        return self._run_fast(trace)
                    return self._run_reference(trace)
            """
        )
        assert findings == []

    def test_dispatch_without_reference_twin_triggers(self, lint_source):
        findings = lint_source(
            """
            from repro import perf

            class Engine:
                def run(self, trace):
                    if perf.FAST:
                        return self._run_fast(trace)
            """
        )
        assert [f.rule for f in findings] == ["fast-parity"]

    def test_applies_outside_engine_directories(self, lint_source):
        """Parity is repo-wide: harness/baseline code branches on FAST
        too."""
        findings = lint_source(
            """
            from repro import perf

            def qos(x):
                if perf.FAST:
                    return fast_qos(x)
            """,
            path="src/repro/experiments/harness.py",
        )
        assert [f.rule for f in findings] == ["fast-parity"]


class TestEngineFilesClean:
    """The real cycle-tier engine files lint clean, full suite."""

    def test_pipeline_and_trace_have_zero_findings(self, lint_source):
        root = Path(__file__).resolve().parents[2]
        for relative in (
            "src/repro/sim/pipeline.py",
            "src/repro/sim/trace.py",
        ):
            source = (root / relative).read_text()
            assert lint_source(source, path=relative) == []
