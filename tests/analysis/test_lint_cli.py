"""`repro lint` end to end: the CLI, the gate, the repo tip.

The acceptance scenarios for the suite live here:

* the repo tip lints clean: no finding a pragma does not suppress;
* injecting an unseeded ``random.random()`` into ``sim/`` makes the
  gate exit nonzero;
* deleting the scalar reference twin of a FAST-gated function makes
  the gate exit nonzero.
"""

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_lint(argv, capsys):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRepoTip:
    def test_repo_lints_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run_lint(["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["findings"] == []


def write_module(root, relative, source):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestGateFiresOnInjectedViolations:
    def test_unseeded_random_in_sim_fails_the_gate(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "unseeded-random" in out

    def test_deleted_scalar_twin_fails_the_gate(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/runtime/solver.py",
            """
            from repro import perf

            def solve(x):
                if perf.FAST:
                    return fast_solve(x)
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "fast-parity" in out

    def test_worker_global_write_fails_the_gate(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/experiments/stats.py",
            """
            _RESULTS = []

            def run_cell(spec):
                _RESULTS.append(spec)
                return spec
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "worker-global-write" in out

    def test_lock_discipline_violation_fails_the_gate(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/tables.py",
            """
            import threading

            _CACHE_LOCK = threading.Lock()
            _TABLE = {}

            def publish(key, value):
                _TABLE[key] = value
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "lock-discipline" in out

    def test_cache_mutation_violation_fails_the_gate(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/tables.py",
            """
            _CACHE = {}

            def lookup(key):
                return _CACHE.get(key)

            def poison(key):
                table = lookup(key)
                table.append(None)
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "cache-mutation" in out

    def test_clean_tree_passes(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter(seed):
                return random.Random(seed).random()
            """,
        )
        code, _ = run_lint([str(tmp_path)], capsys)
        assert code == 0


class TestUsageErrors:
    def test_missing_path_is_a_usage_error(self, tmp_path):
        code = main(["lint", str(tmp_path / "nope")])
        assert code == 2


class TestReportFormats:
    def test_text_report_names_rule_and_location(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint(
            [str(tmp_path), "--root", str(tmp_path)], capsys
        )
        assert code == 1
        assert "pkg/sim/noise.py:5" in out
        assert "[unseeded-random]" in out

    def test_json_report_is_machine_readable(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        (finding,) = report["findings"]
        assert finding["rule"] == "unseeded-random"
        assert finding["path"] == "pkg/sim/noise.py"
        assert set(finding) == {
            "path",
            "line",
            "column",
            "rule",
            "scope",
            "message",
            "snippet",
        }

    def test_parse_error_is_reported_not_fatal(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "parse-error" in out

    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "github",
            ],
            capsys,
        )
        assert code == 1
        annotations = [
            line for line in out.splitlines() if line.startswith("::error ")
        ]
        (annotation,) = annotations
        assert "file=pkg/sim/noise.py" in annotation
        assert "line=5" in annotation
        assert "unseeded-random" in annotation

    def test_github_format_output_is_stable_sorted(self, tmp_path, capsys):
        # Two files, multiple findings each: annotations must arrive in
        # (path, line, column, rule) order, byte-identical across runs.
        write_module(
            tmp_path,
            "pkg/sim/zeta.py",
            """
            import random
            import time

            def jitter():
                return random.random() + time.time()
            """,
        )
        write_module(
            tmp_path,
            "pkg/sim/alpha.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        argv = [
            str(tmp_path),
            "--root",
            str(tmp_path),
            "--format",
            "github",
        ]
        _, first = run_lint(argv, capsys)
        _, second = run_lint(argv, capsys)
        assert first == second
        annotations = [
            line for line in first.splitlines() if line.startswith("::error ")
        ]
        keys = []
        for line in annotations:
            properties = dict(
                part.split("=", 1)
                for part in line[len("::error ") :].split("::")[0].split(",")
            )
            keys.append(
                (properties["file"], int(properties["line"]), int(properties["col"]))
            )
        assert keys == sorted(keys)
        assert len(annotations) >= 3

    def test_github_format_escapes_newlines_and_commas(self, tmp_path, capsys):
        # A message containing % or newlines must not break the
        # single-line workflow-command syntax.
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "github",
            ],
            capsys,
        )
        assert code == 1
        for line in out.splitlines():
            if line.startswith("::error "):
                assert "\n" not in line
                assert line.count("::") == 2

    def test_github_format_clean_tree_emits_summary_only(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run_lint(["--format", "github"], capsys)
        assert code == 0
        assert not [
            line for line in out.splitlines() if line.startswith("::error")
        ]
        assert "0 finding(s)" in out


class TestRulesListing:
    def test_lists_every_registered_rule_with_scope(self, capsys):
        from repro.analysis import ALL_RULES

        code, out = run_lint(["--rules"], capsys)
        assert code == 0
        for rule in ALL_RULES:
            assert rule.id in out
        assert "hot-set" in out
        assert "repo-wide" in out
        assert "engine-dirs(" in out

    def test_rules_listing_is_sorted_and_describes(self, capsys):
        code, out = run_lint(["--rules"], capsys)
        assert code == 0
        ids = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert ids == sorted(ids)
        hot_line = next(
            line for line in out.splitlines()
            if line.startswith("quadratic-listop")
        )
        assert "hot-set" in hot_line
        assert "pop(0)" in hot_line


class TestHotReportCLI:
    def test_text_report_ranks_hot_functions(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/experiments/stats.py",
            """
            def run_cell(spec):
                pending = list(spec)
                for row in spec:
                    while pending:
                        pending.pop(0)
                return pending
            """,
        )
        code, out = run_lint(
            [str(tmp_path), "--hot-report", "--root", str(tmp_path)], capsys
        )
        assert code == 0
        assert "run_cell" in out
        assert "hot function(s)" in out

    def test_json_report_carries_scores(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/experiments/stats.py",
            """
            def run_cell(spec):
                pending = list(spec)
                for row in spec:
                    while pending:
                        pending.pop(0)
                return pending
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--hot-report",
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        (entry,) = [
            e
            for e in report["hot_functions"]
            if e["qualname"] == "run_cell"
        ]
        assert entry["loop_depth"] == 2
        assert entry["findings"] >= 1
        assert entry["score"] == entry["loop_depth"] * entry["findings"]
        assert entry["path"] == "pkg/experiments/stats.py"

    def test_repo_tip_hot_report_runs_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run_lint(["--hot-report", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["hot_functions"]
        assert all(
            entry["findings"] == 0 for entry in report["hot_functions"]
        )


class TestJsonSchemaV2:
    """The fields schema version 2 added (``scope``, ``suppressed``),
    kept by version 3, which dropped the per-finding fingerprint."""

    def test_findings_carry_rule_scope(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        assert report["version"] == 3
        (finding,) = report["findings"]
        assert finding["scope"].startswith("engine-dirs(")

    def test_pragma_suppressed_counts_are_reported(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/noise.py",
            """
            import random

            def jitter():
                return random.random()  # lint: allow(unseeded-random)
            """,
        )
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["findings"] == []
        assert report["suppressed"] == {"unseeded-random": 1}

    def test_parse_error_findings_get_default_scope(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        code, out = run_lint(
            [
                str(tmp_path),
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        (finding,) = report["findings"]
        assert finding["rule"] == "parse-error"
        assert finding["scope"] == "repo-wide"


class TestDataflowCLI:
    def test_dataflow_report_text_and_json(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/tables.py",
            """
            _TABLE_CACHE = {}

            def lookup(phase, mode):
                key = (phase, mode)
                hit = _TABLE_CACHE.get(key)
                if hit is not None:
                    return hit
                value = (phase, mode * 2)
                _TABLE_CACHE[key] = value
                return value
            """,
        )
        code, out = run_lint(
            [str(tmp_path), "--dataflow-report", "--root", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "caches (1):" in out
        assert "_TABLE_CACHE" in out
        code, out = run_lint(
            [
                str(tmp_path),
                "--dataflow-report",
                "--root",
                str(tmp_path),
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        (cache,) = report["caches"]
        assert cache["missing"] == []

    def test_repo_tip_dataflow_report_is_clean_json(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run_lint(
            ["--dataflow-report", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert all(row["missing"] == [] for row in report["caches"])
        assert report["version"] == 2
        assert set(report) == {"version", "caches", "streams"}


class TestHistoricalRegressionsFailTheGate:
    """The PR 3 / PR 4 performance regressions, replayed via the CLI."""

    def test_pr3_pop0_arrival_drain_fails(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/cloud/provider.py",
            """
            class CloudProvider:
                def run(self, horizon):
                    arrivals = sorted(self.pending)
                    for interval in range(horizon):
                        while arrivals and arrivals[0] <= interval:
                            tenant = arrivals.pop(0)
                            self.admit(tenant)

                def admit(self, tenant):
                    return tenant
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "quadratic-listop" in out

    def test_pr4_per_cycle_sorted_scan_fails(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "pkg/sim/batchpipe.py",
            """
            def run_batch(trace):
                cycle = 0
                window = list(trace)
                while window:
                    for op in sorted(window):
                        if op <= cycle:
                            window.remove(op)
                    cycle += 1
                return cycle
            """,
        )
        code, out = run_lint([str(tmp_path)], capsys)
        assert code == 1
        assert "loop-invariant" in out


class TestLintSuiteLoadsOnDemand:
    """The engine imports ``repro.analysis`` for its sanitizer and unit
    types only: no rule module loads until lint runs."""

    RULE_MODULES = sorted(
        f"repro.analysis.{name}"
        for name in (
            "callgraph",
            "dataflow",
            "hotpath",
            "effects",
            "determinism",
            "numerics",
            "parity",
        )
    )

    @pytest.mark.parametrize(
        "statement",
        [
            "import repro.experiments.stats",
            "from repro.cli import build_parser; build_parser()",
        ],
        ids=["engine", "parser"],
    )
    def test_no_rule_module_is_imported(self, statement):
        script = (
            f"{statement}\n"
            "import sys\n"
            f"print(sorted(set({self.RULE_MODULES!r}) & set(sys.modules)))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"

    def test_registry_builds_on_first_use(self):
        import repro.analysis
        from repro.analysis import ALL_RULES, RULES_BY_ID

        assert RULES_BY_ID == {rule.id: rule for rule in ALL_RULES}
        assert repro.analysis.ALL_RULES is ALL_RULES
        with pytest.raises(AttributeError, match="NO_SUCH_NAME"):
            repro.analysis.NO_SUCH_NAME
