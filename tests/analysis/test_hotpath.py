"""The hot-path performance rules: hotness classification, the four
rules (quadratic-listop, loop-invariant, numpy-scalar-loop, hot-alloc),
the injected historical regressions (PR 3 ``pop(0)`` drain, PR 4
per-cycle ``sorted`` scan), and the repo-tip acceptance sweep.

Every rule gets a trigger case and a no-trigger twin, exactly like
``test_effects.py``; the hotness tests additionally pin the exemption
machinery (scalar branches, ``*_reference`` naming, scalar-only call
edges).
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.core import FileContext, load_contexts, scan_paths
from repro.analysis.hotpath import (
    HOT_RULES,
    hot_report,
    hot_view,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

HOT_RULE_IDS = [rule.id for rule in HOT_RULES]


def rules_of(findings):
    return {finding.rule for finding in findings}


def contexts_of(sources):
    return [
        FileContext(path, textwrap.dedent(source))
        for path, source in sorted(sources.items())
    ]


def view_of(sources):
    return hot_view(contexts_of(sources))


def hot_qualnames(view):
    return {view.graph.functions[key].qualname for key in view.hot}


class TestHotSetMembership:
    def test_entrypoint_and_callees_are_hot(self, lint_program):
        view = view_of(
            {
                "src/repro/experiments/stats.py": """
                from repro.sim.kernels import step

                def run_cell(spec):
                    return step(spec)

                def unrelated(spec):
                    return spec
                """,
                "src/repro/sim/kernels.py": """
                def step(spec):
                    return helper(spec)

                def helper(spec):
                    return spec
                """,
            }
        )
        assert hot_qualnames(view) == {"run_cell", "step", "helper"}

    def test_fast_branch_function_is_a_root(self):
        view = view_of(
            {
                "src/repro/sim/engine.py": """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return x + 1
                    return x + 1

                def cold(x):
                    return x
                """
            }
        )
        assert hot_qualnames(view) == {"kernel"}

    def test_scalar_branch_callee_is_not_hot(self):
        view = view_of(
            {
                "src/repro/sim/engine.py": """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return fast(x)
                    return slow(x)

                def fast(x):
                    return x

                def slow(x):
                    return x
                """
            }
        )
        names = hot_qualnames(view)
        assert "fast" in names
        assert "slow" not in names

    def test_fallthrough_scalar_tail_is_not_hot(self):
        view = view_of(
            {
                "src/repro/sim/engine.py": """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return fast(x)
                    acc = 0
                    for i in range(x):
                        acc += slow(i)
                    return acc

                def fast(x):
                    return x

                def slow(x):
                    return x
                """
            }
        )
        names = hot_qualnames(view)
        assert "fast" in names
        assert "slow" not in names

    def test_reference_twin_is_exempt_even_when_called_from_fast(self):
        # The column trace generator falls back to its reference twin
        # for draws wider than a decoded float carries — a call
        # *outside* any scalar branch.  The *_reference naming protocol
        # still keeps the twin cold.
        view = view_of(
            {
                "src/repro/sim/trace.py": """
                class TraceGenerator:
                    def generate_arrays(self, count):
                        if self.num_registers > self.limit:
                            return self._generate_reference(count)
                        return count

                    def _generate_reference(self, count):
                        return self._tally(count)

                    def _tally(self, count):
                        return count
                """
            }
        )
        names = hot_qualnames(view)
        assert "TraceGenerator.generate_arrays" in names
        assert "TraceGenerator._generate_reference" not in names
        # And nothing reachable only through the reference twin is hot.
        assert "TraceGenerator._tally" not in names

    def test_loop_depth_recorded_per_function(self):
        view = view_of(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    total = 0
                    for row in spec:
                        for item in row:
                            total += item
                    return total

                def flat(spec):
                    return run_cell(spec)
                """
            }
        )
        depths = {
            view.graph.functions[key].qualname: view.graph.functions[
                key
            ].loop_depth
            for key in view.hot
        }
        assert depths["run_cell"] == 2

    def test_comprehension_counts_toward_loop_depth(self):
        view = view_of(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    out = []
                    for row in spec:
                        out.append([x + 1 for x in row])
                    return out
                """
            }
        )
        (key,) = view.hot
        assert view.graph.functions[key].loop_depth == 2


class TestQuadraticListOp:
    def test_pop0_in_hot_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    pending = list(spec)
                    while pending:
                        item = pending.pop(0)
                    return item
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}
        assert ".pop(0)" in findings[0].message

    def test_popleft_drain_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                from collections import deque

                def run_cell(spec):
                    pending = deque(spec)
                    while pending:
                        item = pending.popleft()
                    return item
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_insert0_in_hot_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    out = []
                    for item in spec:
                        out.insert(0, item)
                    return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}

    def test_membership_against_list_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    seen = []
                    for item in spec:
                        if item in seen:
                            continue
                        seen.append(item)
                    return seen
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}
        assert "seen" in findings[0].message

    def test_membership_against_set_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    seen = set()
                    for item in spec:
                        if item in seen:
                            continue
                        seen.add(item)
                    return seen
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_list_concat_augassign_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    out = []
                    for item in spec:
                        out += [item]
                    return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}

    def test_rebinding_concat_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    out = []
                    for item in spec:
                        out = out + [item]
                    return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}

    def test_cold_function_is_ignored(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def cold_helper(spec):
                    pending = list(spec)
                    while pending:
                        item = pending.pop(0)
                    return item
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_scalar_branch_is_exempt(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                from repro import perf

                def run_cell(spec):
                    if perf.FAST:
                        return len(spec)
                    pending = list(spec)
                    while pending:
                        item = pending.pop(0)
                    return item
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_pragma_suppresses(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    pending = list(spec)
                    while pending:
                        item = pending.pop(0)  # lint: allow(quadratic-listop)
                    return item
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []


class TestPR3RegressionInjection:
    """Reintroducing the PR 3 arrival drain must fail ``repro lint``."""

    def test_pop0_drain_in_provider_run_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/provider.py": """
                class CloudProvider:
                    def run(self, horizon):
                        arrivals = sorted(self.pending)
                        for interval in range(horizon):
                            while arrivals and arrivals[0] <= interval:
                                tenant = arrivals.pop(0)
                                self.admit(tenant)

                    def admit(self, tenant):
                        return tenant
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}
        assert findings[0].path == "src/repro/cloud/provider.py"
        assert "CloudProvider.run" in findings[0].message


class TestLoopInvariant:
    def test_sorted_in_hot_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    for row in spec:
                        order = sorted(row)
                    return order
                """
            },
            rules=["loop-invariant"],
        )
        assert rules_of(findings) == {"loop-invariant"}
        assert "sorted" in findings[0].message

    def test_sorted_outside_loop_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    order = sorted(spec)
                    total = 0
                    for item in order:
                        total += item
                    return total
                """
            },
            rules=["loop-invariant"],
        )
        assert findings == []

    def test_re_compile_in_hot_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import re

                def run_cell(lines):
                    hits = 0
                    for line in lines:
                        if re.compile("x+").match(line):
                            hits += 1
                    return hits
                """
            },
            rules=["loop-invariant"],
        )
        assert rules_of(findings) == {"loop-invariant"}
        assert "re.compile" in findings[0].message

    def test_min_over_loop_constant_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec, floor):
                    total = 0
                    for item in spec:
                        total += item - min(floor)
                    return total
                """
            },
            rules=["loop-invariant"],
        )
        assert rules_of(findings) == {"loop-invariant"}
        assert "min" in findings[0].message

    def test_min_over_loop_varying_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    best = 0
                    for row in spec:
                        best += min(row)
                    return best
                """
            },
            rules=["loop-invariant"],
        )
        assert findings == []

    def test_repeated_attribute_chain_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(sim):
                    total = 0
                    for i in range(100):
                        total += sim.config.weights[i]
                        total -= sim.config.weights[0]
                    return total
                """
            },
            rules=["loop-invariant"],
        )
        assert rules_of(findings) == {"loop-invariant"}
        assert "sim.config.weights" in findings[0].message

    def test_chain_on_loop_varying_root_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(sims):
                    total = 0
                    for sim in sims:
                        total += sim.config.weight
                        total -= sim.config.weight
                    return total
                """
            },
            rules=["loop-invariant"],
        )
        assert findings == []

    def test_single_chain_occurrence_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(sim):
                    total = 0
                    for i in range(100):
                        total += sim.config.weight
                    return total
                """
            },
            rules=["loop-invariant"],
        )
        assert findings == []


class TestPR4RegressionInjection:
    """Reintroducing the PR 4 per-cycle window sort must fail lint."""

    def test_per_cycle_sorted_scan_fires(self, lint_program):
        # The cycle tier's fast engine is entered through run_batch; a
        # per-cycle window sort on that path is the regression pinned
        # here.
        findings = lint_program(
            {
                "src/repro/sim/batchpipe.py": """
                def run_batch(trace):
                    cycle = 0
                    window = list(trace)
                    while window:
                        for op in sorted(window):
                            if op <= cycle:
                                window.remove(op)
                        cycle += 1
                    return cycle
                """
            },
            rules=["loop-invariant"],
        )
        assert rules_of(findings) == {"loop-invariant"}
        assert findings[0].path == "src/repro/sim/batchpipe.py"
        assert "run_batch" in findings[0].message


class TestNumpyScalarLoop:
    def test_elementwise_loop_over_ndarray_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import numpy as np

                def run_cell(spec):
                    values = np.asarray(spec)
                    total = 0.0
                    for value in values:
                        total += value
                    return total
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert rules_of(findings) == {"numpy-scalar-loop"}
        assert "values" in findings[0].message

    def test_range_len_indexing_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import numpy as np

                def run_cell(spec):
                    values = np.zeros(len(spec))
                    total = 0.0
                    for i in range(len(values)):
                        total += values[i]
                    return total
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert rules_of(findings) == {"numpy-scalar-loop"}

    def test_enumerate_over_ndarray_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import numpy as np

                def run_cell(spec):
                    values = np.array(spec)
                    total = 0.0
                    for i, value in enumerate(values):
                        total += i * value
                    return total
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert rules_of(findings) == {"numpy-scalar-loop"}

    def test_vectorized_use_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import numpy as np

                def run_cell(spec):
                    values = np.asarray(spec)
                    return float(values.sum())
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert findings == []

    def test_loop_over_plain_list_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(spec):
                    values = list(spec)
                    total = 0.0
                    for value in values:
                        total += value
                    return total
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert findings == []

    def test_scalar_branch_iteration_is_exempt(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import numpy as np
                from repro import perf

                def run_cell(spec):
                    values = np.asarray(spec)
                    if perf.FAST:
                        return float(values.sum())
                    total = 0.0
                    for value in values:
                        total += value
                    return total
                """
            },
            rules=["numpy-scalar-loop"],
        )
        assert findings == []


class TestHotAlloc:
    def test_class_construction_in_inner_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                class Point:
                    def __init__(self, x, y):
                        self.x = x
                        self.y = y

                def run_cell(grid):
                    total = 0
                    for row in grid:
                        for x in row:
                            total += Point(x, x).x
                    return total
                """
            },
            rules=["hot-alloc"],
        )
        assert rules_of(findings) == {"hot-alloc"}
        assert "Point" in findings[0].message

    def test_construction_in_single_loop_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                class Point:
                    def __init__(self, x, y):
                        self.x = x
                        self.y = y

                def run_cell(row):
                    total = 0
                    for x in row:
                        total += Point(x, x).x
                    return total
                """
            },
            rules=["hot-alloc"],
        )
        assert findings == []

    def test_comprehension_in_nested_loop_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(grid):
                    out = []
                    for row in grid:
                        for x in row:
                            out.append([x + d for d in (1, 2)])
                    return out
                """
            },
            rules=["hot-alloc"],
        )
        assert rules_of(findings) == {"hot-alloc"}

    def test_generator_in_nested_loop_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(grid):
                    total = 0
                    for row in grid:
                        for x in row:
                            total += sum(x + d for d in (1, 2))
                    return total
                """
            },
            rules=["hot-alloc"],
        )
        assert findings == []

    def test_unscanned_callable_is_ignored(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                def run_cell(grid):
                    total = 0
                    for row in grid:
                        for x in row:
                            total += abs(x)
                    return total
                """
            },
            rules=["hot-alloc"],
        )
        assert findings == []


class TestHotReport:
    def test_ranked_by_depth_times_findings(self):
        entries = hot_report(
            contexts_of(
                {
                    "src/repro/experiments/stats.py": """
                    def run_cell(spec):
                        pending = list(spec)
                        for row in spec:
                            while pending:
                                pending.pop(0)
                        return pending

                    def run_cells(specs):
                        return [run_cell(spec) for spec in specs]
                    """
                }
            )
        )
        assert entries[0].qualname == "run_cell"
        assert entries[0].depth == 2
        assert entries[0].findings >= 1
        assert entries[0].score == entries[0].depth * entries[0].findings
        by_name = {entry.qualname: entry for entry in entries}
        assert by_name["run_cells"].findings == 0

    def test_pragma_removes_finding_from_report(self):
        entries = hot_report(
            contexts_of(
                {
                    "src/repro/experiments/stats.py": """
                    def run_cell(spec):
                        pending = list(spec)
                        for row in spec:
                            while pending:
                                pending.pop(0)  # lint: allow(quadratic-listop)
                        return pending
                    """
                }
            )
        )
        (entry,) = entries
        assert entry.findings == 0
        assert entry.score == 0


class TestRepoTipIsClean:
    """The acceptance sweep: the real engine passes all four rules."""

    def test_src_tree_has_no_hot_path_findings(self):
        findings = scan_paths(
            [REPO_ROOT / "src"], ALL_RULES, root=REPO_ROOT
        )
        hot_findings = [
            finding
            for finding in findings
            if finding.rule in set(HOT_RULE_IDS)
        ]
        assert hot_findings == []

    def test_real_entrypoints_are_hot(self):
        contexts, errors = load_contexts(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        assert errors == []
        view = hot_view(contexts)
        hot = {
            (
                view.graph.functions[key].module,
                view.graph.functions[key].qualname,
            )
            for key in view.hot
        }
        assert ("repro.experiments.stats", "run_cell") in hot
        assert ("repro.cloud.provider", "CloudProvider.run") in hot
        assert ("repro.sim.batchpipe", "run_batch") in hot
        assert (
            "repro.sim.trace",
            "TraceGenerator.generate_arrays",
        ) in hot
        assert ("repro.cloud.service", "ServiceEngine.run") in hot
        # The service's one interval loop is hot through ``run``.
        assert (
            "repro.cloud.service",
            "ServiceEngine._run_intervals",
        ) in hot
        assert ("repro.cloud.traffic", "generate_traffic") in hot
        assert (
            "repro.sim.trace",
            "TraceGenerator._generate_arrays_native",
        ) in hot
        # The per-cycle pipeline is a scalar twin: exempt by its name.
        assert (
            "repro.sim.pipeline",
            "MultiSlicePipeline._run_reference",
        ) not in hot

    def test_scalar_references_are_not_hot(self):
        contexts, errors = load_contexts(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        assert errors == []
        view = hot_view(contexts)
        names = {view.graph.functions[key].qualname for key in view.hot}
        assert not any(name.endswith("_reference") for name in names)


class TestBatchTierEntrypoints:
    """The PR's new roots: ``run_batch`` and ``generate_arrays``.

    Trigger/no-trigger twins proving hotness flows from the batch-tier
    entrypoints into their callees, while the scalar reference twins
    stay exempt.
    """

    def test_run_batch_callee_regression_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/batchpipe.py": """
                def run_batch(cells):
                    return _pool(cells)

                def _pool(cells):
                    pending = list(cells)
                    while pending:
                        cell = pending.pop(0)
                    return cell
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}
        assert ".pop(0)" in findings[0].message

    def test_run_batch_reference_twin_is_exempt(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/batchpipe.py": """
                def run_batch(cells):
                    return _pool_reference(cells)

                def _pool_reference(cells):
                    pending = list(cells)
                    while pending:
                        cell = pending.pop(0)
                    return cell
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_generate_arrays_callee_regression_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/trace.py": """
                class TraceGenerator:
                    def generate_arrays(self, count):
                        return _decode(count)

                def _decode(count):
                    out = []
                    for i in range(count):
                        out = out + [i]
                    return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}

    def test_cold_sibling_method_is_ignored(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/trace.py": """
                class TraceGenerator:
                    def generate_arrays(self, count):
                        return list(range(count))

                    def describe(self):
                        out = []
                        for name in self.names:
                            out = out + [name]
                        return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []


class TestServiceEntrypoints:
    """The service tier's roots: ``ServiceEngine.run`` and friends.

    Trigger/no-trigger twins proving hotness flows from the service
    entrypoints into their callees, while a ``*_reference`` scalar twin
    stays exempt.
    """

    def test_service_run_callee_regression_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/service.py": """
                class ServiceEngine:
                    def run(self, until=None):
                        return self._run_intervals(until)

                    def _run_intervals(self, until):
                        pending = list(self._wakes)
                        while pending:
                            wake = pending.pop(0)
                        return wake
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}
        assert ".pop(0)" in findings[0].message

    def test_dense_reference_twin_is_exempt(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/service.py": """
                class ServiceEngine:
                    def run(self, until=None):
                        return self._run_dense_reference(until)

                    def _run_dense_reference(self, until):
                        pending = list(self._residents)
                        while pending:
                            resident = pending.pop(0)
                        return resident
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []

    def test_generate_traffic_callee_regression_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/traffic.py": """
                def generate_traffic(spec):
                    return _bursts(spec)

                def _bursts(spec):
                    out = []
                    for start in range(spec.horizon):
                        out = out + [start]
                    return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert rules_of(findings) == {"quadratic-listop"}

    def test_cold_service_sibling_is_ignored(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/service.py": """
                class ServiceEngine:
                    def run(self, until=None):
                        return until

                    def describe(self):
                        out = []
                        for name in self._names:
                            out = out + [name]
                        return out
                """
            },
            rules=["quadratic-listop"],
        )
        assert findings == []


class TestLintSelfPerformance:
    """The analyzer must never become the slow path itself."""

    def test_full_repo_lint_under_30_seconds(self):
        start = time.monotonic()
        scan_paths([REPO_ROOT / "src"], ALL_RULES, root=REPO_ROOT)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"repro lint took {elapsed:.1f}s"
