"""Unit tests for the AST call graph + effect summaries."""

import textwrap

from repro.analysis.callgraph import (
    ProgramGraph,
    analyze_module,
    module_dotted,
    shared_graph,
)
from repro.analysis.core import FileContext


def module(path, source):
    return FileContext(path, textwrap.dedent(source))


class TestModuleDotted:
    def test_src_prefix_dropped(self):
        assert module_dotted("src/repro/sim/optables.py") == "repro.sim.optables"

    def test_init_names_the_package(self):
        assert module_dotted("src/repro/analysis/__init__.py") == "repro.analysis"

    def test_plain_tree(self):
        assert module_dotted("pkg/sim/tables.py") == "pkg.sim.tables"


class TestGlobalClassification:
    def test_containers_locks_caches_and_rebounds(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                import threading
                from collections import OrderedDict

                _LOCK = threading.Lock()
                _TABLE_CACHE = OrderedDict()
                _LOG = []
                _HITS = 0
                _LIMIT = 4096

                def bump():
                    global _HITS
                    _HITS += 1
                """,
            )
        )
        assert info.globals["_LOCK"].is_lock
        assert not info.globals["_LOCK"].shared_mutable
        assert info.globals["_TABLE_CACHE"].is_cache
        assert info.globals["_TABLE_CACHE"].mutable
        assert info.globals["_LOG"].mutable
        assert info.globals["_HITS"].rebound
        assert info.globals["_HITS"].shared_mutable
        assert not info.globals["_LIMIT"].shared_mutable
        assert info.lock_names == {"_LOCK"}

    def test_frozen_dataclasses_recorded(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Point:
                    x: float

                @dataclass
                class Mutable:
                    x: float
                """,
            )
        )
        assert info.frozen_classes == {"Point"}
        assert info.classes == {"Point", "Mutable"}


class TestEffects:
    def test_write_synchronization_detected(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                import threading

                _LOCK = threading.Lock()
                _TABLE = {}

                def locked(key, value):
                    with _LOCK:
                        _TABLE[key] = value

                def unlocked(key, value):
                    _TABLE[key] = value
                """,
            )
        )
        locked = info.functions["src/repro/sim/demo.py::locked"]
        unlocked = info.functions["src/repro/sim/demo.py::unlocked"]
        assert all(e.synchronized for e in locked.effects)
        assert any(
            e.write and not e.synchronized for e in unlocked.effects
        )

    def test_local_shadowing_is_not_a_global_effect(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                _TABLE = {}

                def scratch():
                    _TABLE = {}
                    _TABLE["k"] = 1
                    return _TABLE
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::scratch"]
        assert summary.effects == []

    def test_mutator_method_on_global_is_a_write(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                _LOG = []

                def note(x):
                    _LOG.append(x)
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::note"]
        # The mutator call is a write; the name load inside it is also
        # recorded as a read (rules dedup per site as needed).
        assert ("_LOG", True) in [
            (e.name, e.write) for e in summary.effects
        ]

    def test_fast_branch_detected(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return x + 1
                    return x + 1

                def plain(x):
                    return x
                """,
            )
        )
        assert info.functions[
            "src/repro/sim/demo.py::kernel"
        ].has_fast_branch
        assert not info.functions[
            "src/repro/sim/demo.py::plain"
        ].has_fast_branch


class TestStoreIdioms:
    """Shared-state conventions the call graph understands: sealing an
    ndarray in place with ``setflags(write=False)`` and ``*_locked``
    caller-holds-the-lock helpers."""

    def test_setflags_write_false_records_a_seal(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                _CACHE = {}

                def publish(key, values):
                    view = values.copy()
                    view.setflags(write=False)
                    _CACHE[key] = view
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::publish"]
        assert "view" in summary.sealed_names

    def test_setflags_write_true_is_not_a_seal(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                _CACHE = {}

                def thaw(key, values):
                    values.setflags(write=True)
                    _CACHE[key] = values
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::thaw"]
        assert summary.sealed_names == {}

    def test_locked_suffix_assumes_lock_and_records_call_sites(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                import threading

                _STORE_LOCK = threading.Lock()
                _SEGMENTS = {}

                def _register_locked(name, seg):
                    _SEGMENTS[name] = seg

                def good(name, seg):
                    with _STORE_LOCK:
                        _register_locked(name, seg)

                def bad(name, seg):
                    _register_locked(name, seg)
                """,
            )
        )
        helper = info.functions["src/repro/sim/demo.py::_register_locked"]
        assert all(effect.synchronized for effect in helper.effects)
        good = info.functions["src/repro/sim/demo.py::good"]
        bad = info.functions["src/repro/sim/demo.py::bad"]
        (good_call,) = good.locked_calls
        (bad_call,) = bad.locked_calls
        assert good_call.name == "_register_locked"
        assert good_call.synchronized
        assert not bad_call.synchronized


class TestGraph:
    def test_cross_module_reachability(self):
        graph = ProgramGraph.build(
            [
                module(
                    "src/repro/experiments/stats.py",
                    """
                    from repro.sim.tables import lookup

                    def run_cell(spec):
                        return lookup(spec)
                    """,
                ),
                module(
                    "src/repro/sim/tables.py",
                    """
                    def lookup(spec):
                        return helper(spec)

                    def helper(spec):
                        return spec

                    def unrelated(spec):
                        return spec
                    """,
                ),
            ]
        )
        origin = graph.reachable_from(
            ["src/repro/experiments/stats.py::run_cell"]
        )
        reached = set(origin)
        assert "src/repro/sim/tables.py::lookup" in reached
        assert "src/repro/sim/tables.py::helper" in reached
        assert "src/repro/sim/tables.py::unrelated" not in reached
        assert all(
            root == "src/repro/experiments/stats.py::run_cell"
            for root in origin.values()
        )

    def test_self_method_calls_resolve(self):
        graph = ProgramGraph.build(
            [
                module(
                    "src/repro/sim/demo.py",
                    """
                    class Engine:
                        def run(self):
                            return self.step()

                        def step(self):
                            return 1
                    """,
                )
            ]
        )
        origin = graph.reachable_from(["src/repro/sim/demo.py::Engine.run"])
        assert "src/repro/sim/demo.py::Engine.step" in origin

    def test_cache_accessor_fixpoint(self):
        graph = ProgramGraph.build(
            [
                module(
                    "src/repro/sim/tables.py",
                    """
                    _CACHE = {}

                    def lookup(key):
                        table = _CACHE.get(key)
                        if table is not None:
                            return table
                        return None

                    def true_points(key):
                        return lookup(key)

                    def fresh(key):
                        return [key]
                    """,
                )
            ]
        )
        accessors = graph.cache_accessors()
        assert "src/repro/sim/tables.py::lookup" in accessors
        assert "src/repro/sim/tables.py::true_points" in accessors
        assert "src/repro/sim/tables.py::fresh" not in accessors

    def test_real_optables_accessors_found(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        contexts = []
        for relative in (
            "src/repro/sim/optables.py",
            "src/repro/experiments/harness.py",
        ):
            contexts.append(
                FileContext(
                    relative, (repo / relative).read_text(encoding="utf-8")
                )
            )
        graph = ProgramGraph.build(contexts)
        accessors = graph.cache_accessors()
        assert (
            "src/repro/sim/optables.py::operating_point_table" in accessors
        )


class TestLoopDepthAndScalarRegions:
    def test_loop_depth_counts_nesting_and_comprehensions(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                def flat(xs):
                    return sum(xs)

                def nested(grid):
                    total = 0
                    for row in grid:
                        for x in row:
                            total += x
                    return total

                def comp_in_loop(grid):
                    out = []
                    for row in grid:
                        out.append([x for x in row])
                    return out
                """,
            )
        )
        depths = {
            summary.qualname: summary.loop_depth
            for summary in info.functions.values()
        }
        assert depths == {"flat": 0, "nested": 2, "comp_in_loop": 2}

    def test_loop_depth_ignores_nested_function_frames(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                def outer(xs):
                    def inner(ys):
                        for y in ys:
                            pass
                    return inner(xs)
                """,
            )
        )
        assert info.functions["src/repro/sim/demo.py::outer"].loop_depth == 0
        assert (
            info.functions["src/repro/sim/demo.py::outer.inner"].loop_depth
            == 1
        )

    def test_scalar_only_calls_recorded_for_else_branch(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return fast(x)
                    else:
                        return slow(x)

                def fast(x):
                    return x

                def slow(x):
                    return x
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::kernel"]
        assert "repro.sim.demo::slow" in summary.scalar_only_calls
        assert "repro.sim.demo::fast" not in summary.scalar_only_calls

    def test_scalar_only_calls_recorded_for_fallthrough(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return fast(x)
                    return slow(x)

                def fast(x):
                    return x

                def slow(x):
                    return x
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::kernel"]
        assert "repro.sim.demo::slow" in summary.scalar_only_calls

    def test_call_in_both_regions_is_not_scalar_only(self):
        info = analyze_module(
            module(
                "src/repro/sim/demo.py",
                """
                from repro import perf

                def kernel(x):
                    if perf.FAST:
                        return shared(x) + 1
                    return shared(x)

                def shared(x):
                    return x
                """,
            )
        )
        summary = info.functions["src/repro/sim/demo.py::kernel"]
        assert "repro.sim.demo::shared" not in summary.scalar_only_calls

    def test_reachability_can_skip_scalar_edges(self):
        graph = ProgramGraph.build(
            [
                module(
                    "src/repro/sim/demo.py",
                    """
                    from repro import perf

                    def kernel(x):
                        if perf.FAST:
                            return fast(x)
                        return slow(x)

                    def fast(x):
                        return x

                    def slow(x):
                        return x
                    """,
                )
            ]
        )
        root = "src/repro/sim/demo.py::kernel"
        full = set(graph.reachable_from([root]))
        hot = set(graph.reachable_from([root], follow_scalar_calls=False))
        assert "src/repro/sim/demo.py::slow" in full
        assert "src/repro/sim/demo.py::slow" not in hot
        assert "src/repro/sim/demo.py::fast" in hot


class TestSharedGraphMemo:
    def test_same_context_list_builds_once(self):
        contexts = [
            module(
                "src/repro/sim/demo.py",
                """
                def f(x):
                    return x
                """,
            )
        ]
        first = shared_graph(contexts)
        second = shared_graph(contexts)
        assert first is second

    def test_different_context_list_rebuilds(self):
        source = """
        def f(x):
            return x
        """
        a = [module("src/repro/sim/demo.py", source)]
        b = [module("src/repro/sim/demo.py", source)]
        assert shared_graph(a) is not shared_graph(b)

    def test_class_names_span_modules(self):
        graph = ProgramGraph.build(
            [
                module(
                    "src/repro/sim/demo.py",
                    """
                    class Alpha:
                        pass
                    """,
                ),
                module(
                    "src/repro/arch/other.py",
                    """
                    class Beta:
                        pass
                    """,
                ),
            ]
        )
        assert graph.class_names() == {"Alpha", "Beta"}
