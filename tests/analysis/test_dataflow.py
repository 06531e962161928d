"""The interprocedural dataflow rules: cache-key-incomplete,
rng-stream-shared, seed-derivation.

Every rule gets a trigger case and a no-trigger twin, plus injected
regressions on the real sources: strip a key component from the
optable key helper, or hoist the tenant RNG out of its keyed factory —
each must fail the gate, and the unmodified tip must not.
"""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.core import FileContext, check_program, scan_paths
from repro.analysis.dataflow import (
    CacheKeyRule,
    RngStreamRule,
    dataflow_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestCacheKeyIncomplete:
    def test_memo_key_missing_read_param_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}

                def lookup(phase, mode):
                    hit = _TABLE_CACHE.get(phase)
                    if hit is not None:
                        return hit
                    value = (phase, mode * 2)
                    _TABLE_CACHE[phase] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert rules_of(findings) == {"cache-key-incomplete"}
        assert "mode" in findings[0].message
        assert "_TABLE_CACHE" in findings[0].message

    def test_memo_key_covering_all_reads_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}

                def lookup(phase, mode):
                    key = (phase, mode)
                    hit = _TABLE_CACHE.get(key)
                    if hit is not None:
                        return hit
                    value = (phase, mode * 2)
                    _TABLE_CACHE[key] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_key_built_by_helper_is_followed_transitively(
        self, lint_program
    ):
        # The fixpoint maps the key through the helper's return: a
        # helper that folds every parameter keeps the memo clean...
        clean = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}

                def _key(phase, mode):
                    return (phase, mode)

                def lookup(phase, mode):
                    key = _key(phase, mode)
                    hit = _TABLE_CACHE.get(key)
                    if hit is not None:
                        return hit
                    value = (phase, mode * 2)
                    _TABLE_CACHE[key] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert clean == []
        # ...and dropping one from the helper's returned tuple is
        # visible at the memo site, not just at the helper.
        broken = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}

                def _key(phase, mode):
                    return (phase,)

                def lookup(phase, mode):
                    key = _key(phase, mode)
                    hit = _TABLE_CACHE.get(key)
                    if hit is not None:
                        return hit
                    value = (phase, mode * 2)
                    _TABLE_CACHE[key] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert rules_of(broken) == {"cache-key-incomplete"}
        assert "mode" in broken[0].message

    def test_digest_keyed_publish_is_exempt(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/store.py": """
                _VIEW_CACHE = {}

                def attach(digest, values):
                    view = build_view(digest, values)
                    _VIEW_CACHE[digest] = view
                    return wrap(view)

                def build_view(digest, values):
                    return (digest, values)

                def wrap(view):
                    return view
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_memo_reading_mutable_global_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}
                _LIMITS = {}

                def lookup(name):
                    hit = _TABLE_CACHE.get(name)
                    if hit is not None:
                        return hit
                    value = name * _LIMITS.get(name, 1)
                    _TABLE_CACHE[name] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert rules_of(findings) == {"cache-key-incomplete"}
        assert "_LIMITS" in findings[0].message

    def test_mutable_global_folded_into_key_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}
                _LIMITS = {}

                def lookup(name):
                    key = (name, _LIMITS.get(name, 1))
                    hit = _TABLE_CACHE.get(key)
                    if hit is not None:
                        return hit
                    value = name * _LIMITS.get(name, 1)
                    _TABLE_CACHE[key] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_registry_store_with_membership_guard_is_not_a_memo(
        self, lint_program
    ):
        # The fabric-allocation idiom: `key in registry` guard plus a
        # keyed insert is stateful bookkeeping, not memoization.
        findings = lint_program(
            {
                "src/repro/sim/registry.py": """
                _SLOTS = {}

                def claim(slot_id, config):
                    if slot_id in _SLOTS:
                        raise ValueError(slot_id)
                    record = (slot_id, config.width)
                    _SLOTS[slot_id] = record
                    return record
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_lru_cache_reading_mutable_global_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/scales.py": """
                import functools

                _SCALE = []

                @functools.lru_cache(maxsize=None)
                def factor(n):
                    return n * len(_SCALE)
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert rules_of(findings) == {"cache-key-incomplete"}
        assert "_SCALE" in findings[0].message

    def test_lru_cache_over_params_only_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/scales.py": """
                import functools

                SCALES = (1, 2, 4)

                @functools.lru_cache(maxsize=None)
                def factor(n):
                    return n * len(SCALES)
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_hit_counter_update_is_not_an_input(self, lint_program):
        # Read-modify-write counters inside the memo are internal
        # state, not inputs the cached value can go stale against.
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}
                _HITS = 0

                def lookup(phase):
                    global _HITS
                    hit = _TABLE_CACHE.get(phase)
                    if hit is not None:
                        _HITS += 1
                        return hit
                    value = phase * 2
                    _TABLE_CACHE[phase] = value
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []

    def test_pragma_suppresses(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/tables.py": """
                _TABLE_CACHE = {}

                def lookup(phase, mode):
                    hit = _TABLE_CACHE.get(phase)
                    if hit is not None:
                        return hit
                    value = (phase, mode * 2)
                    _TABLE_CACHE[phase] = value  # lint: allow(cache-key-incomplete)
                    return value
                """
            },
            rules=["cache-key-incomplete"],
        )
        assert findings == []


class TestRngStreamShared:
    def test_module_level_stream_read_from_worker_fires(
        self, lint_program
    ):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import random

                _RNG = random.Random(0)

                def run_cell(spec):
                    return spec + _RNG.random()
                """
            },
            rules=["rng-stream-shared"],
        )
        assert rules_of(findings) == {"rng-stream-shared"}
        assert "_RNG" in findings[0].message
        assert "run_cell" in findings[0].message

    def test_per_item_stream_in_worker_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/experiments/stats.py": """
                import random

                def run_cell(spec):
                    rng = random.Random(spec.seed)
                    return spec.base + rng.random()
                """
            },
            rules=["rng-stream-shared"],
        )
        assert findings == []

    def test_stream_hoisted_past_keyed_factory_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/flows.py": """
                import random

                def _stream(seed, item):
                    return random.Random(seed * 7 + item)

                def build(spec):
                    rng = random.Random(spec.seed)
                    out = []
                    for item in range(10):
                        out.append(_draw(rng, item))
                    return out

                def _draw(rng, item):
                    return rng.random() + item
                """
            },
            rules=["rng-stream-shared"],
        )
        assert rules_of(findings) == {"rng-stream-shared"}
        assert "rng" in findings[0].message
        assert "keyed factory" in findings[0].message

    def test_factory_call_per_item_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/flows.py": """
                import random

                def _stream(seed, item):
                    return random.Random(seed * 7 + item)

                def build(spec):
                    out = []
                    for item in range(10):
                        out.append(_draw(_stream(spec.seed, item), item))
                    return out

                def _draw(rng, item):
                    return rng.random() + item
                """
            },
            rules=["rng-stream-shared"],
        )
        assert findings == []

    def test_sequential_stream_without_factory_is_legal(self, lint_program):
        # The harness idiom: one sequential stream threaded through the
        # interval loop is fine in modules that never key streams.
        findings = lint_program(
            {
                "src/repro/cloud/flows.py": """
                import random

                def build(spec):
                    rng = random.Random(spec.seed)
                    out = []
                    for item in range(10):
                        out.append(_draw(rng, item))
                    return out

                def _draw(rng, item):
                    return rng.random() + item
                """
            },
            rules=["rng-stream-shared"],
        )
        assert findings == []

    def test_stream_crossing_fast_twin_boundary_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/gen.py": """
                import random
                from repro import perf

                def gen(seed):
                    if perf.FAST:
                        rng = random.Random(seed)
                        values = [rng.random() for _ in range(4)]
                    else:
                        values = gen_reference(seed)
                    return finalize(rng, values)

                def gen_reference(seed):
                    return [0.0] * 4

                def finalize(rng, values):
                    return values
                """
            },
            rules=["rng-stream-shared"],
        )
        assert rules_of(findings) == {"rng-stream-shared"}
        assert "perf.FAST" in findings[0].message

    def test_stream_scoped_to_its_twin_region_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/sim/gen.py": """
                import random
                from repro import perf

                def gen(seed):
                    if perf.FAST:
                        rng = random.Random(seed)
                        values = [rng.random() for _ in range(4)]
                    else:
                        values = gen_reference(seed)
                    return values

                def gen_reference(seed):
                    return [0.0] * 4
                """
            },
            rules=["rng-stream-shared"],
        )
        assert findings == []


class TestSeedDerivation:
    def test_module_counter_seed_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/streams.py": """
                import random

                _COUNTER = 0

                def next_stream():
                    global _COUNTER
                    _COUNTER += 1
                    return random.Random(_COUNTER)
                """
            },
            rules=["seed-derivation"],
        )
        assert rules_of(findings) == {"seed-derivation"}
        assert "_COUNTER" in findings[0].message

    def test_loop_index_only_seed_fires(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/streams.py": """
                import random

                def streams(n):
                    out = []
                    for i in range(n):
                        out.append(random.Random(i))
                    return out
                """
            },
            rules=["seed-derivation"],
        )
        assert rules_of(findings) == {"seed-derivation"}
        assert "loop" in findings[0].message

    def test_spec_seed_mixed_with_index_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/streams.py": """
                import random

                def streams(spec, n):
                    out = []
                    for i in range(n):
                        out.append(random.Random(spec.seed * 1000003 + i))
                    return out
                """
            },
            rules=["seed-derivation"],
        )
        assert findings == []

    def test_constant_seed_is_clean(self, lint_program):
        findings = lint_program(
            {
                "src/repro/cloud/streams.py": """
                import random

                def baseline_stream():
                    return random.Random(0)
                """
            },
            rules=["seed-derivation"],
        )
        assert findings == []

    def test_rule_is_scoped_to_engine_and_experiment_dirs(
        self, lint_program
    ):
        findings = lint_program(
            {
                "src/repro/analysisutil/streams.py": """
                import random

                def streams(n):
                    return [random.Random(i) for i in range(n)]
                """
            },
            rules=["seed-derivation"],
        )
        assert findings == []


def real_context(relative, transform=None):
    source = (REPO_ROOT / relative).read_text(encoding="utf-8")
    if transform is not None:
        changed = transform(source)
        assert changed != source, "transform matched nothing"
        source = changed
    return FileContext(relative, source)


class TestInjectedRegressions:
    """The acceptance scenarios, replayed on the real engine sources."""

    def test_stripping_cost_model_from_optable_key_fires(self):
        contexts = [
            real_context(
                "src/repro/sim/optables.py",
                lambda src: src.replace(
                    "return (phase, model, space.slice_counts, "
                    "space.l2_sizes_kb, cost_model)",
                    "return (phase, model, space.slice_counts, "
                    "space.l2_sizes_kb)",
                ),
            )
        ]
        findings = check_program(contexts, [CacheKeyRule()])
        assert rules_of(findings) == {"cache-key-incomplete"}
        assert any("cost_model" in f.message for f in findings)

    def test_unmodified_optables_is_clean(self):
        contexts = [real_context("src/repro/sim/optables.py")]
        assert check_program(contexts, [CacheKeyRule()]) == []

    def test_hoisting_tenant_stream_out_of_factory_fires(self):
        contexts = [
            real_context(
                "src/repro/cloud/traffic.py",
                lambda src: src.replace(
                    "_tenant_stream(spec.seed, tenant_id),",
                    "fleet,",
                ),
            )
        ]
        findings = check_program(contexts, [RngStreamRule()])
        assert rules_of(findings) == {"rng-stream-shared"}
        assert any("fleet" in f.message for f in findings)

    def test_unmodified_traffic_is_clean(self):
        contexts = [real_context("src/repro/cloud/traffic.py")]
        assert check_program(contexts, [RngStreamRule()]) == []


class TestDataflowReport:
    def test_report_tables_carry_key_and_seed_evidence(self):
        contexts = [
            FileContext(
                "src/repro/sim/tables.py",
                "_TABLE_CACHE = {}\n"
                "\n"
                "def lookup(phase, mode):\n"
                "    key = (phase, mode)\n"
                "    hit = _TABLE_CACHE.get(key)\n"
                "    if hit is not None:\n"
                "        return hit\n"
                "    value = (phase, mode * 2)\n"
                "    _TABLE_CACHE[key] = value\n"
                "    return value\n",
            ),
            FileContext(
                "src/repro/cloud/streams.py",
                "import random\n"
                "\n"
                "def stream(spec, item):\n"
                "    return random.Random(spec.seed * 7 + item)\n",
            ),
        ]
        report = dataflow_report(contexts)
        (cache,) = report["caches"]
        assert cache["function"] == "lookup"
        assert cache["key"] == ["mode", "phase"]
        assert cache["reads"] == ["phase", "mode"]
        assert cache["missing"] == []
        (stream,) = report["streams"]
        assert stream["keyed"] is True
        assert "spec.seed" in stream["seed"]
        assert json.dumps(report)  # JSON-serializable for the artifact

    def test_repo_tip_report_has_no_missing_inputs(self):
        paths = [REPO_ROOT / "src"]
        from repro.analysis.core import load_contexts

        contexts, errors = load_contexts(paths, root=REPO_ROOT)
        assert errors == []
        report = dataflow_report(contexts)
        assert report["caches"], "expected the real memo sites"
        assert all(row["missing"] == [] for row in report["caches"])
        assert set(report) == {"caches", "streams"}


class TestAcceptance:
    def test_repo_tip_scans_clean_and_fast(self):
        """Tip acceptance + the lint-suite self-performance guard: the
        full-repo scan with every rule stays clean and under 60 s."""
        started = time.monotonic()
        findings = scan_paths(
            [REPO_ROOT / "src"], ALL_RULES, root=REPO_ROOT
        )
        elapsed = time.monotonic() - started
        assert findings == []
        assert elapsed < 60.0, f"full-repo lint took {elapsed:.1f}s"
