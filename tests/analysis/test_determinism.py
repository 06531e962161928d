"""Trigger / no-trigger fixtures for every determinism rule."""


class TestUnseededRandom:
    def test_module_level_random_triggers(self, lint_source):
        findings = lint_source(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_module_level_randint_triggers(self, lint_source):
        findings = lint_source(
            """
            import random

            def pick():
                return random.randint(0, 3)
            """
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_numpy_global_generator_triggers(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def noise():
                return np.random.normal()
            """
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_from_import_triggers(self, lint_source):
        findings = lint_source(
            """
            from random import gauss

            def noise():
                return gauss(0.0, 1.0)
            """
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_seeded_generator_is_clean(self, lint_source):
        findings = lint_source(
            """
            import random

            def make_rng(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert findings == []

    def test_numpy_default_rng_is_clean(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """
        )
        assert findings == []

    def test_mt19937_bit_generator_is_clean(self, lint_source):
        """A raw MT19937 bit generator seeded from an explicit CPython
        RNG state is a seeded factory, not the legacy global
        generator."""
        findings = lint_source(
            """
            import numpy as np

            def make_stream(state):
                bitgen = np.random.MT19937()
                bitgen.state = {"bit_generator": "MT19937", "state": state}
                return bitgen
            """
        )
        assert findings == []

    def test_numpy_global_random_still_triggers(self, lint_source):
        findings = lint_source(
            """
            import numpy as np

            def noise():
                return np.random.random()
            """
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_out_of_scope_directory_is_clean(self, lint_source):
        findings = lint_source(
            """
            import random

            def jitter():
                return random.random()
            """,
            path="src/repro/experiments/stats.py",
        )
        assert findings == []


class TestWallClock:
    def test_time_time_triggers(self, lint_source):
        findings = lint_source(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_datetime_now_triggers(self, lint_source):
        findings = lint_source(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_from_import_perf_counter_triggers(self, lint_source):
        findings = lint_source(
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_simulated_time_is_clean(self, lint_source):
        findings = lint_source(
            """
            def advance(cycle, interval_cycles):
                return cycle + interval_cycles
            """
        )
        assert findings == []

    def test_benchmark_timing_out_of_scope_is_clean(self, lint_source):
        findings = lint_source(
            """
            import time

            def wall():
                return time.perf_counter()
            """,
            path="src/repro/experiments/stats.py",
        )
        assert findings == []


class TestEnvRead:
    def test_environ_access_triggers(self, lint_source):
        findings = lint_source(
            """
            import os

            def debug_enabled():
                return os.environ.get("DEBUG") == "1"
            """
        )
        assert [f.rule for f in findings] == ["env-read"]

    def test_getenv_triggers(self, lint_source):
        findings = lint_source(
            """
            import os

            def debug_enabled():
                return os.getenv("DEBUG")
            """
        )
        assert [f.rule for f in findings] == ["env-read"]

    def test_explicit_config_is_clean(self, lint_source):
        findings = lint_source(
            """
            def debug_enabled(config):
                return config.debug
            """
        )
        assert findings == []


class TestCloudScope:
    """The provider loop (``src/repro/cloud/``) is engine territory too."""

    def test_unseeded_random_triggers_in_cloud(self, lint_source):
        findings = lint_source(
            """
            import random

            def jitter():
                return random.random()
            """,
            path="src/repro/cloud/provider.py",
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_wall_clock_triggers_in_cloud(self, lint_source):
        findings = lint_source(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/cloud/admission.py",
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_env_read_triggers_in_cloud(self, lint_source):
        findings = lint_source(
            """
            import os

            def debug_enabled():
                return os.getenv("DEBUG")
            """,
            path="src/repro/cloud/tenant.py",
        )
        assert [f.rule for f in findings] == ["env-read"]

    def test_seeded_provider_rng_is_clean(self, lint_source):
        findings = lint_source(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            path="src/repro/cloud/provider.py",
        )
        assert findings == []


class TestSetIteration:
    def test_for_over_set_call_triggers(self, lint_source):
        findings = lint_source(
            """
            def emit(configs):
                for config in set(configs):
                    print(config)
            """
        )
        assert [f.rule for f in findings] == ["set-iteration"]

    def test_list_of_set_triggers(self, lint_source):
        findings = lint_source(
            """
            def emit(configs):
                return list(set(configs))
            """
        )
        assert [f.rule for f in findings] == ["set-iteration"]

    def test_comprehension_over_set_literal_triggers(self, lint_source):
        findings = lint_source(
            """
            def emit(a, b):
                return [x for x in {a, b}]
            """
        )
        assert [f.rule for f in findings] == ["set-iteration"]

    def test_sorted_set_is_clean(self, lint_source):
        findings = lint_source(
            """
            def emit(configs):
                return sorted(set(configs))
            """
        )
        assert findings == []

    def test_membership_test_is_clean(self, lint_source):
        findings = lint_source(
            """
            def contains(base, configs):
                return base in set(configs)
            """
        )
        assert findings == []


class TestIdKeyed:
    def test_id_subscript_triggers(self, lint_source):
        findings = lint_source(
            """
            def remember(cache, obj, value):
                cache[id(obj)] = value
            """
        )
        assert [f.rule for f in findings] == ["id-keyed"]

    def test_id_dict_literal_key_triggers(self, lint_source):
        findings = lint_source(
            """
            def remember(obj, value):
                return {id(obj): value}
            """
        )
        assert [f.rule for f in findings] == ["id-keyed"]

    def test_id_set_add_triggers(self, lint_source):
        findings = lint_source(
            """
            def remember(seen, obj):
                seen.add(id(obj))
            """
        )
        assert [f.rule for f in findings] == ["id-keyed"]

    def test_id_membership_triggers(self, lint_source):
        findings = lint_source(
            """
            def recorded(seen, obj):
                return id(obj) in seen
            """
        )
        assert [f.rule for f in findings] == ["id-keyed"]

    def test_identity_comparison_is_clean(self, lint_source):
        findings = lint_source(
            """
            def same(a, b):
                return id(a) == id(b)
            """
        )
        assert findings == []

    def test_stable_key_is_clean(self, lint_source):
        findings = lint_source(
            """
            def remember(cache, config, value):
                cache[config.name] = value
            """
        )
        assert findings == []
