"""The compiled envelope chain and its twin against ``compute_envelope``.

``_build_envelope`` builds the lower convex envelope of Eqn. 5 from a
point set's ``(speedup, cost)`` keys: one call to the compiled chain
(``runtime/_envelope.c``) when the core is loaded, the sorted-key Python
twin ``_build_envelope_reference`` otherwise.  Every case here runs both
ways and must give the hull and the first-wins owners that
``compute_envelope`` builds from the equivalent ``ConfigPoint`` list.
"""

import copy
import math
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native, perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import VCoreConfig
from repro.runtime import optimizer
from repro.runtime.optimizer import (
    IDLE_POINT,
    ConfigPoint,
    LearningOptimizer,
    _build_envelope,
    compute_envelope,
)

ENGINES = ("core", "twin")
IDLES = (IDLE_POINT, ConfigPoint(config=None, speedup=0.0, cost_rate=0.004))


@contextmanager
def engine(kind):
    """The compiled core as loaded, or disabled so the twin runs."""
    with perf.fast_paths(True):
        if kind == "core":
            if native.batch_core() is None:
                pytest.skip("compiled core unavailable on this host")
            yield
            return
        previous = native.native_enabled()
        native.set_native_enabled(False)
        try:
            yield
        finally:
            native.set_native_enabled(previous)


def config_at(position):
    return VCoreConfig(1 + position % 8, 64 << (position // 8 % 7))


def points_of(pairs):
    return [
        ConfigPoint(config=config_at(i), speedup=s, cost_rate=c)
        for i, (s, c) in enumerate(pairs)
    ]


def build(pairs, idle):
    """``_build_envelope`` on the pairs, owners built the way the
    views build them: the point at the owning position."""
    points = points_of(pairs)
    keys = np.array([[s for s, _ in pairs], [c for _, c in pairs]])
    scratch = np.zeros((2, len(pairs) + 1), dtype=np.int64)
    buffers = native.EnvelopeBuffers(keys.reshape(2, len(pairs)), scratch)
    return _build_envelope(buffers, points.__getitem__, idle)


def assert_matches_compute_envelope(pairs, idle):
    hull, best_at = build(pairs, idle)
    fresh_hull, fresh_best = compute_envelope(points_of(pairs), idle)
    assert list(hull) == fresh_hull
    assert set(best_at) == set(hull)
    for vertex in hull:
        assert best_at[vertex] == fresh_best[vertex]
        assert type(vertex[0]) is float and type(vertex[1]) is float
    return hull, best_at


KEY = st.floats(0.0, 8.0)
GRID = st.integers(0, 6).map(float)
MAGNITUDE = st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])


@st.composite
def point_sets(draw):
    """Keys with the ties and degeneracies the chain must resolve as
    compute_envelope does."""
    kind = draw(
        st.sampled_from(["float", "grid", "scaled", "speed-ties", "equal"])
    )
    size = draw(st.integers(1, 12))
    if kind == "float":
        pairs = draw(st.lists(st.tuples(KEY, KEY), min_size=size, max_size=size))
    elif kind == "grid":
        # Integer grids make exactly collinear triples (cross == 0).
        pairs = draw(st.lists(st.tuples(GRID, GRID), min_size=size, max_size=size))
    elif kind == "scaled":
        scale = draw(MAGNITUDE)
        pairs = [
            (s * scale, c * draw(MAGNITUDE))
            for s, c in draw(
                st.lists(st.tuples(GRID, GRID), min_size=size, max_size=size)
            )
        ]
    elif kind == "speed-ties":
        speed = draw(KEY)
        costs = draw(st.lists(KEY, min_size=size, max_size=size))
        pairs = [(speed, c) for c in costs]
    else:
        pairs = [draw(st.tuples(KEY, KEY))] * size
    # Repeat some keys at later positions: the first must own them.
    for _ in range(draw(st.integers(0, 3))):
        pairs.append(draw(st.sampled_from(pairs)))
    # A point carrying an idle key.
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pairs)))
        pairs.insert(at, draw(st.sampled_from([(0.0, 0.0), (0.0, 0.004)])))
    return pairs


class TestBuildEnvelope:
    @pytest.mark.parametrize("kind", ENGINES)
    @given(pairs=point_sets(), idle=st.sampled_from(IDLES))
    @example(pairs=[(1.0, 1.0)], idle=IDLE_POINT)
    @example(pairs=[(2.0, 3.0)] * 4, idle=IDLE_POINT)
    @example(pairs=[(0.0, 0.0), (1.0, 1.0)], idle=IDLE_POINT)
    @example(pairs=[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0)], idle=IDLE_POINT)
    @example(pairs=[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 4.0)], idle=IDLE_POINT)
    @example(pairs=[(1e-9, 1e6), (2e-9, 1e-9), (1e6, 1e6)], idle=IDLE_POINT)
    # Signed zeros compare equal, so the first of them owns the key.
    @example(pairs=[(-0.0, 0.0), (0.0, 0.0), (1.0, 2.0)], idle=IDLE_POINT)
    # inf - inf makes a NaN cross product, which keeps the vertex.
    @example(pairs=[(1.0, 1.0), (math.inf, 2.0), (math.inf, 3.0)], idle=IDLE_POINT)
    @settings(max_examples=150, deadline=None)
    def test_matches_compute_envelope(self, kind, pairs, idle):
        with engine(kind):
            assert_matches_compute_envelope(pairs, idle)

    @pytest.mark.parametrize("kind", ENGINES)
    def test_first_position_owns_a_repeated_key(self, kind):
        pairs = [(1.0, 2.0), (3.0, 1.0), (1.0, 2.0), (3.0, 1.0)]
        with engine(kind):
            _, best_at = assert_matches_compute_envelope(pairs, IDLE_POINT)
        assert best_at[(3.0, 1.0)].config == config_at(1)

    @pytest.mark.parametrize("kind", ENGINES)
    def test_a_point_carrying_the_idle_key_owns_it(self, kind):
        pairs = [(2.0, 1.0), (0.0, 0.0), (0.0, 0.0)]
        with engine(kind):
            hull, best_at = assert_matches_compute_envelope(pairs, IDLE_POINT)
        assert hull[0] == (0.0, 0.0)
        assert best_at[(0.0, 0.0)].config == config_at(1)

    @pytest.mark.parametrize("kind", ENGINES)
    def test_collinear_vertices_are_dropped(self, kind):
        pairs = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 5.0)]
        with engine(kind):
            hull, _ = assert_matches_compute_envelope(pairs, IDLE_POINT)
        assert hull == ((0.0, 0.0), (3.0, 3.0), (4.0, 5.0))

    @pytest.mark.parametrize("kind", ENGINES)
    @pytest.mark.parametrize("far", [0.2, 0.3])
    def test_cross_products_round_as_cpython_does(self, kind, far):
        # Against idle at the origin the cross product is 0.1 * far -
        # 0.1 * far: exactly 0 rounded operation by operation, so the
        # middle point pops.  A fused multiply-add would keep the exact
        # product's rounding error (positive for 0.3, negative for 0.2,
        # so one of the two cases shows whichever product it fuses).
        pairs = [(0.1, 0.1), (far, far)]
        with engine(kind):
            hull, _ = assert_matches_compute_envelope(pairs, IDLE_POINT)
        assert hull == ((0.0, 0.0), (far, far))


class TestCompiledEntry:
    @pytest.fixture
    def core(self):
        with engine("core"):
            yield native.batch_core()

    def test_nan_key_returns_a_status(self, core):
        keys = np.array([[1.0, math.nan], [1.0, 3.0]])
        buffers = native.EnvelopeBuffers(keys, np.zeros((2, 3), np.int64))
        assert core.lower_envelope(buffers, 0.0, 0.0) == -1
        keys[0, 1] = 2.0
        assert core.lower_envelope(buffers, math.nan, 0.0) == -1
        assert core.lower_envelope(buffers, 0.0, 0.0) == 3
        assert buffers.scratch[1].tolist() == [-1, 0, 1]

    def test_copies_address_their_own_arrays(self, core):
        keys = np.array([[1.0, 2.0], [1.0, 3.0]])
        buffers = native.EnvelopeBuffers(keys, np.zeros((2, 3), np.int64))
        for other in (copy.deepcopy(buffers), pickle.loads(pickle.dumps(buffers))):
            # (1, 5) lies above the chord from idle to (2, 3).
            other.keys[1, 0] = 5.0
            assert core.lower_envelope(other, 0.0, 0.0) == 2
            assert other.scratch[1, :2].tolist() == [-1, 1]
        assert core.lower_envelope(buffers, 0.0, 0.0) == 3

    @pytest.mark.parametrize(
        "keys_shape,scratch_shape",
        [((2, 4), (2, 4)), ((2, 4), (2, 6)), ((4,), (2, 3)), ((3, 4), (2, 5))],
    )
    def test_short_or_misshapen_buffer_raises_before_the_call(
        self, core, monkeypatch, keys_shape, scratch_shape
    ):
        calls = []
        monkeypatch.setattr(core, "_envelope", lambda *args: calls.append(args))
        keys = np.ones(keys_shape)
        scratch = np.zeros(scratch_shape, dtype=np.int64)
        with pytest.raises(ValueError, match="scratch|keys"):
            core.lower_envelope(native.EnvelopeBuffers(keys, scratch), 0.0, 0.0)
        assert calls == []

    @pytest.mark.parametrize(
        "keys,scratch",
        [
            (np.ones((2, 3), np.float32), np.zeros((2, 4), np.int64)),
            (np.ones((2, 3)), np.zeros((2, 4), np.int32)),
            (np.ones((3, 2)).T, np.zeros((2, 4), np.int64)),
        ],
        ids=["float32-keys", "int32-scratch", "strided-keys"],
    )
    def test_wrong_dtype_or_layout_raises(self, keys, scratch):
        with pytest.raises(ValueError, match="need C-contiguous"):
            native.EnvelopeBuffers(keys, scratch)


CONFIGS = [
    VCoreConfig(1, 64),
    VCoreConfig(1, 512),
    VCoreConfig(2, 128),
    VCoreConfig(4, 512),
    VCoreConfig(4, 4096),
    VCoreConfig(8, 1024),
    VCoreConfig(8, 4096),
]
COST_RATES = [c.cost_rate(DEFAULT_COST_MODEL) for c in CONFIGS]


class _Learner:
    """A learner stand-in whose estimates the test sets directly."""

    def __init__(self, estimates):
        self.estimates_version = 0
        self._estimates = dict(zip(CONFIGS, estimates))
        self._changed = []

    def set(self, position, value):
        self._estimates[CONFIGS[position]] = value
        self.estimates_version += 1
        self._changed.append(CONFIGS[position])

    def qos_estimate(self, config):
        return self._estimates[config]

    def changes_since(self, version):
        return self._changed[version:]


def view_of(estimates):
    learner = _Learner(estimates)
    optimizer_ = LearningOptimizer(configs=CONFIGS, cost_rates=COST_RATES)
    return learner, optimizer_.learned_points(learner)


ESTIMATES = [0.5, 1.0, 1.2, 2.0, 1.5, 3.0, 2.5]


class TestLearnedPointsChain:
    def test_one_compiled_call_per_rebuild(self, monkeypatch):
        calls = []
        original = native.NativeBatchCore.lower_envelope

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(native.NativeBatchCore, "lower_envelope", counting)
        with engine("core"):
            learner, view = view_of(ESTIMATES)
            first = view.envelope(IDLE_POINT)
            assert view.envelope(IDLE_POINT) is first
            assert len(calls) == 1
            learner.set(3, 2.2)
            second = view.envelope(IDLE_POINT)
            assert second is not first
            assert view.envelope(IDLE_POINT) is second
            assert len(calls) == 2
            # Another idle point is another cache entry and one call.
            view.envelope(IDLES[1])
            view.envelope(IDLES[1])
            assert len(calls) == 3

    @pytest.mark.parametrize("kind", ENGINES)
    def test_nan_estimate_takes_the_twin(self, kind, monkeypatch):
        calls = []
        original = optimizer._build_envelope_reference

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(optimizer, "_build_envelope_reference", counting)
        estimates = [0.5, math.nan, 1.2, 2.0, 1.0, 3.0, 2.5]
        with engine(kind):
            _, view = view_of(estimates)
            hull, best_at = view.envelope(IDLE_POINT)
        assert len(calls) == 1
        # The hull the sorted-key index gave before the compiled chain:
        # NaN has no rank, so it stays where the sort left it.
        assert repr(hull) == (
            "((0.5, 0.013), (nan, 0.0354), (0.0, 0.0), (1.2, 0.026), "
            "(2.0, 0.0648), (3.0, 0.1296))"
        )
        owners = [best_at[vertex].config for vertex in hull]
        assert owners == [CONFIGS[0], CONFIGS[1], None] + [
            CONFIGS[2],
            CONFIGS[3],
            CONFIGS[5],
        ]

    @pytest.mark.parametrize("kind", ENGINES)
    def test_points_carry_python_floats(self, kind):
        # An np.float64 inside a ConfigPoint changes its repr.
        with engine(kind):
            learner, view = view_of(ESTIMATES)
            _, best_at = view.envelope(IDLE_POINT)
            learner.set(2, 1.7)
            _, patched = view.envelope(IDLE_POINT)
            clamp = view.saturation_clamp(10.0)
            built = [*best_at.values(), *patched.values(), clamp, *view.points()]
        for point in built:
            assert type(point.speedup) is float
            assert type(point.cost_rate) is float
        assert repr(clamp) == repr(
            ConfigPoint(config=CONFIGS[5], speedup=3.0, cost_rate=COST_RATES[5])
        )
