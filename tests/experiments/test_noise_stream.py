"""The simulators' measurement noise against ``random.Random.gauss``.

``NoiseStream(seed).draw`` returns ``random.Random(seed)``'s draws of
``gauss(0.0, 1.0)`` in order: from blocks the compiled core fills
(``repro_noise_fill`` over the MT19937 state
``random.Random(seed).getstate()`` hands over) on the fast path, from
``random.Random(seed).gauss`` itself otherwise.  The
draws must match bit for bit across block boundaries, for the
harness's seeds and for the service's 63-bit tenant seeds, and every
noisy value the simulators form from them must equal the one they
formed from ``gauss(0.0, std)``.
"""

import copy
import math
import pickle
import random

import pytest

from repro import native
from repro.cloud.service import _noise_stream
from repro.experiments.harness import NoiseStream
from tests.runtime.test_envelope import ENGINES, engine

#: Four whole blocks and part of a fifth: three block boundaries and more.
DRAWS = 4 * native.NOISE_BLOCK + 7

TENANTS = ((0, 0), (1, 5), (2, 17), (3, 1023))


def tenant_key(seed, tenant):
    """The 63-bit seed of a service tenant's stream."""
    return (seed * 2_654_435_761 + 97_531 * (tenant + 1) + 0xC0FFEE) & (2**63 - 1)


HARNESS_SEEDS = (0, 1, 3, 7, 2**32 - 1, 2**32)
TENANT_SEEDS = tuple(tenant_key(seed, tenant) for seed, tenant in TENANTS)


def reference(seed, count):
    gauss = random.Random(seed).gauss
    return [gauss(0.0, 1.0) for _ in range(count)]


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("seed", HARNESS_SEEDS + TENANT_SEEDS)
def test_draws_are_gauss_draws(kind, seed):
    with engine(kind):
        draw = NoiseStream(seed).draw
        drawn = [draw() for _ in range(DRAWS)]
    assert [repr(z) for z in drawn] == [repr(z) for z in reference(seed, DRAWS)]


@pytest.mark.parametrize("kind", ENGINES)
def test_service_streams_are_seeded_as_before(kind):
    # The service keys each tenant's stream by a 63-bit seed; these
    # need one and two 32-bit words.
    assert min(TENANT_SEEDS) < 2**32 <= max(TENANT_SEEDS)
    for seed, tenant in TENANTS:
        key = tenant_key(seed, tenant)
        with engine(kind):
            draw = _noise_stream(seed, tenant).draw
            drawn = [draw() for _ in range(DRAWS)]
        assert drawn == reference(key, DRAWS)


@pytest.mark.parametrize(
    "seed", HARNESS_SEEDS + TENANT_SEEDS + (-5, 2**64, 2**70 + 3, True)
)
def test_compiled_state_is_the_python_state(seed):
    # Every seed, negative, wide or an int subclass included, starts
    # from random.Random's own state, and the draws match.
    with engine("core"):
        stream = NoiseStream(seed)
        assert stream.getstate() == random.Random(seed).getstate()[1]
        drawn = [stream.draw() for _ in range(DRAWS)]
    assert drawn == reference(seed, DRAWS)


@pytest.mark.parametrize("kind", ENGINES)
def test_noisy_values_equal_the_gauss_forms(kind):
    # The simulators form max(v * (1.0 + draw() * std), 0.0) where they
    # formed max(v * (1.0 + gauss(0.0, std)), 0.0).
    values = (0.0, 1e-300, 0.3, 1.0, 2.5, 1e6, math.inf)
    for std in (0.02, 0.5, 3.0, 1e-9):
        gauss = random.Random(11).gauss
        with engine(kind):
            draw = NoiseStream(11).draw
            for _ in range(3 * native.NOISE_BLOCK // len(values) + 1):
                for v in values:
                    noisy = max(v * (1.0 + draw() * std), 0.0)
                    assert repr(noisy) == repr(max(v * (1.0 + gauss(0.0, std)), 0.0))


def test_compiled_stream_refuses_copies():
    # Its blocks are filled through raw addresses, which a copy or an
    # unpickled object would share with (and outlive) the original.
    with engine("core"):
        stream = NoiseStream(5)
        stream.draw()
        for clone in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="cannot be copied"):
                clone(stream._source)
