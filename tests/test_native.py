"""How the compiled core's build fails: a race and a full disk.

``repro.native`` compiles its C sources on first use into a temp file
and publishes it with an atomic rename.  Two processes that build into
one empty directory at once must both load a working core and leave one
artifact; a full disk under the rename must leave no temp file, name the
cause, and send every caller to the scalar twins.
"""

import errno
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import native, perf
from repro.arch.cost import DEFAULT_COST_MODEL
from repro.arch.vcore import VCoreConfig
from repro.runtime.optimizer import (
    LearningOptimizer,
    compute_envelope,
    lower_envelope_cost,
)
from repro.runtime.qlearning import SpeedupLearner

pytestmark = pytest.mark.skipif(
    native._find_compiler() is None, reason="no C compiler on PATH"
)

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = [VCoreConfig(1, 64), VCoreConfig(2, 128), VCoreConfig(4, 512)]
CONFIGS.append(VCoreConfig(8, 1024))
RATES = [config.cost_rate(DEFAULT_COST_MODEL) for config in CONFIGS]

# Loads the core from REPRO_NATIVE_DIR and checks its envelope on a
# fixed point set against compute_envelope.
CHILD = textwrap.dedent(
    """
    import numpy as np
    from repro import native
    from repro.runtime.optimizer import (
        ConfigPoint, IDLE_POINT, _build_envelope, compute_envelope,
    )

    core = native.batch_core()
    assert core is not None, native.batch_core_error()
    pairs = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (3.0, 2.5), (0.5, 3.0)]
    points = [ConfigPoint(None, s, c) for s, c in pairs]
    buffers = native.EnvelopeBuffers(
        np.array(pairs).T.copy(), np.zeros((2, len(pairs) + 1), np.int64)
    )
    hull, best_at = _build_envelope(buffers, points.__getitem__, IDLE_POINT)
    fresh_hull, fresh_best = compute_envelope(points, IDLE_POINT)
    assert list(hull) == fresh_hull, (hull, fresh_hull)
    assert all(best_at[v] is fresh_best[v] for v in hull)
    assert core.lower_envelope(buffers, 0.0, 0.0) == len(hull)
    print("ok", core.path.name)
    """
)


def test_two_processes_build_one_directory_at_once(tmp_path):
    env = dict(os.environ)
    env.update(
        REPRO_NATIVE="1",
        REPRO_NATIVE_DIR=str(tmp_path),
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        ),
    )
    children = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=300) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
    names = {out.split()[-1] for out, _ in outputs}
    assert len(names) == 1
    left = sorted(path.name for path in tmp_path.iterdir())
    assert left == sorted(names)
    assert left[0].startswith("_native-") and left[0].endswith(".so")


@pytest.fixture
def fresh_build(tmp_path):
    """An empty build directory; the previous one and the switch come
    back afterwards."""
    previous_dir, previous_enabled = native._BUILD_DIR, native.native_enabled()
    native.set_build_dir(tmp_path)
    native.set_native_enabled(True)
    yield tmp_path
    native.set_build_dir(previous_dir)
    native.set_native_enabled(previous_enabled)


def test_full_disk_under_the_rename_falls_back_to_the_twins(
    fresh_build, monkeypatch
):
    def full_disk(source, target):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(native.os, "replace", full_disk)
    assert native.batch_core() is None
    error = native.batch_core_error()
    assert os.strerror(errno.ENOSPC) in error
    assert "_native-" in error
    assert list(fresh_build.iterdir()) == []

    learner = SpeedupLearner(
        configs=CONFIGS, base_config=CONFIGS[0], base_qos=1.0
    )
    for config, qos in zip(CONFIGS, (1.0, 1.4, 2.2, 3.1)):
        learner.observe(config, qos)
    optimizer = LearningOptimizer(configs=CONFIGS, cost_rates=RATES)
    view = optimizer.learned_points(learner)
    points = list(view)
    with perf.fast_paths(True):
        solved = lower_envelope_cost(view, 2.0)
        assert view.envelope()[0] == tuple(compute_envelope(points)[0])
    with perf.fast_paths(False):
        assert lower_envelope_cost(points, 2.0) == solved

