"""The span tracer is invisible in results, leaves nothing behind, and
is wired to entry points that are live on each workload.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench/tests

Every workload runs twice serially (traced, then untraced), so the
module takes about a minute on a 2-core host.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(PERFBENCH.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

BUSIEST_WORKLOAD = {
    "stats.cell": "service",
    "harness.run": "allocators",
    "harness.leg": "allocators",
    "runtime.decide": "allocators",
    "runtime.step": "allocators",
    "runtime.solve": "allocators",
    "runtime.envelope": "allocators",
    "baselines.decide": "allocators",
    "optables.lookup": "service",
    "optables.build": "allocators",
    "traffic.generate": "service",
    "service.run": "service",
    "provider.run": "multitenant",
    "admission.request": "service",
    "fabric.allocate": "service",
    "fabric.defragment": "multitenant",
    "fabric.reallocate": "service",
    "fabric.reseat": "service",
    "trace.generate": "tiers",
    "batch.run": "tiers",
}
"""Span -> the workload the README's metric table marks as doing most
of that layer's work.  ``batch.fallback`` only fires without the
native kernel; :func:`test_fallback_span_fires_without_native` covers
it."""


def _fresh_caches() -> None:
    from repro.sim.optables import cache_clear

    cache_clear()


@pytest.fixture(scope="module")
def runs():
    """workload -> (traced fingerprints, span table, untraced fingerprints)."""
    done = {}
    for name, workload in workloads.WORKLOADS.items():
        _fresh_caches()
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = workload.run(0, 1)
        finally:
            tracer.uninstall()
        table = spans.SpanTable.from_arrays(tracer.arrays())
        _fresh_caches()
        untraced = workload.run(0, 1)
        done[name] = (
            [(cell, workloads.fingerprint(r)) for cell, r in traced],
            table,
            [(cell, workloads.fingerprint(r)) for cell, r in untraced],
        )
    return done


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_results_are_bit_identical(runs, name):
    traced, _, untraced = runs[name]
    assert traced == untraced


def test_wrappers_are_all_removed(runs):
    assert spans.installed_wrappers() == []


def test_every_span_is_mapped():
    assert set(BUSIEST_WORKLOAD) | {"batch.fallback"} == set(spans.SPAN_NAMES)


@pytest.mark.parametrize("span", sorted(BUSIEST_WORKLOAD))
def test_span_fires_on_its_busiest_workload(runs, span):
    _, table, _ = runs[BUSIEST_WORKLOAD[span]]
    assert table.count(span) > 0


def test_fallback_span_fires_without_native():
    from repro import native
    from repro.experiments.scenarios import tier_agreement_grid

    native.set_native_enabled(False)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tier_agreement_grid(app_names=("mcf",), instructions=2000, jobs=1)
    finally:
        tracer.uninstall()
        native.set_native_enabled(True)
    table = spans.SpanTable.from_arrays(tracer.arrays())
    assert table.count("batch.fallback") == table.values_of("batch.run").sum() > 0
    assert spans.installed_wrappers() == []


def test_span_survives_an_exception():
    from repro.arch.fabric import Fabric, FabricError
    from repro.arch.vcore import VCoreConfig

    fabric = Fabric(width=2, height=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(FabricError):
            fabric.allocate(0, VCoreConfig(slices=8, l2_kb=64))
        fabric.defragment()
    finally:
        tracer.uninstall()
    table = spans.SpanTable.from_arrays(tracer.arrays())
    assert table.count("fabric.allocate") == 1
    assert table.count("fabric.defragment") == 1
    # The failed call closed its span, so the next one is top-level.
    assert (table.parents == -1).all()
