"""One repetition of a workload, in a fresh process.

``run.py`` launches this script once per repetition, so every
repetition pays for interpreter start, imports, optable builds and pool
start-up the way a ``repro figure`` invocation does.  Modes:

* ``setup``: import the engine and load the native kernel, then stop
  where the first cell would start (a set-up time sample);
* ``timed``: run the whole grid with only the host-speed probes of
  :class:`clock.Probe` installed;
* ``traced``: time one native build into an empty directory, then run
  the grid serially with :class:`spans.Tracer` installed.

Every mode runs :data:`SETUP_PROBES` probes right after set-up, to
scale the set-up time by.  The process writes one JSON report to
``--out``; times are on ``time.monotonic_ns``, the clock ``run.py``
stamped ``--launch-ns`` on.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import clock
import spans
import workloads

SETUP_PROBES = 10


def _write_rss(directory: str) -> None:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(directory, f"rss-{os.getpid()}").write_text(str(peak_kb))


class _WorkerRss:
    """Makes every multiprocessing child record its peak RSS at exit."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        multiprocessing.util.register_after_fork(self, _WorkerRss._arm)

    def _arm(self) -> None:
        multiprocessing.util.Finalize(
            None, _write_rss, args=(self.directory,), exitpriority=0
        )

    def total_kb(self) -> int:
        return sum(
            int(path.read_text())
            for path in Path(self.directory).glob("rss-*")
        )


def settings() -> Dict[str, object]:
    from repro import cacheconf, native, perf
    from repro.analysis import sanitize

    return {
        "fast": perf.FAST,
        "native": native.batch_core() is not None,
        "sanitizer": sanitize.ENABLED,
        "disk_tier": cacheconf.cache_dir() is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro": str(Path(sys.modules["repro"].__file__).parent),
    }


def layer_metrics(table: spans.SpanTable, cells, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer numbers that one traced run determines on its own."""
    from repro.cloud.service import ServiceReport

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    envelope = table.values_of("runtime.envelope")
    rebuilds = int((envelope != spans.ENVELOPE_CACHED).sum())
    admitted = table.values_of("admission.request")
    reseats = table.values_of("fabric.reseat")
    service = [r for _, r in cells if isinstance(r, ServiceReport)]
    active = sum(r.active_steps for r in service)
    decides = sum(r.decide_steps for r in service)
    return {
        "stats.cells": table.count("stats.cell"),
        "stats.cell_s.p50": table.percentile_s("stats.cell", 50),
        "stats.cell_s.max": table.percentile_s("stats.cell", 100),
        "harness.run_s": table.seconds("harness.run"),
        "harness.self_s": table.self_seconds("harness.run", "harness.leg"),
        "harness.intervals": table.count_under(
            "harness.run", "runtime.decide", "baselines.decide"
        ),
        "harness.legs": table.count("harness.leg"),
        "runtime.steps": table.count("runtime.step"),
        "runtime.step_s": table.seconds("runtime.step"),
        "runtime.step_us.p50": table.percentile_us("runtime.step", 50),
        "runtime.step_us.p99": table.percentile_us("runtime.step", 99),
        "runtime.solve_s": table.seconds("runtime.solve"),
        "runtime.envelope_calls": len(envelope),
        "runtime.envelope_rebuilds": rebuilds,
        "runtime.envelope_s": table.seconds("runtime.envelope"),
        "runtime.envelope_unchanged_ratio": ratio(
            int((envelope == spans.ENVELOPE_UNCHANGED).sum()), rebuilds
        ),
        "baselines.decide_calls": table.count("baselines.decide"),
        "baselines.decide_s": table.seconds("baselines.decide"),
        "optables.lookups": table.count("optables.lookup"),
        "optables.lookup_s": table.seconds("optables.lookup"),
        "optables.builds": table.count("optables.build"),
        "optables.build_s": table.seconds("optables.build"),
        "traffic.generate_s": table.seconds("traffic.generate"),
        "service.run_s": table.seconds("service.run"),
        "service.self_s": table.self_seconds("service.run"),
        "service.active_steps": active,
        "service.decide_steps": decides,
        "service.replay_ratio": 1.0 - ratio(decides, active) if active else 0.0,
        "provider.run_s": table.seconds("provider.run"),
        "provider.self_s": table.self_seconds("provider.run"),
        "admission.requests": len(admitted),
        "admission.admit_ratio": ratio(int(admitted.sum()), len(admitted)),
        "admission.request_s": table.seconds("admission.request"),
        "fabric.allocate_calls": table.count("fabric.allocate"),
        "fabric.allocate_s": table.seconds("fabric.allocate"),
        "fabric.allocate_us.p99": table.percentile_us("fabric.allocate", 99),
        "fabric.defragment_calls": table.count("fabric.defragment"),
        "fabric.defragment_s": table.seconds("fabric.defragment"),
        "fabric.reallocate_calls": table.count("fabric.reallocate"),
        "fabric.exact_reseat_ratio": ratio(int(reseats.sum()), len(reseats)),
        "trace.generate_s": table.seconds("trace.generate"),
        "trace.uops": int(table.values_of("trace.generate").sum()),
        "batch.run_s": table.seconds("batch.run"),
        "batch.cells": int(table.values_of("batch.run").sum()),
        "batch.fallback_cells": table.count("batch.fallback"),
        "other.self_s": traced_wall_s - table.top_level_seconds(),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.getcwd()

    # Everything the grid functions import, so set-up is the same for
    # every workload and no import lands inside the timed region.
    import repro.experiments.stats  # noqa: F401
    from repro import native
    from repro.sim import optstore

    report: Dict[str, object] = {"settings": settings()}
    if args.mode == "traced":
        native.set_build_dir(Path(workdir, "native-build"))
        started = time.monotonic_ns()
        native.batch_core()
        report["native_build_s"] = (time.monotonic_ns() - started) / 1e9
    rss = _WorkerRss(workdir)
    if args.mode == "traced":
        probe = spans.Tracer()
    else:
        probe = clock.Probe(Path(workdir))
    if args.mode != "setup":
        probe.install()
    set_up = time.monotonic_ns()
    report["setup_s"] = (set_up - args.launch_ns) / 1e9
    report["setup_probes_ns"] = [clock.probe_ns() for _ in range(SETUP_PROBES)]
    if args.mode != "setup":
        first_cell = time.monotonic_ns()
        try:
            cells = workload.run(args.seed, args.jobs)
        finally:
            probe.uninstall()
        wall_ns = time.monotonic_ns() - first_cell
        wall_s = wall_ns / 1e9
        if args.mode == "timed":
            processes = probe.read()
            net_wall_s, reference_wall_s = clock.grid_seconds(wall_ns, processes)
            report.update(
                probes_ns=[value for worker in processes for value in worker.probes_ns],
                net_wall_s=net_wall_s,
                reference_wall_s=reference_wall_s,
            )
        else:
            report["net_wall_s"] = wall_s
        report.update(
            wall_s=wall_s,
            cells=[[name, workloads.fingerprint(result)] for name, result in cells],
            steps=workload.steps(cells),
            headline=workload.headline(cells),
            broken=workload.check(cells),
            fleet=optstore.counters_fleet(),
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + rss.total_kb(),
        )
        if args.mode == "traced":
            arrays = probe.arrays()
            np.savez(Path(workdir, "spans.npz"), **arrays)
            table = spans.SpanTable.from_arrays(arrays)
            report["layers"] = layer_metrics(table, cells, wall_s)
            report["cell_s_total"] = table.seconds("stats.cell")
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
