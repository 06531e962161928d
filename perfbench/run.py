"""Benchmark runner: end-to-end and per-layer numbers for one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload allocators --seed 1 --seconds 20 --trace 0

``--trace 0`` times fresh-process repetitions of the workload's grid for
``--seconds`` seconds and reports the end-to-end metrics, its times in
reference-host seconds (``clock.py``); ``--trace 1``
runs the grid untraced, then serially under the span tracer, and
reports the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Every child runs in its own directory under ``.perfbench/`` with its
own native build directory and with ``REPRO_CACHE_DIR``,
``REPRO_SANITIZE`` and ``REPRO_NATIVE`` cleared; a child reporting any
other engine settings makes the run exit non-zero with no result.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import clock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

EXPECTED_SETTINGS = {
    "fast": True,
    "native": True,
    "sanitizer": False,
    "disk_tier": False,
}

SETUP_SAMPLES = 5
"""Set-up-only processes per run, on top of the set-up of each timed
repetition; ``setup_s`` is the median of all of them."""

MIN_REPS = 3
"""Timed repetitions per run, however long they take."""

REP_TIMEOUT_S = 60
"""A repetition takes 3–15 s on the reference host."""

SHM = Path("/dev/shm")
TRACKER_ERROR = re.compile(r"KeyError: '/cashopt-")


def _units() -> Dict[str, str]:
    """Metric units, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


class RefusedRun(RuntimeError):
    """The engine ran with settings other than the benchmark's."""


class Rep:
    """One child process's outcome."""

    def __init__(self, report: Optional[dict], stderr: str, leaked: int) -> None:
        self.report = report
        self.stderr = stderr
        self.leaked = leaked

    @property
    def ok(self) -> bool:
        return self.report is not None

    def __getitem__(self, key: str):
        return self.report[key]


def _child_env(native_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_CACHE_DIR", "REPRO_SANITIZE", "REPRO_NATIVE"):
        env.pop(name, None)
    env["REPRO_NATIVE_DIR"] = str(native_dir)
    env["PYTHONPATH"] = str(SRC)
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until every process of the group has ended, killing any
    straggler after ``timeout_s`` (the multiprocessing resource tracker
    outlives its parent briefly)."""
    deadline = time.monotonic() + timeout_s
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if _group_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)


def _reap_segments(pid: int) -> int:
    """Count and remove the shared-memory segments a child left behind."""
    leaked = sorted(SHM.glob(f"cashopt-{pid}-*")) if SHM.is_dir() else []
    for path in leaked:
        path.unlink(missing_ok=True)
    return len(leaked)


def run_child(
    workdir: Path,
    env: Dict[str, str],
    workload: str,
    seed: int,
    mode: str,
    jobs: int = 1,
) -> Rep:
    """Launch ``rep.py`` in a fresh directory and wait for all of it."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir / "report.json"
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
        "--mode", mode, "--out", str(out),
    ]
    stderr_path = workdir / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        launch_ns = time.monotonic_ns()
        child = subprocess.Popen(
            command + ["--launch-ns", str(launch_ns)],
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            child.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        finally:
            _wait_group(child.pid)
    text = stderr_path.read_text(errors="replace")
    report = json.loads(out.read_text()) if child.returncode == 0 else None
    if report is not None:
        settings = {key: report["settings"][key] for key in EXPECTED_SETTINGS}
        if settings != EXPECTED_SETTINGS or report["settings"]["repro"] != str(
            SRC / "repro"
        ):
            raise RefusedRun(f"engine settings {report['settings']}")
    elif text.strip():
        sys.stderr.write(text[-4000:])
    return Rep(report, text, _reap_segments(child.pid))


def _failed_cells(reps: Sequence[Rep], cell_count: int) -> int:
    """Cells that raised, differ between repetitions, or belong to an
    artefact that breaks its orderings."""
    done = [rep for rep in reps if rep.ok]
    if len(done) < len(reps) or not done:
        return cell_count
    if any(rep["broken"] for rep in done):
        return cell_count
    reference = done[0]["cells"]
    return sum(
        1
        for index in range(cell_count)
        if any(rep["cells"][index] != reference[index] for rep in done[1:])
    )


def timed_run(
    workload: workloads.Workload, seed: int, seconds: int, env: Dict[str, str], base: Path
) -> dict:
    setups = []
    for index in range(SETUP_SAMPLES):
        rep = run_child(base / f"setup{index}", env, workload.name, seed, "setup")
        if not rep.ok:
            raise RuntimeError("set-up process failed")
        setups.append(clock.scale(rep["setup_s"], rep["setup_probes_ns"]))
    reps: List[Rep] = []
    durations: List[float] = []
    started = time.monotonic()
    # Start another repetition while it is expected to end in time.
    while len(reps) < MIN_REPS or (
        time.monotonic() - started + statistics.median(durations) <= seconds
    ):
        begun = time.monotonic()
        reps.append(
            run_child(
                base / f"rep{len(reps)}", env, workload.name, seed, "timed", workload.jobs
            )
        )
        durations.append(time.monotonic() - begun)
        if not reps[-1].ok:
            break
    done = [rep for rep in reps if rep.ok]
    if not done:
        raise RuntimeError("every repetition failed")
    cells = len(done[0]["cells"])
    setups += [clock.scale(rep["setup_s"], rep["setup_probes_ns"]) for rep in done]
    wall = statistics.median(rep["reference_wall_s"] for rep in done)
    return {
        "settings": done[0]["settings"],
        "attempted": cells * len(reps),
        "failed": _failed_cells(reps, cells) * len(reps),
        "metrics": {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "steps_per_s": done[0]["steps"] / wall,
            "peak_rss_mb": statistics.median(rep["rss_kb"] for rep in done) / 1024.0,
            **done[0]["headline"],
        },
        "reps": f"{len(reps)}, measured wall_s "
        + " ".join(f"{rep['wall_s']:.3f}" for rep in done)
        + ", median probe ms "
        + " ".join(f"{statistics.median(rep['probes_ns']) / 1e6:.3f}" for rep in done),
    }


def traced_run(
    workload: workloads.Workload, seed: int, env: Dict[str, str], base: Path
) -> dict:
    """Untraced at the workload's job count, untraced serially, then
    traced serially; every cell must agree across all three."""
    reps = [run_child(base / "jobs", env, workload.name, seed, "timed", workload.jobs)]
    if workload.jobs > 1:
        reps.append(run_child(base / "serial", env, workload.name, seed, "timed", 1))
    reps.append(run_child(base / "traced", env, workload.name, seed, "traced", 1))
    if not all(rep.ok for rep in reps):
        raise RuntimeError("a traced-run repetition failed")
    parallel, serial, traced = reps[0], reps[-2], reps[-1]
    cells = len(traced["cells"])
    fleet = parallel["fleet"]
    lookups = fleet["l1_hits"] + fleet["l1_misses"]
    metrics = dict(traced["layers"])
    metrics.update(
        {
            "stats.parallel_efficiency": traced["cell_s_total"]
            / (workload.jobs * parallel["net_wall_s"]),
            "optables.l1_hit_ratio": fleet["l1_hits"] / lookups if lookups else 0.0,
            "optables.l2_hits": fleet["l2_hits"],
            "optables.l2_misses": fleet["l2_misses"],
            "optables.publishes": fleet["publishes"],
            "optstore.tracker_errors": len(TRACKER_ERROR.findall(parallel.stderr)),
            "optstore.leaked_segments": parallel.leaked,
            "native.build_s": traced["native_build_s"],
            "trace_overhead_pct": 100.0 * (traced["wall_s"] / serial["net_wall_s"] - 1.0),
        }
    )
    return {
        "settings": traced["settings"],
        "attempted": cells * len(reps),
        "failed": _failed_cells(reps, cells) * len(reps),
        "metrics": metrics,
        "reps": len(reps),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    env = _child_env(WORK / "native")
    try:
        # Warm-up: builds the native kernel and the bytecode caches.
        if not run_child(base / "warmup", env, workload.name, args.seed, "setup").ok:
            print("perfbench: the engine failed to start", file=sys.stderr)
            return 3
        if args.trace:
            result = traced_run(workload, args.seed, env, base)
        else:
            result = timed_run(workload, args.seed, args.seconds, env, base)
    except RefusedRun as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("settings: " + json.dumps(result["settings"], sort_keys=True))
    print(f"repetitions: {result['reps']}")
    units = _units()
    for name, value in result["metrics"].items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
