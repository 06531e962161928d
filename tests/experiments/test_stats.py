"""Multi-seed statistics."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.stats import Summary, run_across_seeds

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSummary:
    def test_mean_and_std(self):
        summary = Summary(values=(1.0, 2.0, 3.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.min == 1.0 and summary.max == 3.0

    def test_single_value_has_zero_std(self):
        assert Summary(values=(5.0,)).std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Summary(values=())

    def test_str(self):
        assert "±" in str(Summary(values=(1.0, 2.0)))


class TestRunAcrossSeeds:
    def test_collects_all_seeds(self):
        result = run_across_seeds("hmmer", "optimal", seeds=(0, 1), intervals=40)
        assert result.seeds == (0, 1)
        assert len(result.cost.values) == 2

    def test_oracle_is_seed_stable(self):
        """The oracle's decisions don't depend on measurement noise, so
        costs across seeds differ only through noise in execution —
        which the oracle's true-point planning ignores entirely."""
        result = run_across_seeds(
            "hmmer", "optimal", seeds=(0, 1, 2), intervals=60
        )
        assert result.cost.std / result.cost.mean < 0.02

    def test_cash_seed_spread_is_bounded(self):
        result = run_across_seeds("bzip", "cash", seeds=(0, 1), intervals=300)
        assert result.cost.std / result.cost.mean < 0.30

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            run_across_seeds("hmmer", "optimal", seeds=())


class TestSummaryMedian:
    def test_odd_count(self):
        assert Summary(values=(3.0, 1.0, 2.0)).median == 2.0

    def test_even_count_averages_middle_two(self):
        assert Summary(values=(4.0, 1.0, 3.0, 2.0)).median == 2.5

    def test_single_value(self):
        assert Summary(values=(7.0,)).median == 7.0

    def test_robust_to_outlier_unlike_mean(self):
        summary = Summary(values=(1.0, 1.0, 1.0, 100.0))
        assert summary.median == 1.0
        assert summary.mean > 20.0


class TestSummaryCoercion:
    def test_accepts_list_and_freezes_to_tuple(self):
        summary = Summary(values=[1.0, 2.0])
        assert summary.values == (1.0, 2.0)
        assert isinstance(summary.values, tuple)

    def test_accepts_generator(self):
        summary = Summary(values=(v for v in (1.0, 2.0, 3.0)))
        assert summary.mean == 2.0

    def test_hashable_after_coercion(self):
        assert hash(Summary(values=[1.0, 2.0])) == hash(Summary(values=(1.0, 2.0)))


# The first cell ends its forked worker; the parent must get the named
# error for that cell, not a bare BrokenProcessPool, and must not hang.
DEAD_WORKER_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from repro.experiments import stats

    specs = [
        stats.CellSpec(app_name="hmmer", kind="optimal", intervals=5, seed=seed)
        for seed in range(3)
    ]
    run_cell = stats.run_cell

    def run_or_die(spec):
        if spec == specs[0]:
            os._exit(1)
        return run_cell(spec)

    stats.run_cell = run_or_die
    try:
        stats.run_cells(specs, jobs=2)
    except stats.WorkerLostError as error:
        print(type(error.__cause__).__name__)
        print(error)
        print(repr(specs[0]) in str(error))
        sys.exit(0)
    sys.exit(1)
    """
)


class TestDeadWorker:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the cell is patched in the parent and reaches workers by fork",
    )
    def test_dead_worker_is_a_named_error(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", DEAD_WORKER_SCRIPT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        cause, message, names_spec = child.stdout.strip().splitlines()
        assert cause == "BrokenProcessPool"
        assert "3 of 3 cells lost" in message
        assert names_spec == "True"
