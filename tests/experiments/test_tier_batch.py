"""The struct-of-arrays batch tier in the sweep machinery.

Two layers: the dispatch plumbing (``TierBatchSpec`` through
``run_cell``, contiguous grouping in ``_group_tier_batches``,
``run_cells(tier_batch=True)`` flattening) and the acceptance
criterion — the tier-agreement grid, batched or per cell, is
bit-identical to the per-cycle scalar engine's grid (fast paths off)
for *every* cell, at ``jobs`` 1 and 4, plain or ``REPRO_SANITIZE=1``
(CI runs this module in both modes).
"""

import pytest

from repro import perf
from repro.arch.vcore import VCoreConfig
from repro.experiments.scenarios import (
    run_tier_batch,
    run_tier_cell,
    tier_agreement_grid,
)
from repro.experiments.stats import (
    TierBatchSpec,
    TierCellSpec,
    _group_tier_batches,
    run_cell,
    run_cells,
)

SMALL = dict(instructions=400, seed=0)


def spec_of(app_name, phase_index, slices, l2_kb):
    return TierCellSpec(
        app_name=app_name,
        phase_index=phase_index,
        config=VCoreConfig(slices=slices, l2_kb=l2_kb),
        **SMALL,
    )


class TestTierBatchSpec:
    def test_run_cell_dispatch_matches_single_cells(self):
        specs = (
            spec_of("x264", 0, 1, 64),
            spec_of("x264", 0, 2, 128),
            spec_of("mcf", 1, 4, 256),
        )
        batched = run_cell(TierBatchSpec(cells=specs))
        assert isinstance(batched, tuple)
        singles = [
            run_tier_cell(
                spec.app_name,
                spec.phase_index,
                spec.config,
                instructions=spec.instructions,
                seed=spec.seed,
            )
            for spec in specs
        ]
        assert list(batched) == singles

    def test_run_tier_batch_rejects_bad_phase_index(self):
        with pytest.raises(ValueError, match="phases"):
            run_tier_batch([spec_of("x264", 99, 1, 64)])

    def test_grouping_is_contiguous_and_balanced(self):
        specs = [spec_of("x264", 0, 1, 64) for _ in range(7)]
        grouped, slots = _group_tier_batches(list(specs), jobs=3)
        assert [len(batch.cells) for batch in grouped] == [3, 2, 2]
        assert slots == [[0, 1, 2], [3, 4], [5, 6]]
        assert [cell for batch in grouped for cell in batch.cells] == specs

    def test_single_tier_cell_passes_through_ungrouped(self):
        specs = [spec_of("x264", 0, 1, 64)]
        grouped, slots = _group_tier_batches(list(specs), jobs=4)
        assert grouped == specs
        assert slots == [[0]]

    def test_run_cells_tier_batch_matches_plain(self):
        specs = [
            spec_of("apache", phase_index, slices, 64 * slices)
            for phase_index in (0, 1)
            for slices in (1, 2, 4)
        ]
        plain = run_cells(specs, jobs=1)
        batched = run_cells(specs, jobs=1, tier_batch=True)
        sharded = run_cells(specs, jobs=2, tier_batch=True)
        assert batched == plain
        assert sharded == plain


class TestGridParityAcceptance:
    """Full-grid bit-identity against the per-cycle engine, jobs 1 and 4.

    ``batch=False`` runs the same compiled kernel one cell at a time,
    so the independent reference is the grid with fast paths off.
    """

    @pytest.fixture(scope="class")
    def reference_grid(self):
        with perf.fast_paths(False):
            results, timing = tier_agreement_grid(jobs=1, batch=False)
        assert timing["batch"] is False
        return results

    def test_per_cell_grid_is_bit_identical(self, reference_grid):
        results, timing = tier_agreement_grid(jobs=1, batch=False)
        assert timing["batch"] is False
        assert results == reference_grid

    def test_batched_grid_is_bit_identical_jobs1(self, reference_grid):
        results, timing = tier_agreement_grid(jobs=1, batch=True)
        assert timing["batch"] is True
        assert results == reference_grid

    def test_batched_grid_is_bit_identical_jobs4(self, reference_grid):
        results, _ = tier_agreement_grid(jobs=4, batch=True)
        assert results == reference_grid
