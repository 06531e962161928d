"""Domain-aware static analysis for the CASH reproduction.

``repro.analysis`` is the review-time half of the repo's correctness
story.  The runtime half — fixed-seed fast/scalar equivalence replays,
byte-stable parallel sweeps — catches determinism and parity bugs when
the right test runs; this package catches the same classes of bug
*structurally*, on every ``repro lint`` invocation, before a test ever
needs to fire.

Rule families (see the sibling modules for the hazards each protects
against):

* :mod:`repro.analysis.determinism` — unseeded RNGs, wall-clock and
  environment reads in the engine, set-iteration order leaks,
  ``id()``-keyed containers.
* :mod:`repro.analysis.parity` — every ``repro.perf.FAST`` branch must
  keep both its fast and its scalar reference twin.
* :mod:`repro.analysis.numerics` — exact float equality, mutable
  default arguments, numpy alias shadowing.
* :mod:`repro.analysis.units` — the ``Annotated`` unit vocabulary
  (cycles / instructions / dollars) and the additive-mixing checker.
* :mod:`repro.analysis.effects` — shared-state discipline over the
  :mod:`repro.analysis.callgraph` effect summaries: unsynchronized
  global writes reachable from sweep workers or FAST twins, lock
  discipline in lock-declaring modules, and frozen-only cache
  publishes/lookups.
* :mod:`repro.analysis.hotpath` — interprocedural performance rules
  scoped to the *hot set* (functions reachable from the FAST engine
  entrypoints on the same call graph): quadratic list operations,
  loop-invariant recomputation, element-wise ndarray loops, and
  per-iteration allocation in nested loops; also the
  ``repro lint --hot-report`` cost ranking.
* :mod:`repro.analysis.dataflow` — interprocedural value-flow rules on
  the same call graph, via per-function parameter-read/return-
  dependence summaries and a transitive-input fixpoint: cache keys
  must cover everything the cached computation reads
  (``cache-key-incomplete``), RNG streams must stay per-item and
  per-twin (``rng-stream-shared``), and seeds must derive from frozen
  spec fields (``seed-derivation``); also the ``repro lint
  --dataflow-report`` evidence tables.

The framework lives in :mod:`repro.analysis.core` and the ``repro
lint`` wiring in :mod:`repro.analysis.cli`: any finding a ``# lint:
allow(rule)`` pragma does not suppress fails the gate.  The runtime
half of the shared-state story — the opt-in ``REPRO_SANITIZE=1``
sanitizer — is :mod:`repro.analysis.sanitize`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.analysis.core import (
    FileContext,
    Finding,
    ProgramRule,
    Rule,
    check_file,
    check_program,
    scan_paths,
)

if TYPE_CHECKING:
    ALL_RULES: List[Rule]
    RULES_BY_ID: Dict[str, Rule]


def __getattr__(name: str) -> object:
    """``ALL_RULES`` and ``RULES_BY_ID``, built on first use.

    The engine imports :mod:`repro.analysis.sanitize` and
    :mod:`repro.analysis.units` through this package; importing every
    rule module with them would make each engine process load the
    whole lint suite it never runs.
    """
    if name not in ("ALL_RULES", "RULES_BY_ID"):
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from repro.analysis import (
        dataflow,
        determinism,
        effects,
        hotpath,
        numerics,
        parity,
        units,
    )

    global ALL_RULES, RULES_BY_ID
    ALL_RULES = [
        *determinism.RULES,
        *parity.RULES,
        *numerics.RULES,
        *units.RULES,
        *effects.RULES,
        *hotpath.RULES,
        *dataflow.RULES,
    ]
    RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}
    return ALL_RULES if name == "ALL_RULES" else RULES_BY_ID


__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "FileContext",
    "Finding",
    "ProgramRule",
    "Rule",
    "check_file",
    "check_program",
    "scan_paths",
]
