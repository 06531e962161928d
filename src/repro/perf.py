"""Global fast-path switch for the experiment engine.

The evaluation engine has two numerically-equivalent implementations of
its hot loops:

* the **fast paths** — the vectorized performance-model kernel, the
  process-global operating-point table cache, and the incrementally
  maintained learned-point/lower-hull state (the default); and
* the **reference paths** — the original scalar, recompute-everything
  code, kept both as the ground truth for equivalence tests and as the
  baseline the speed benchmarks measure against.

``FAST`` toggles between them at run time.  The switch exists so a
single process can run the same fixed-seed experiment both ways and
assert bit-identical results — the strongest possible guarantee that
the optimization layers changed nothing but wall-clock time.

Each choice has one owner: the function that holds the fast path and
its twin branches on ``FAST``, and its callers do not choose again.
:func:`repro.sim.optables.operating_point_table`, for one, is the only
place that picks between the cached vectorized table and the scalar
build.  DESIGN §8's ledger lists every function that branches, with
the measured saving of its fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

FAST = True
"""When True (the default), use the vectorized/cached engine paths."""


def fast_paths_enabled() -> bool:
    """Whether the engine's fast paths are currently active."""
    return FAST


def set_fast_paths(enabled: bool) -> None:
    """Globally enable or disable the engine's fast paths."""
    global FAST
    FAST = bool(enabled)


@contextmanager
def fast_paths(enabled: bool) -> Iterator[None]:
    """Temporarily force the fast paths on or off (for benchmarks/tests)."""
    global FAST
    previous = FAST
    FAST = bool(enabled)
    try:
        yield
    finally:
        FAST = previous
