"""Opt-in runtime sanitizer for the engine's shared state.

The static rules in :mod:`repro.analysis.effects` prove what the AST
can prove; this module checks the rest at runtime, under real
concurrency, with real values.  It is **off by default** and enabled by
``REPRO_SANITIZE=1`` in the environment (read once at import, like a
sanitizer build flag) or programmatically via :func:`set_enabled` /
:func:`sanitized` — the engine's hot paths guard every hook with a
single ``if sanitize.ENABLED`` so the disabled cost is one global load.

Three families of checks plug into the engine:

* **freeze-on-publish** — :func:`freeze` deep-converts a value about to
  enter a process-global cache into its immutable form (dict →
  ``MappingProxyType``, list → tuple, set → frozenset, ndarray →
  ``writeable=False``) and :func:`verify_frozen` re-checks a published
  value without rebuilding it;
* **shadow recounts** — :func:`should_sample` drives sampled
  re-validation of incremental structures (the fabric free-index)
  against a full recomputation;
* **checkpoint verification** — the RNG word-stream decoder calls
  :func:`violation` when a resync or checkpoint replay disagrees with
  the reference stream.

Violations raise :class:`SanitizerViolation`, naming the rule, the
owner site (who published/owns the state) and the mutation/check site.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Tuple

import numpy as np

#: Sampling period for shadow recounts: every Nth consult of an
#: incrementally-maintained structure is checked against a full scan.
SHADOW_SAMPLE_PERIOD = 32

#: Whether the sanitizer is active.  Read from ``REPRO_SANITIZE`` once
#: at import so forked pool workers inherit the setting; tests flip it
#: with :func:`set_enabled` / :func:`sanitized`.
ENABLED: bool = os.environ.get("REPRO_SANITIZE", "") == "1"


class SanitizerViolation(AssertionError):
    """A shared-state invariant broke at runtime.

    Subclasses ``AssertionError`` so a sanitized test run fails loudly
    even under harnesses that only catch assertion failures.
    """

    def __init__(self, rule: str, owner: str, site: str, detail: str) -> None:
        self.rule = rule
        self.owner = owner
        self.site = site
        self.detail = detail
        super().__init__(
            f"[sanitize:{rule}] owner={owner} site={site}: {detail}"
        )

    def __reduce__(
        self,
    ) -> Tuple[type, Tuple[str, str, str, str]]:
        # ``args`` holds the formatted message, not the constructor
        # arguments, so the default reduce cannot rebuild the exception
        # — and a violation raised inside a pool worker must survive
        # the pickled trip back to the parent instead of breaking the
        # pool.
        return type(self), (self.rule, self.owner, self.site, self.detail)


def enabled() -> bool:
    """Whether sanitizer hooks are currently active."""
    return ENABLED


def set_enabled(value: bool) -> None:
    """Turn the sanitizer on or off for this process."""
    global ENABLED
    ENABLED = bool(value)


@contextmanager
def sanitized(value: bool = True) -> Iterator[None]:
    """Context manager flipping the sanitizer for a scoped block."""
    previous = ENABLED
    set_enabled(value)
    try:
        yield
    finally:
        set_enabled(previous)


def _is_frozen_dataclass(value: object) -> bool:
    if not is_dataclass(value) or isinstance(value, type):
        return False
    params = getattr(type(value), "__dataclass_params__", None)
    return bool(params is not None and params.frozen)


_SCALARS: Tuple[type, ...] = (
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    frozenset,
    type(None),
)


def freeze(value: Any, rule: str, owner: str) -> Any:
    """Deep-convert ``value`` into its immutable publishable form.

    Mappings become ``MappingProxyType`` views (over a fresh dict whose
    values are frozen recursively), lists/tuples become tuples of
    frozen elements, sets become frozensets, ndarrays are marked
    ``writeable=False`` in place.  Scalars, frozen dataclasses and
    already-proxied mappings pass through.  Anything else is a
    publish-of-unfreezable violation.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value
    if isinstance(value, MappingProxyType):
        return value
    if isinstance(value, Mapping):
        return MappingProxyType(
            {key: freeze(item, rule, owner) for key, item in value.items()}
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item, rule, owner) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, _SCALARS) or _is_frozen_dataclass(value):
        return value
    if hasattr(value, "seal") and callable(value.seal):
        value.seal()
        return value
    raise SanitizerViolation(
        rule,
        owner,
        "freeze",
        f"cannot freeze value of type {type(value).__name__}",
    )


def verify_frozen(value: Any, rule: str, owner: str, site: str) -> None:
    """Check a published value is immutable, without rebuilding it.

    Raises :class:`SanitizerViolation` on the first mutable component:
    a bare dict/list/set/bytearray, or an ndarray left writeable.
    """
    if isinstance(value, np.ndarray):
        if value.flags.writeable:
            raise SanitizerViolation(
                rule, owner, site, "published ndarray is still writeable"
            )
        return
    if isinstance(value, MappingProxyType):
        for item in value.values():
            verify_frozen(item, rule, owner, site)
        return
    if isinstance(value, (dict, list, set, bytearray)):
        raise SanitizerViolation(
            rule,
            owner,
            site,
            f"published value holds a mutable {type(value).__name__}",
        )
    if isinstance(value, tuple):
        for item in value:
            verify_frozen(item, rule, owner, site)
        return
    if _is_frozen_dataclass(value):
        for field in fields(value):
            verify_frozen(getattr(value, field.name), rule, owner, site)
        return
    # Scalars and sealed engine objects (which verify themselves via
    # their own ``seal``/``check_sealed`` protocol) pass.


def should_sample(tick: int) -> bool:
    """Whether this consult of an incremental structure gets a shadow
    recount (every :data:`SHADOW_SAMPLE_PERIOD`-th call, and the very
    first one so single-shot paths are still covered)."""
    return tick % SHADOW_SAMPLE_PERIOD == 1


def violation(rule: str, owner: str, site: str, detail: str) -> None:
    """Raise a :class:`SanitizerViolation` (helper for engine hooks)."""
    raise SanitizerViolation(rule, owner, site, detail)
