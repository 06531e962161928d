"""Shared-state effect rules: the concurrency tier of ``repro lint``.

Three rules, all built on the :mod:`repro.analysis.callgraph` effect
summaries, police the engine's process-global mutable state:

``worker-global-write``
    A write to a module-level mutable (or ``global``-rebound) object,
    outside any module lock, in a function reachable from a sweep
    worker entrypoint (``stats.run_cell`` / ``run_cells``) or from a
    ``perf.FAST`` twin.  Those functions run inside
    ``ProcessPoolExecutor`` workers and under the FAST bit-identity
    contract — an unsynchronized global write there corrupts results
    invisibly.

``lock-discipline``
    A module that defines a lock (any module global bound to
    ``threading.Lock()`` and friends) has declared a protocol: its
    shared mutable globals are lock-protected.  Every read *and* write of
    such a global from function code must sit inside a ``with
    <lock>:`` block of one of the module's locks.  Helpers named
    ``*_locked`` assume the caller already holds the lock — their own
    effects pass, and instead every same-module *call* to them must
    itself sit inside a lock block.

``cache-mutation``
    Values published into a module-level cache (a global with ``CACHE``
    in its name) must be provably frozen — a frozen dataclass, tuple,
    ``MappingProxyType``/``frozenset`` call, a value carrying a
    ``.seal()`` or ``.setflags(write=False)`` call (the shared
    operating-point store's sealed-ndarray publish idiom), or
    something read back from the same cache — and
    values obtained *from* a cache accessor must never be mutated in
    place (``.append``, ``x[k] = …``, ``del x[k]``…).  Taint follows
    direct bindings and accessor call chains; passing a cached object
    through function arguments is not tracked (a documented limit, not
    a guarantee).

All three respect ``# lint: allow(rule)`` pragmas and fail the
``repro lint`` gate exactly like the per-file rules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    FROZEN_FACTORIES,
    Effect,
    FunctionSummary,
    ModuleInfo,
    analyze_module,
    shared_graph,
    _terminal_name,
)
from repro.analysis.core import FileContext, Finding, ProgramRule, Rule

#: Simple names that mark a function as a sweep-worker entrypoint.
WORKER_ENTRYPOINTS: frozenset[str] = frozenset({"run_cell", "run_cells"})


def _context_map(
    contexts: Sequence[FileContext],
) -> Dict[str, FileContext]:
    return {context.display_path: context for context in contexts}


class WorkerGlobalWriteRule(ProgramRule):
    """Unsynchronized global write reachable from a worker entrypoint."""

    id = "worker-global-write"
    description = (
        "write to a module-level mutable global, outside any module "
        "lock, in code reachable from a sweep worker entrypoint or a "
        "perf.FAST twin"
    )

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        by_path = _context_map(contexts)
        graph = shared_graph(contexts)
        roots = [
            key
            for key, summary in graph.functions.items()
            if summary.name in WORKER_ENTRYPOINTS or summary.has_fast_branch
        ]
        origin = graph.reachable_from(roots)
        for key in sorted(origin):
            summary = graph.functions[key]
            context = by_path.get(summary.path)
            if context is None:
                continue
            root = graph.functions[origin[key]]
            for effect in summary.effects:
                if not effect.write or effect.synchronized:
                    continue
                module = graph.modules.get(effect.module)
                if module is None:
                    continue
                var = module.globals.get(effect.name)
                if var is None or not var.shared_mutable:
                    continue
                via = (
                    "a worker entrypoint"
                    if root.name in WORKER_ENTRYPOINTS
                    else "a perf.FAST twin"
                )
                yield context.finding(
                    self,
                    effect.node,
                    (
                        f"unsynchronized write to module global "
                        f"'{effect.name}' in '{summary.qualname}', "
                        f"reachable from {via} "
                        f"('{root.module}.{root.qualname}'); hold the "
                        f"module lock or make the state per-call"
                    ),
                )


class LockDisciplineRule(Rule):
    """Globals of a lock-declaring module touched outside the lock."""

    id = "lock-discipline"
    description = (
        "a module that defines a _LOCK/_CACHE_LOCK must touch its "
        "shared mutable globals only inside that lock's with block"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        info = analyze_module(context)
        if not info.lock_names:
            return
        locks = ", ".join(sorted(info.lock_names))
        for key in sorted(info.functions):
            summary = info.functions[key]
            # One finding per (global, line): a subscript store like
            # ``_CACHE[k] = v`` is both a write site and a read of the
            # name — report it once, as the write.
            best: Dict[Tuple[str, int], "Effect"] = {}
            for effect in summary.effects:
                if effect.synchronized or effect.module != info.dotted:
                    continue
                var = info.globals.get(effect.name)
                if var is None or not var.shared_mutable:
                    continue
                site = (effect.name, getattr(effect.node, "lineno", 0))
                held = best.get(site)
                if held is None or (effect.write and not held.write):
                    best[site] = effect
            for site in sorted(best):
                effect = best[site]
                action = "write to" if effect.write else "read of"
                yield context.finding(
                    self,
                    effect.node,
                    (
                        f"{action} module global '{effect.name}' in "
                        f"'{summary.qualname}' outside the module's "
                        f"lock(s) ({locks}); wrap the access in "
                        f"'with {sorted(info.lock_names)[0]}:'"
                    ),
                )
            # A *_locked helper documents "caller holds the lock"; a
            # same-module call to one outside any lock block breaks
            # that contract even though the helper's own effects pass.
            for call in summary.locked_calls:
                if call.synchronized:
                    continue
                yield context.finding(
                    self,
                    call.node,
                    (
                        f"call to lock-assuming helper '{call.name}' "
                        f"in '{summary.qualname}' outside the module's "
                        f"lock(s) ({locks}); *_locked helpers must be "
                        f"called with the lock already held"
                    ),
                )


def _is_frozen_expr(
    value: ast.expr,
    summary: FunctionSummary,
    module: ModuleInfo,
    frozen_classes: Set[str],
    publish_line: int,
    depth: int = 0,
) -> bool:
    """Whether a published expression is provably immutable."""
    if depth > 4:
        return False
    if isinstance(value, (ast.Constant, ast.Tuple)):
        return True
    if isinstance(value, ast.Call):
        name = _terminal_name(value.func)
        if name in FROZEN_FACTORIES or name in frozen_classes:
            return True
        # ``CACHE.get(key)`` / ``CACHE.setdefault`` re-publish.
        if isinstance(value.func, ast.Attribute) and isinstance(
            value.func.value, ast.Name
        ):
            owner = module.globals.get(value.func.value.id)
            if (
                owner is not None
                and owner.is_cache
                and value.func.attr in {"get", "setdefault"}
            ):
                return True
        return False
    if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
        owner = module.globals.get(value.value.id)
        return owner is not None and owner.is_cache
    if isinstance(value, ast.Name):
        name = value.id
        if name in summary.cache_bindings:
            return True
        seal_line = summary.sealed_names.get(name)
        if seal_line is not None and seal_line <= publish_line:
            return True
        sources = summary.value_sources.get(name)
        if not sources:
            return False
        return all(
            _is_frozen_expr(
                source,
                summary,
                module,
                frozen_classes,
                publish_line,
                depth + 1,
            )
            for source in sources
        )
    return False


class CacheMutationRule(ProgramRule):
    """Cache publishes must be frozen; cache lookups must not mutate."""

    id = "cache-mutation"
    description = (
        "values published to a module-level cache must be provably "
        "frozen, and values obtained from a cache accessor must not "
        "be mutated in place"
    )

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        by_path = _context_map(contexts)
        graph = shared_graph(contexts)
        frozen_classes = graph.frozen_class_names()
        accessors = graph.cache_accessors()
        for key in sorted(graph.functions):
            summary = graph.functions[key]
            context = by_path.get(summary.path)
            if context is None:
                continue
            module = graph.modules[summary.module]
            # Part A: publishes into a cache global must be frozen.
            for publish in summary.cache_publishes:
                line = getattr(publish.node, "lineno", 0)
                if _is_frozen_expr(
                    publish.value, summary, module, frozen_classes, line
                ):
                    continue
                yield context.finding(
                    self,
                    publish.node,
                    (
                        f"value published to cache "
                        f"'{publish.cache_name}' in "
                        f"'{summary.qualname}' is not provably frozen; "
                        f"publish a frozen dataclass, tuple, mapping "
                        f"proxy, or call .seal() on it first"
                    ),
                )
            # Part B: names tainted by a cache lookup must not mutate.
            tainted: Dict[str, str] = {}
            for name in summary.cache_bindings:
                tainted[name] = "a cache lookup"
            for name, targets in summary.call_bindings.items():
                for target in targets:
                    callee = graph.resolve(target)
                    if callee is not None and callee in accessors:
                        accessor = graph.functions[callee]
                        tainted.setdefault(
                            name,
                            f"cache accessor '{accessor.qualname}'",
                        )
                        break
            for mutation in summary.mutations:
                source = tainted.get(mutation.name)
                if source is None:
                    continue
                yield context.finding(
                    self,
                    mutation.node,
                    (
                        f"in-place mutation '{mutation.name}"
                        f"{mutation.what}' in '{summary.qualname}' of a "
                        f"value obtained from {source}; cached objects "
                        f"are shared — copy before mutating"
                    ),
                )


RULES: Tuple[Rule, ...] = (
    WorkerGlobalWriteRule(),
    LockDisciplineRule(),
    CacheMutationRule(),
)
