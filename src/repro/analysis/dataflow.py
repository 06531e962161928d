"""Interprocedural dataflow rules over the :mod:`callgraph` summaries.

Every speedup tier in this repo leans on two idioms the per-file rules
cannot prove correct:

* **value-keyed caches** — the operating-point table LRU, the envelope
  memo, the fabric distance-matrix cache.
  A cached result keyed on *fewer* inputs than the computation actually
  reads returns stale values for the unkeyed input — silently, and only
  under cache hits, so tests that build fresh state never see it.
* **deterministically keyed RNG streams** — ``(seed, tenant_id)``
  per-tenant traffic streams, one seeded stream per trace generator.
  An RNG object shared across items (or across the ``perf.FAST`` twin
  boundary) couples draws that must be independent, breaking
  bit-identity the moment iteration order changes.

This module derives both properties statically.  The
:class:`~repro.analysis.callgraph.ProgramGraph` gains per-function
parameter-read and return-dependence summaries plus a transitive-input
fixpoint (:meth:`~repro.analysis.callgraph.ProgramGraph.return_param_dependence`);
on top of those, four whole-program rules:

``cache-key-incomplete``
    A memoized/cached function (``functools`` caches, module-global
    ``*_CACHE`` dict inserts, self-attribute memos) reads a parameter,
    ``self`` attribute chain, or shared-mutable module global that is
    not (transitively) folded into its cache key.  Keys that contain a
    content digest component (``digest``, ``checksum``, ...) delegate
    key-completeness to the digest construction and are exempt from the
    parameter check — the digest site itself is an ordinary function
    whose callers the rule still analyzes.

``rng-stream-shared``
    An RNG stream constructed outside a per-item keyed factory flows
    where independent streams are required: a module-level stream read
    from code reachable from a sweep/worker entrypoint or FAST-split
    function; a stream constructed outside a loop handed to per-item
    calls inside the loop (checked in modules that declare a keyed
    factory — the sequential single-stream idiom elsewhere is legal);
    or a stream crossing a ``perf.FAST`` twin boundary.

``seed-derivation``
    Seeds reaching an RNG constructor or keyed factory must derive from
    parameters / frozen spec fields or literals — never from rebindable
    module counters, and never from loop indices *alone*.

``schema-drift``
    A structural fingerprint of every serialized surface (the service
    checkpoint's payload dataclasses + engine state) is pinned in a
    committed ``SCHEMA_FINGERPRINTS.json``.  Changing a field set
    without bumping the owning version constant (``CHECKPOINT_SCHEMA``)
    and re-pinning via ``repro lint --update-schema`` fails the gate.

``repro lint --dataflow-report`` renders the underlying evidence — the
per-cache key-vs-read-set table and per-stream provenance chains — from
the same :func:`~repro.analysis.core.shared_analysis` memo the rules
use, so the report costs one extra traversal, not one extra analysis.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import (
    Dep,
    FunctionSummary,
    ModuleInfo,
    ProgramGraph,
    expr_deps,
    fast_region_nodes,
    is_rng_call,
    module_dotted,
    scalar_region_nodes,
    shared_graph,
)
from repro.analysis.core import (
    FileContext,
    Finding,
    ProgramRule,
    Rule,
    parent_of,
    shared_analysis,
)
from repro.analysis.determinism import ENGINE_DIRS
from repro.analysis.effects import WORKER_ENTRYPOINTS

#: Committed pin file for serialized-surface fingerprints, repo-root
#: relative (``repro lint --update-schema`` regenerates it).
SCHEMA_PIN_FILENAME = "SCHEMA_FINGERPRINTS.json"

#: Engine switches that select an implementation, never a result value;
#: reading them inside a memoized function is not a key-coverage gap.
_SWITCH_NAMES: FrozenSet[str] = frozenset({"FAST", "ENABLED"})

#: A key component whose name declares it a content digest: the digest
#: construction folds the inputs, so the memo site's parameter check is
#: delegated to it.
_DIGEST_KEY_PATTERN = re.compile(
    r"digest|checksum|sha\d*|fingerprint", re.IGNORECASE
)

_CACHE_DECORATORS: FrozenSet[str] = frozenset({"lru_cache", "cache"})

_LOOP_ANCESTORS: Tuple[type, ...] = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _own_nodes(root: ast.AST) -> List[ast.AST]:
    """Every descendant of ``root`` in its own frame (nested
    function/class bodies excluded — they get their own summaries)."""
    result: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            result.append(child)
            visit(child)

    visit(root)
    return result


def _inside_loop(node: ast.AST, stop: ast.AST) -> bool:
    current = parent_of(node)
    while current is not None and current is not stop:
        if isinstance(current, _LOOP_ANCESTORS):
            return True
        current = parent_of(current)
    return False


def _is_method(summary: FunctionSummary) -> bool:
    return (
        "." in summary.qualname
        and bool(summary.params)
        and summary.params[0] in {"self", "cls"}
    )


def _decorator_terminal(decorator: ast.expr) -> Optional[str]:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _module_for(graph: ProgramGraph, dotted: str) -> Optional[ModuleInfo]:
    """Scanned module for a dotted name, with suffix fallback (mirrors
    :meth:`ProgramGraph.resolve` so synthetic trees match)."""
    module = graph.modules.get(dotted)
    if module is not None:
        return module
    for candidate_dotted in sorted(graph.modules):
        if candidate_dotted.endswith("." + dotted) or dotted.endswith(
            "." + candidate_dotted
        ):
            return graph.modules[candidate_dotted]
    return None


# ---------------------------------------------------------------------------
# Cache-site model


@dataclass
class CacheSite:
    """One memoized/cached function and its key-vs-read evidence."""

    summary: FunctionSummary
    container: str
    """Rendered container: ``_TABLE_CACHE``, ``self._envelopes``, or
    ``@lru_cache`` for decorator caches."""
    kind: str
    """``memo`` (lookup+store+return), ``publish`` (keyed insert into a
    ``*_CACHE`` global), or ``decorator`` (``functools`` cache)."""
    anchor: ast.AST
    key_exprs: List[ast.expr] = field(default_factory=list)
    key_deps: FrozenSet[Dep] = frozenset()
    digest_keyed: bool = False
    read_params: Tuple[str, ...] = ()
    missing: Tuple[str, ...] = ()
    """Rendered inputs the function reads but its key never covers."""


@dataclass
class StreamSite:
    """One RNG-stream construction and where it flows."""

    summary: FunctionSummary
    node: ast.AST
    name: str
    """Bound local name, or ``<inline>`` for construct-and-pass sites."""
    keyed: bool
    """Seed dependence includes at least one parameter (per-item)."""
    seed_deps: FrozenSet[Dep] = frozenset()
    sinks: Tuple[str, ...] = ()
    """Resolved call targets the stream object is passed to."""
    returned: bool = False


class DataflowView:
    """Scan-wide dataflow artifacts, built once per context tuple."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.graph: ProgramGraph = shared_graph(contexts)
        self.return_deps: Dict[str, FrozenSet[str]] = (
            self.graph.return_param_dependence()
        )
        self.contexts: Tuple[FileContext, ...] = tuple(contexts)
        self.by_dotted: Dict[str, FileContext] = {
            module_dotted(context.display_path): context
            for context in contexts
        }
        self.keyed_factories: Dict[str, FunctionSummary] = (
            self._find_keyed_factories()
        )
        self.caches: List[CacheSite] = []
        self.streams: List[StreamSite] = []
        for key in sorted(self.graph.functions):
            summary = self.graph.functions[key]
            self.caches.extend(self._collect_caches(summary))
            self.streams.extend(self._collect_streams(summary))

    # -- keyed factories --------------------------------------------------

    def _rng_return_calls(self, summary: FunctionSummary) -> List[ast.Call]:
        """RNG constructor calls this function's return values reduce to."""
        calls: List[ast.Call] = []
        for value in summary.return_values:
            if isinstance(value, ast.Call) and is_rng_call(value):
                calls.append(value)
            elif isinstance(value, ast.Name):
                for source in summary.value_sources.get(value.id, []):
                    if isinstance(source, ast.Call) and is_rng_call(source):
                        calls.append(source)
        return calls

    def _find_keyed_factories(self) -> Dict[str, FunctionSummary]:
        factories: Dict[str, FunctionSummary] = {}
        for key in sorted(self.graph.functions):
            summary = self.graph.functions[key]
            for call in self._rng_return_calls(summary):
                deps: Set[Dep] = set()
                for argument in list(call.args) + [
                    keyword.value for keyword in call.keywords
                ]:
                    deps.update(
                        expr_deps(
                            argument, summary, self.graph, self.return_deps
                        )
                    )
                if any(dep.kind == "param" for dep in deps):
                    factories[key] = summary
                    break
        # One propagation round: a function whose return is a call to a
        # keyed factory is itself a keyed factory.
        for key in sorted(self.graph.functions):
            if key in factories:
                continue
            summary = self.graph.functions[key]
            for target in summary.returned_calls:
                resolved = self.graph.resolve(target)
                if resolved is not None and resolved in factories:
                    factories[key] = summary
                    break
        return factories

    def is_keyed_factory_call(
        self, summary: FunctionSummary, call: ast.Call
    ) -> bool:
        target = summary.call_targets.get(call)
        if target is None:
            return False
        resolved = self.graph.resolve(target)
        return resolved is not None and resolved in self.keyed_factories

    # -- cache sites ------------------------------------------------------

    def _container_name(
        self, summary: FunctionSummary, module: ModuleInfo, expr: ast.expr
    ) -> Optional[str]:
        """Rendered container name for a cache-able owner expression."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if (
                name in summary.params
                or name in summary.loop_targets
                or name in summary.value_sources
            ):
                return None  # shadowed by a local
            var = module.globals.get(name)
            if var is not None and (var.mutable or var.is_cache) and not var.is_lock:
                return name
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and _is_method(summary)
        ):
            return f"self.{expr.attr}"
        return None

    def _collect_caches(self, summary: FunctionSummary) -> List[CacheSite]:
        module = self.graph.modules.get(summary.module)
        if module is None:
            return []
        sites: List[CacheSite] = []
        decorated = any(
            _decorator_terminal(decorator) in _CACHE_DECORATORS
            for decorator in summary.node.decorator_list
        )
        if decorated:
            sites.append(
                CacheSite(
                    summary=summary,
                    container="@lru_cache",
                    kind="decorator",
                    anchor=summary.node,
                )
            )
        # Value-producing lookups (``.get``/``[k]``/``.setdefault``) are
        # what make a container a memo; bare ``key in C`` membership
        # guards appear on registries too, so they only contribute key
        # expressions, never memo-hood.
        lookups: Dict[str, List[ast.expr]] = {}
        membership: Dict[str, List[ast.expr]] = {}
        stores: Dict[str, List[Tuple[ast.expr, Optional[ast.expr], ast.AST]]] = {}
        for node in _own_nodes(summary.node):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in {"get", "setdefault"} and node.args:
                    container = self._container_name(
                        summary, module, node.func.value
                    )
                    if container is not None:
                        lookups.setdefault(container, []).append(node.args[0])
                        if node.func.attr == "setdefault" and len(node.args) > 1:
                            stores.setdefault(container, []).append(
                                (node.args[0], node.args[1], node)
                            )
            elif isinstance(node, ast.Subscript):
                container = self._container_name(summary, module, node.value)
                if container is None:
                    continue
                if isinstance(node.ctx, ast.Load):
                    lookups.setdefault(container, []).append(node.slice)
                elif isinstance(node.ctx, ast.Store):
                    parent = parent_of(node)
                    if isinstance(parent, ast.Assign):
                        stores.setdefault(container, []).append(
                            (node.slice, parent.value, parent)
                        )
            elif isinstance(node, ast.Compare):
                for op, comparator in zip(node.ops, node.comparators):
                    if isinstance(op, (ast.In, ast.NotIn)):
                        container = self._container_name(
                            summary, module, comparator
                        )
                        if container is not None:
                            membership.setdefault(container, []).append(
                                node.left
                            )
        for container in sorted(set(lookups) | set(stores)):
            container_stores = stores.get(container, [])
            if not container_stores:
                continue
            memo = bool(lookups.get(container)) and any(
                isinstance(value, ast.Name)
                and value.id in summary.returned_names
                for _, value, _ in container_stores
            )
            is_cache_global = (
                not container.startswith("self.")
                and container in module.globals
                and module.globals[container].is_cache
            )
            if not memo and not is_cache_global:
                continue
            key_exprs = (
                [key for key, _, _ in container_stores]
                + lookups.get(container, [])
                + membership.get(container, [])
            )
            sites.append(
                CacheSite(
                    summary=summary,
                    container=container,
                    kind="memo" if memo else "publish",
                    anchor=container_stores[0][2],
                    key_exprs=key_exprs,
                )
            )
        for site in sites:
            self._analyze_cache(site, module)
        return sites

    def _analyze_cache(self, site: CacheSite, module: ModuleInfo) -> None:
        summary = site.summary
        deps: Set[Dep] = set()
        for expr in site.key_exprs:
            deps.update(expr_deps(expr, summary, self.graph, self.return_deps))
        site.key_deps = frozenset(deps)
        site.digest_keyed = any(
            dep.kind == "param"
            and (
                _DIGEST_KEY_PATTERN.search(dep.name)
                or any(_DIGEST_KEY_PATTERN.search(part) for part in dep.chain)
            )
            for dep in deps
        ) or any(
            dep.kind in {"global", "unknown"}
            and _DIGEST_KEY_PATTERN.search(dep.name)
            for dep in deps
        )
        implicit_first = (
            summary.params[0]
            if _is_method(summary) and summary.params
            else None
        )
        site.read_params = tuple(
            name
            for name in summary.params
            if name in summary.param_reads and name != implicit_first
        )
        missing: List[str] = []
        if site.kind == "decorator":
            # functools caches hash every argument — only module state
            # can leak past the key.
            missing.extend(self._unkeyed_global_reads(site, module))
        else:
            covered = {
                dep.name for dep in site.key_deps if dep.kind == "param"
            }
            if not site.digest_keyed:
                missing.extend(
                    name for name in site.read_params if name not in covered
                )
                if implicit_first is not None and not site.container.startswith(
                    "self."
                ):
                    missing.extend(
                        self._unkeyed_self_chains(site, implicit_first)
                    )
            if site.kind == "memo":
                missing.extend(self._unkeyed_global_reads(site, module))
        site.missing = tuple(dict.fromkeys(missing))

    def _unkeyed_global_reads(
        self, site: CacheSite, module: ModuleInfo
    ) -> List[str]:
        covered = {
            (dep.module, dep.name)
            for dep in site.key_deps
            if dep.kind == "global"
        }
        # A global the function also writes is internal state being
        # updated (hit/miss counters, registries) — only read-only
        # globals are inputs the cached value can go stale against.
        written = {
            effect.name for effect in site.summary.effects if effect.write
        }
        unkeyed: List[str] = []
        for effect in site.summary.effects:
            if effect.write:
                continue
            if effect.name == site.container or effect.name in written:
                continue
            var = module.globals.get(effect.name)
            if var is None or not var.shared_mutable:
                continue
            if var.is_cache or var.is_lock:
                continue
            if effect.name in _SWITCH_NAMES:
                continue
            if (effect.module, effect.name) in covered:
                continue
            rendered = effect.name
            if rendered not in unkeyed:
                unkeyed.append(rendered)
        return unkeyed

    def _unkeyed_self_chains(
        self, site: CacheSite, self_name: str
    ) -> List[str]:
        """``self.<attr>`` chains read by a function that stores into a
        *module-global* cache without folding them into the key."""
        covered_roots = {
            dep.chain[0]
            for dep in site.key_deps
            if dep.kind == "param" and dep.name == self_name and dep.chain
        }
        chains: List[str] = []
        for node in _own_nodes(site.summary.node):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Load):
                continue
            if not (
                isinstance(node.value, ast.Name)
                and node.value.id == self_name
            ):
                continue
            parent = parent_of(node)
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # method dispatch, not a data read
            rendered = f"{self_name}.{node.attr}"
            if node.attr in covered_roots:
                continue
            if rendered not in chains:
                chains.append(rendered)
        return chains

    # -- stream sites -----------------------------------------------------

    def _collect_streams(self, summary: FunctionSummary) -> List[StreamSite]:
        sites: List[StreamSite] = []
        own = _own_nodes(summary.node)
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            keyed_factory = self.is_keyed_factory_call(summary, node)
            if not (is_rng_call(node) or keyed_factory):
                continue
            seed_deps: Set[Dep] = set()
            for argument in list(node.args) + [
                keyword.value for keyword in node.keywords
            ]:
                seed_deps.update(
                    expr_deps(argument, summary, self.graph, self.return_deps)
                )
            name = "<inline>"
            parent = parent_of(node)
            if (
                isinstance(parent, ast.Assign)
                and len(parent.targets) == 1
                and isinstance(parent.targets[0], ast.Name)
            ):
                name = parent.targets[0].id
            sinks: List[str] = []
            returned = False
            if name != "<inline>":
                for candidate in own:
                    if not isinstance(candidate, ast.Call):
                        continue
                    if any(
                        isinstance(argument, ast.Name) and argument.id == name
                        for argument in candidate.args
                    ):
                        target = summary.call_targets.get(candidate)
                        sinks.append(
                            target
                            if target is not None
                            else ast.unparse(candidate.func)
                        )
                returned = name in summary.returned_names
            else:
                if isinstance(parent, ast.Call) and node in parent.args:
                    target = summary.call_targets.get(parent)
                    sinks.append(
                        target
                        if target is not None
                        else ast.unparse(parent.func)
                    )
                if isinstance(parent, ast.Return):
                    returned = True
            sites.append(
                StreamSite(
                    summary=summary,
                    node=node,
                    name=name,
                    keyed=keyed_factory
                    or any(dep.kind == "param" for dep in seed_deps),
                    seed_deps=frozenset(seed_deps),
                    sinks=tuple(dict.fromkeys(sinks)),
                    returned=returned,
                )
            )
        return sites


def dataflow_view(contexts: Sequence[FileContext]) -> DataflowView:
    """The scan's :class:`DataflowView`, built at most once per scan."""
    return shared_analysis(contexts, "dataflow", DataflowView)


# ---------------------------------------------------------------------------
# Rules


def _context_for(
    contexts: Sequence[FileContext], path: str
) -> Optional[FileContext]:
    for context in contexts:
        if context.display_path == path:
            return context
    return None


class CacheKeyRule(ProgramRule):
    """Memoized results must be keyed on everything they read."""

    id = "cache-key-incomplete"
    description = (
        "a memoized/cached function reads a parameter, attribute chain, "
        "or mutable global that is not folded into its cache key or "
        "content digest"
    )

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        view = dataflow_view(contexts)
        for site in view.caches:
            if not site.missing:
                continue
            context = _context_for(contexts, site.summary.path)
            if context is None:
                continue
            keyed = sorted(
                {
                    dep.render()
                    for dep in site.key_deps
                    if dep.kind in {"param", "global"}
                }
            )
            yield context.finding(
                self,
                site.anchor,
                f"cache '{site.container}' in '{site.summary.qualname}' is "
                f"keyed on ({', '.join(keyed) if keyed else 'nothing'}) but "
                f"the function also reads {', '.join(site.missing)}; fold "
                "them into the cache key or content digest (or split the "
                "unkeyed input out of the cached computation)",
            )


class RngStreamRule(ProgramRule):
    """RNG streams must stay per-item and per-twin."""

    id = "rng-stream-shared"
    description = (
        "an RNG stream constructed outside a per-item keyed factory "
        "flows into a sweep/worker entrypoint or across a perf.FAST "
        "twin boundary"
    )

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        view = dataflow_view(contexts)
        yield from self._check_worker_flow(view, contexts)
        yield from self._check_factory_bypass(view, contexts)
        yield from self._check_twin_boundary(view, contexts)

    # A module-level stream read from worker-reachable code is shared
    # across every item the worker processes.
    def _check_worker_flow(
        self, view: DataflowView, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = view.graph
        roots = [
            key
            for key, summary in graph.functions.items()
            if summary.name in WORKER_ENTRYPOINTS or summary.has_fast_branch
        ]
        origin = graph.reachable_from(roots)
        for key in sorted(origin):
            summary = graph.functions[key]
            module = graph.modules.get(summary.module)
            if module is None:
                continue
            context = _context_for(contexts, summary.path)
            if context is None:
                continue
            root_name = graph.functions[origin[key]].qualname
            for node in _own_nodes(summary.node):
                if not (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                ):
                    continue
                name = node.id
                if (
                    name in summary.params
                    or name in summary.loop_targets
                    or name in summary.value_sources
                ):
                    continue
                shared = name in module.rng_globals
                if not shared and name in module.from_imports:
                    target, original = module.from_imports[name]
                    owner = _module_for(graph, target)
                    shared = (
                        owner is not None and original in owner.rng_globals
                    )
                if shared:
                    yield context.finding(
                        self,
                        node,
                        f"module-level RNG stream '{name}' is read by "
                        f"'{summary.qualname}', reachable from worker/"
                        f"engine entrypoint '{root_name}'; every item must "
                        "draw from its own keyed factory stream",
                    )

    # In a module that declares a keyed per-item factory, handing a
    # stream constructed outside the loop to per-item calls inside the
    # loop bypasses the factory and couples the items.
    def _check_factory_bypass(
        self, view: DataflowView, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = view.graph
        factory_modules: Set[str] = {
            summary.module for summary in view.keyed_factories.values()
        }
        for key in sorted(graph.functions):
            summary = graph.functions[key]
            if key in view.keyed_factories:
                continue
            module = graph.modules.get(summary.module)
            if module is None:
                continue
            gated = summary.module in factory_modules or any(
                graph.resolve(f"{target}::{original}")
                in view.keyed_factories
                for target, original in module.from_imports.values()
            )
            if not gated:
                continue
            context = _context_for(contexts, summary.path)
            if context is None:
                continue
            own = _own_nodes(summary.node)
            for name, bindings in self._rng_locals(view, summary, own):
                if any(
                    _inside_loop(binding, summary.node)
                    for binding in bindings
                ):
                    continue
                for node in own:
                    if not isinstance(node, ast.Call):
                        continue
                    if not _inside_loop(node, summary.node):
                        continue
                    if any(
                        isinstance(argument, ast.Name)
                        and argument.id == name
                        for argument in node.args
                    ) or any(
                        isinstance(keyword.value, ast.Name)
                        and keyword.value.id == name
                        for keyword in node.keywords
                    ):
                        callee = summary.call_targets.get(
                            node, ast.unparse(node.func)
                        )
                        yield context.finding(
                            self,
                            node,
                            f"RNG stream '{name}' is constructed outside "
                            f"the loop in '{summary.qualname}' but handed "
                            f"to per-item call '{callee}' inside it; this "
                            "module keys streams per item — construct one "
                            "via the keyed factory instead",
                        )

    # A stream constructed in one arm of a perf.FAST split must not be
    # used in the other: the twins own independent stream state.
    def _check_twin_boundary(
        self, view: DataflowView, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = view.graph
        for key in sorted(graph.functions):
            summary = graph.functions[key]
            if not summary.has_fast_branch:
                continue
            context = _context_for(contexts, summary.path)
            if context is None:
                continue
            fast = fast_region_nodes(summary.node)
            scalar = scalar_region_nodes(summary.node)
            own = _own_nodes(summary.node)
            for name, bindings in self._rng_locals(view, summary, own):
                for region, label in ((fast, "fast"), (scalar, "scalar")):
                    if not all(binding in region for binding in bindings):
                        continue
                    for node in own:
                        if (
                            isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)
                            and node.id == name
                            and node not in region
                        ):
                            yield context.finding(
                                self,
                                node,
                                f"RNG stream '{name}' is constructed in "
                                f"the {label} region of the perf.FAST "
                                f"split in '{summary.qualname}' but used "
                                "outside it; the twins must keep "
                                "independent, resynced streams",
                            )
                            break

    @staticmethod
    def _rng_locals(
        view: DataflowView,
        summary: FunctionSummary,
        own: Sequence[ast.AST],
    ) -> List[Tuple[str, List[ast.AST]]]:
        """Locals every one of whose bindings constructs an RNG stream,
        with their binding statements."""
        bindings: Dict[str, List[ast.AST]] = {}
        rng_names: Set[str] = set()
        for node in own:
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1 or not isinstance(
                node.targets[0], ast.Name
            ):
                continue
            name = node.targets[0].id
            bindings.setdefault(name, []).append(node)
            if isinstance(node.value, ast.Call) and (
                is_rng_call(node.value)
                or view.is_keyed_factory_call(summary, node.value)
            ):
                rng_names.add(name)
        return [
            (name, bindings[name])
            for name in sorted(rng_names)
            if all(
                isinstance(binding, ast.Assign)
                and isinstance(binding.value, ast.Call)
                and (
                    is_rng_call(binding.value)
                    or view.is_keyed_factory_call(summary, binding.value)
                )
                for binding in bindings[name]
            )
        ]


class SeedDerivationRule(ProgramRule):
    """Seeds must derive from frozen spec fields, not ambient state."""

    id = "seed-derivation"
    description = (
        "seeds reaching a seeded-RNG factory must derive from frozen "
        "spec fields or parameters, never module counters or loop "
        "indices alone"
    )
    scoped_dirs = frozenset(ENGINE_DIRS | {"experiments"})

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        view = dataflow_view(contexts)
        for site in view.streams:
            if not site.seed_deps:
                continue
            context = _context_for(contexts, site.summary.path)
            if context is None:
                continue
            for dep in sorted(site.seed_deps, key=lambda d: d.render()):
                if dep.kind != "global":
                    continue
                owner = _module_for(view.graph, dep.module)
                if owner is None:
                    continue
                var = owner.globals.get(dep.name)
                if (
                    var is not None
                    and var.rebound
                    and not var.is_lock
                    and not var.is_cache
                ):
                    yield context.finding(
                        self,
                        site.node,
                        f"seed for the RNG stream in "
                        f"'{site.summary.qualname}' derives from the "
                        f"rebindable module global '{dep.render()}'; "
                        "module counters make streams depend on call "
                        "order — derive seeds from frozen spec fields",
                    )
            if all(dep.kind == "loop" for dep in site.seed_deps):
                indices = ", ".join(
                    sorted(dep.name for dep in site.seed_deps)
                )
                yield context.finding(
                    self,
                    site.node,
                    f"seed for the RNG stream in "
                    f"'{site.summary.qualname}' derives only from loop "
                    f"indices ({indices}); mix in a frozen spec seed so "
                    "distinct sweeps draw distinct streams",
                )


# ---------------------------------------------------------------------------
# Schema fingerprinting


@dataclass(frozen=True)
class SchemaSurface:
    """One serialized surface whose structure is pinned."""

    name: str
    module_suffix: str
    version_module_suffix: str
    version_name: str


SCHEMA_SURFACES: Tuple[SchemaSurface, ...] = (
    SchemaSurface(
        name="service-checkpoint",
        module_suffix="cloud.service",
        version_module_suffix="cloud.service",
        version_name="CHECKPOINT_SCHEMA",
    ),
)


def _find_context_by_suffix(
    contexts: Sequence[FileContext], suffix: str
) -> Optional[FileContext]:
    for context in contexts:
        dotted = module_dotted(context.display_path)
        if dotted == suffix or dotted.endswith("." + suffix):
            return context
    return None


def _module_constant(
    tree: ast.Module, name: str
) -> Tuple[Optional[int], Optional[ast.AST]]:
    for statement in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, int
                ):
                    return value.value, statement
                return None, statement
    return None, None


def _dataclass_fields(tree: ast.Module) -> Dict[str, List[str]]:
    classes: Dict[str, List[str]] = {}
    for statement in tree.body:
        if not isinstance(statement, ast.ClassDef):
            continue
        if not any(
            _decorator_terminal(decorator) == "dataclass"
            for decorator in statement.decorator_list
        ):
            continue
        fields: List[str] = []
        for item in statement.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                fields.append(item.target.id)
        classes[statement.name] = fields
    return classes


def _init_state_attrs(tree: ast.Module, class_name: str) -> List[str]:
    for statement in tree.body:
        if not isinstance(statement, ast.ClassDef):
            continue
        if statement.name != class_name:
            continue
        for item in statement.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ):
                attrs: Set[str] = set()
                for node in ast.walk(item):
                    targets: List[ast.expr] = []
                    if isinstance(node, ast.Assign):
                        targets = list(node.targets)
                    elif isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
                return sorted(attrs)
    return []


def _surface_structure(
    surface: SchemaSurface, context: FileContext
) -> Dict[str, object]:
    tree = context.tree
    if surface.name == "service-checkpoint":
        return {
            "dataclasses": {
                name: fields
                for name, fields in sorted(_dataclass_fields(tree).items())
            },
            "engine_state": _init_state_attrs(tree, "ServiceEngine"),
        }
    raise ValueError(f"unknown schema surface {surface.name!r}")


def _fingerprint(structure: Dict[str, object]) -> str:
    canonical = json.dumps(structure, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _flatten(structure: object, prefix: str = "") -> Set[str]:
    leaves: Set[str] = set()
    if isinstance(structure, dict):
        for key, value in structure.items():
            leaves.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(structure, (list, tuple)):
        for value in structure:
            leaves.update(_flatten(value, prefix))
    else:
        leaves.add(f"{prefix}{structure}")
    return leaves


def compute_schema_surfaces(
    contexts: Sequence[FileContext],
) -> Dict[str, Dict[str, object]]:
    """Structure + fingerprint of every schema surface present in the
    scan (absent surfaces are skipped, so partial scans stay quiet)."""
    surfaces: Dict[str, Dict[str, object]] = {}
    for surface in SCHEMA_SURFACES:
        context = _find_context_by_suffix(contexts, surface.module_suffix)
        version_context = _find_context_by_suffix(
            contexts, surface.version_module_suffix
        )
        if context is None or version_context is None:
            continue
        version, _ = _module_constant(
            version_context.tree, surface.version_name
        )
        structure = _surface_structure(surface, context)
        surfaces[surface.name] = {
            "schema_version": version,
            "fingerprint": _fingerprint(structure),
            "structure": structure,
        }
    return surfaces


def write_schema_pins(
    contexts: Sequence[FileContext], pin_path: Path
) -> Dict[str, Dict[str, object]]:
    """Regenerate ``SCHEMA_FINGERPRINTS.json`` from the scan."""
    surfaces = compute_schema_surfaces(contexts)
    payload = {"version": 1, "surfaces": surfaces}
    pin_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return surfaces


class SchemaDriftRule(ProgramRule):
    """Serialized surfaces change only alongside a version bump."""

    id = "schema-drift"
    description = (
        "a serialized surface (checkpoint dataclasses, engine state) "
        "changed without bumping its version constant and re-pinning "
        "SCHEMA_FINGERPRINTS.json"
    )

    def __init__(self) -> None:
        #: Set by the CLI to ``<root>/SCHEMA_FINGERPRINTS.json``; the
        #: default resolves against the working directory.
        self.pin_path: Optional[Path] = None

    def _load_pins(self) -> Optional[Dict[str, Dict[str, object]]]:
        path = self.pin_path or Path(SCHEMA_PIN_FILENAME)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        surfaces = payload.get("surfaces")
        if not isinstance(surfaces, dict):
            return None
        pins: Dict[str, Dict[str, object]] = {}
        for name, entry in surfaces.items():
            if isinstance(name, str) and isinstance(entry, dict):
                pins[name] = {str(key): value for key, value in entry.items()}
        return pins

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        current = compute_schema_surfaces(contexts)
        if not current:
            return
        pinned = self._load_pins()
        for name in sorted(current):
            surface = next(
                item for item in SCHEMA_SURFACES if item.name == name
            )
            context = _find_context_by_suffix(
                contexts, surface.module_suffix
            )
            if context is None:
                continue
            version_context = _find_context_by_suffix(
                contexts, surface.version_module_suffix
            )
            anchor: ast.AST = context.tree
            if version_context is context:
                _, version_node = _module_constant(
                    context.tree, surface.version_name
                )
                if version_node is not None:
                    anchor = version_node
            entry = current[name]
            pin = pinned.get(name) if pinned is not None else None
            if pin is None:
                yield context.finding(
                    self,
                    anchor,
                    f"serialized surface '{name}' has no pinned "
                    f"fingerprint; run `repro lint --update-schema` and "
                    f"commit {SCHEMA_PIN_FILENAME}",
                )
                continue
            if entry["fingerprint"] == pin.get("fingerprint"):
                if entry["schema_version"] != pin.get("schema_version"):
                    yield context.finding(
                        self,
                        anchor,
                        f"surface '{name}' pins schema_version "
                        f"{pin.get('schema_version')} but the module "
                        f"declares {entry['schema_version']}; re-pin with "
                        "`repro lint --update-schema`",
                    )
                continue
            added, removed = self._structure_diff(
                pin.get("structure"), entry["structure"]
            )
            detail = "; ".join(
                part
                for part in (
                    f"added {', '.join(added)}" if added else "",
                    f"removed {', '.join(removed)}" if removed else "",
                )
                if part
            )
            if entry["schema_version"] == pin.get("schema_version"):
                yield context.finding(
                    self,
                    anchor,
                    f"serialized surface '{name}' changed "
                    f"({detail or 'structure differs'}) without bumping "
                    f"{surface.version_name}; bump it and re-pin with "
                    "`repro lint --update-schema`",
                )
            else:
                yield context.finding(
                    self,
                    anchor,
                    f"serialized surface '{name}' changed with a "
                    f"{surface.version_name} bump; refresh "
                    f"{SCHEMA_PIN_FILENAME} with "
                    "`repro lint --update-schema`",
                )

    @staticmethod
    def _structure_diff(
        old: object, new: object
    ) -> Tuple[List[str], List[str]]:
        old_leaves = _flatten(old) if isinstance(old, dict) else set()
        new_leaves = _flatten(new) if isinstance(new, dict) else set()
        added = sorted(new_leaves - old_leaves)[:4]
        removed = sorted(old_leaves - new_leaves)[:4]
        return added, removed


# ---------------------------------------------------------------------------
# Report


def dataflow_report(contexts: Sequence[FileContext]) -> Dict[str, object]:
    """Evidence tables behind the dataflow rules.

    ``caches`` — one row per memoized/cached function: the key's
    dependence set next to the parameter/global read set, and whatever
    the rules flagged as missing.  ``streams`` — one row per RNG-stream
    construction: seed provenance and the calls the stream flows into.
    ``schema`` — current surface fingerprints.  All rows are sorted, so
    the JSON form is byte-stable for CI artifacts.
    """
    view = dataflow_view(contexts)
    caches: List[Dict[str, object]] = []
    for site in view.caches:
        caches.append(
            {
                "function": site.summary.qualname,
                "path": site.summary.path,
                "line": getattr(site.anchor, "lineno", 1),
                "container": site.container,
                "kind": site.kind,
                "key": sorted(
                    dep.render()
                    for dep in site.key_deps
                    if dep.kind in {"param", "global"}
                ),
                "reads": list(site.read_params),
                "digest_keyed": site.digest_keyed,
                "missing": list(site.missing),
            }
        )
    caches.sort(key=lambda row: (str(row["path"]), int(str(row["line"]))))
    streams: List[Dict[str, object]] = []
    for site in view.streams:
        streams.append(
            {
                "function": site.summary.qualname,
                "path": site.summary.path,
                "line": getattr(site.node, "lineno", 1),
                "name": site.name,
                "keyed": site.keyed,
                "seed": sorted(dep.render() for dep in site.seed_deps),
                "sinks": list(site.sinks),
                "returned": site.returned,
            }
        )
    streams.sort(key=lambda row: (str(row["path"]), int(str(row["line"]))))
    schema = {
        name: {
            "schema_version": entry["schema_version"],
            "fingerprint": entry["fingerprint"],
        }
        for name, entry in sorted(compute_schema_surfaces(contexts).items())
    }
    return {"caches": caches, "streams": streams, "schema": schema}


RULES: Tuple[Rule, ...] = (
    CacheKeyRule(),
    RngStreamRule(),
    SeedDerivationRule(),
    SchemaDriftRule(),
)
