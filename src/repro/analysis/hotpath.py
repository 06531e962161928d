"""Hot-path performance rules: the complexity tier of ``repro lint``.

The engine's headline wins (provider loop ~20x, cycle tier ~13x) had
no guard that held them
statically: the O(n^2) ``list.pop(0)`` arrival drain fixed in PR 3 and
the per-cycle ``sorted(...)`` window scan removed in PR 4 are exactly
the regressions a future PR could silently reintroduce.  This module
closes that gap with an interprocedural *hotness* analysis on top of
the PR 5 call graph, plus four rules that only fire inside the hot set.

**The hot set.**  A function is *hot* when it is reachable on the call
graph from a FAST engine entrypoint (:data:`HOT_ENTRYPOINTS` — the
sweep workers, the batch cycle tier, the closed-list provider, the
always-on service loop and its traffic generator, the trace
generator's column path, the operating-point table lookup) or
from any function containing a ``perf.FAST`` split.  Two exemptions
keep the scalar references out by construction:

* reachability does not follow call edges that occur only inside the
  scalar-twin region of a ``perf.FAST`` split (the call graph records
  these as :attr:`FunctionSummary.scalar_only_calls`);
* functions following the ``*_reference`` naming protocol — the
  engine's scalar twins — are never hot and are not traversed, even
  when a fast path falls back to them on irregular inputs.

The scalar *branch* of a FAST split inside an otherwise-hot function is
likewise skipped finding-by-finding: the reference twin is supposed to
be the slow, recompute-everything baseline.

**The rules** (all scoped to the hot set, all pragma-able with
``# lint: allow(<rule>)``):

``quadratic-listop``
    ``list.pop(0)`` / ``list.insert(0, ...)`` / ``in``-membership
    against a list / list ``+=``-concatenation inside a loop — each
    O(n) per iteration, O(n^2) for the loop.  The PR 3 arrival-drain
    regression in one rule.
``loop-invariant``
    ``sorted()`` or ``re.compile()`` anywhere inside a hot loop (the
    PR 4 per-cycle window-scan regression), ``min``/``max`` over a
    provably loop-constant iterable, and constant attribute chains
    re-traversed every iteration.
``numpy-scalar-loop``
    Element-wise Python iteration over an ndarray in a hot function —
    the static complement of the ROADMAP's struct-of-arrays batch-tier
    item: hot array code should be vectorized, not looped.
``hot-alloc``
    Object construction (any scanned class, dataclasses included) or
    list/set/dict-comprehension allocation in the innermost loop of a
    doubly-nested hot region, where per-iteration allocation dominates.

:func:`hot_report` ranks the hot set by ``loop depth x live findings``
for the ``repro lint --hot-report`` cost report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
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
    LOOP_NODES,
    FunctionSummary,
    ProgramGraph,
    _terminal_name,
    scalar_region_nodes,
    shared_graph,
)
from repro.analysis.core import (
    FileContext,
    Finding,
    ProgramRule,
    parent_of,
    shared_analysis,
)

#: (dotted-module suffix, qualname) pairs naming the FAST engine
#: entrypoints.  A scanned function is an entrypoint when its qualname
#: matches and its module equals — or dotted-suffix-matches — the
#: entry, so synthetic test trees (``pkg.cloud.provider``) classify the
#: same way as the real ``repro.cloud.provider``.
HOT_ENTRYPOINTS: Tuple[Tuple[str, str], ...] = (
    ("experiments.stats", "run_cell"),
    ("experiments.stats", "run_cells"),
    ("sim.batchpipe", "run_batch"),
    ("cloud.provider", "CloudProvider.run"),
    ("cloud.service", "ServiceEngine.run"),
    ("cloud.service", "ServiceEngine._run_event_driven"),
    ("cloud.traffic", "generate_traffic"),
    ("sim.trace", "TraceGenerator.generate_arrays"),
    ("sim.optables", "operating_point_table"),
)

#: Call-expression names that produce a plain list.
_LIST_FACTORIES: FrozenSet[str] = frozenset({"list", "sorted"})

#: ``np.<factory>(...)`` / ``numpy.<factory>(...)`` attributes (and
#: ``from numpy import <factory>`` names) whose result is an ndarray.
_NDARRAY_FACTORIES: FrozenSet[str] = frozenset(
    {
        "arange",
        "array",
        "asarray",
        "asanyarray",
        "concatenate",
        "empty",
        "frombuffer",
        "full",
        "linspace",
        "ones",
        "stack",
        "zeros",
    }
)

_NUMPY_MODULES: FrozenSet[str] = frozenset({"np", "numpy"})


def is_entrypoint(summary: FunctionSummary) -> bool:
    """Whether a function matches one of :data:`HOT_ENTRYPOINTS`."""
    for module, qualname in HOT_ENTRYPOINTS:
        if summary.qualname != qualname:
            continue
        if summary.module == module or summary.module.endswith("." + module):
            return True
    return False


def is_scalar_reference(summary: FunctionSummary) -> bool:
    """The ``*_reference`` naming protocol for scalar twins.

    Fast paths may *call* their reference twin outside any FAST split
    (the batch tier's no-compiler fallback reaches
    ``MultiSlicePipeline._run_reference`` through ``run``), so
    branch-position alone cannot exempt the twins; the suffix does.
    """
    return summary.name.endswith("_reference")


@dataclass
class HotView:
    """The scan-wide hotness analysis every hot-path rule shares."""

    graph: ProgramGraph
    hot: Dict[str, str]
    """Hot function key -> key of the entrypoint/root that reached it."""
    scalar_nodes: Dict[str, Set[ast.AST]]
    """Hot function key -> AST nodes inside its scalar-twin regions."""


def _build_hot_view(contexts: Sequence[FileContext]) -> HotView:
    graph = shared_graph(contexts)
    roots = [
        key
        for key, summary in graph.functions.items()
        if (is_entrypoint(summary) or summary.has_fast_branch)
        and not is_scalar_reference(summary)
    ]
    # BFS in sorted-root order (deterministic, like
    # ProgramGraph.reachable_from) that additionally refuses to enter
    # *_reference functions and to follow scalar-only call edges.
    hot: Dict[str, str] = {}
    queue: List[Tuple[str, str]] = []
    for root in sorted(roots):
        if root not in hot:
            hot[root] = root
            queue.append((root, root))
    while queue:
        key, root = queue.pop(0)
        summary = graph.functions[key]
        for target in summary.calls:
            if target in summary.scalar_only_calls:
                continue
            callee = graph.resolve(target)
            if callee is None or callee in hot:
                continue
            if is_scalar_reference(graph.functions[callee]):
                continue
            hot[callee] = root
            queue.append((callee, root))
    scalar_nodes = {
        key: scalar_region_nodes(graph.functions[key].node) for key in hot
    }
    return HotView(graph=graph, hot=hot, scalar_nodes=scalar_nodes)


def hot_view(contexts: Sequence[FileContext]) -> HotView:
    """The (memoized) :class:`HotView` for one scan's context list."""
    return shared_analysis(contexts, "hot", _build_hot_view)


def _site_loop_stack(
    node: ast.AST, frame: ast.AST
) -> Tuple[ast.AST, ...]:
    """Loops lexically enclosing ``node`` within ``frame``, outer first.

    Counting is lexical: the stack crosses nested ``def`` boundaries,
    so a closure body defined inside a hot loop reports that loop.
    """
    loops: List[ast.AST] = []
    current = parent_of(node)
    while current is not None and current is not frame:
        if isinstance(current, LOOP_NODES):
            loops.append(current)
        current = parent_of(current)
    loops.reverse()
    return tuple(loops)


def _names_assigned_in(loop: ast.AST) -> FrozenSet[str]:
    """Names (re)bound or mutated in place anywhere inside ``loop``."""
    names: Set[str] = set()
    for child in ast.walk(loop):
        if isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            names.add(child.id)
        elif isinstance(child, ast.Call) and isinstance(
            child.func, ast.Attribute
        ):
            # Conservatively treat any method call as potentially
            # mutating its receiver: x.append(...), arr.sort(), ...
            receiver = child.func.value
            if isinstance(receiver, ast.Name):
                names.add(receiver.id)
        elif isinstance(child, (ast.Subscript, ast.Attribute)) and isinstance(
            getattr(child, "ctx", None), (ast.Store, ast.Del)
        ):
            root: ast.expr = child
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name):
                names.add(root.id)
    return frozenset(names)


def _loop_invariant(expr: ast.expr, assigned: FrozenSet[str]) -> bool:
    """Whether ``expr`` provably evaluates the same on every iteration.

    Conservative: any call (impure for all we know) or any name bound
    inside the loop makes the expression non-invariant; lambdas are
    opaque and also disqualify.
    """
    for child in ast.walk(expr):
        if isinstance(child, (ast.Call, ast.Lambda, ast.Await)):
            return False
        if (
            isinstance(child, ast.Name)
            and isinstance(child.ctx, ast.Load)
            and child.id in assigned
        ):
            return False
    return True


def _list_bound(name: str, summary: FunctionSummary) -> bool:
    """Whether every recorded binding of ``name`` produces a list."""
    sources = summary.value_sources.get(name)
    if not sources:
        return False
    return all(_is_list_expr(source) for source in sources)


def _is_list_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.List, ast.ListComp)):
        return True
    if isinstance(expr, ast.Call):
        return _terminal_name(expr.func) in _LIST_FACTORIES
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _is_list_expr(expr.left) or _is_list_expr(expr.right)
    return False


def _attribute_chain(
    node: ast.Attribute,
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """(root name, attr path) for a pure ``a.b.c`` load chain."""
    attrs: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        if not isinstance(current.ctx, ast.Load):
            return None
        attrs.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name) or not isinstance(
        current.ctx, ast.Load
    ):
        return None
    attrs.reverse()
    return (current.id, tuple(attrs))


class HotPathRule(ProgramRule):
    """Base for rules that only fire inside the hot set.

    ``check_program`` walks every hot function in deterministic key
    order and delegates to :meth:`check_hot_function`; the per-function
    entry point is public so :func:`hot_report` can count one
    function's live findings without re-running the whole program scan.
    """

    @property
    def scope_label(self) -> str:
        return "hot-set"

    def check_program(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        view = hot_view(contexts)
        by_path = {context.display_path: context for context in contexts}
        for key in sorted(view.hot):
            summary = view.graph.functions[key]
            context = by_path.get(summary.path)
            if context is None:
                continue
            yield from self.check_hot_function(context, summary, view)

    def check_hot_function(
        self,
        context: FileContext,
        summary: FunctionSummary,
        view: HotView,
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def _sites(
        self, summary: FunctionSummary, view: HotView
    ) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
        """(node, enclosing loop stack) for every non-scalar-twin node
        of the hot function that sits inside at least one loop."""
        scalar = view.scalar_nodes.get(summary.key, set())
        for node in ast.walk(summary.node):
            if node is summary.node or node in scalar:
                continue
            stack = _site_loop_stack(node, summary.node)
            if stack:
                yield node, stack


class QuadraticListOpRule(HotPathRule):
    """O(n)-per-iteration list operation inside a hot loop."""

    id = "quadratic-listop"
    description = (
        "list.pop(0)/insert(0, ...)/membership/concatenation inside a "
        "hot loop: O(n) per iteration, quadratic for the loop"
    )

    def check_hot_function(
        self,
        context: FileContext,
        summary: FunctionSummary,
        view: HotView,
    ) -> Iterator[Finding]:
        for node, _stack in self._sites(summary, view):
            if isinstance(node, ast.Call):
                yield from self._check_call(context, summary, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_membership(context, summary, node)
            elif isinstance(node, ast.AugAssign):
                yield from self._check_augmented(context, summary, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_rebind_concat(context, summary, node)

    def _check_call(
        self, context: FileContext, summary: FunctionSummary, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        first = node.args[0] if node.args else None
        front = isinstance(first, ast.Constant) and first.value == 0
        if func.attr == "pop" and front:
            yield context.finding(
                self,
                node,
                (
                    f"'.pop(0)' in a loop of hot function "
                    f"'{summary.qualname}' shifts the whole list every "
                    f"iteration; drain with collections.deque.popleft() "
                    f"or an index cursor"
                ),
            )
        elif func.attr == "insert" and front:
            yield context.finding(
                self,
                node,
                (
                    f"'.insert(0, ...)' in a loop of hot function "
                    f"'{summary.qualname}' shifts the whole list every "
                    f"iteration; use collections.deque.appendleft() or "
                    f"append + single reverse"
                ),
            )

    def _check_membership(
        self,
        context: FileContext,
        summary: FunctionSummary,
        node: ast.Compare,
    ) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for index, operator in enumerate(node.ops):
            if not isinstance(operator, (ast.In, ast.NotIn)):
                continue
            container = operands[index + 1]
            if isinstance(container, ast.Name) and _list_bound(
                container.id, summary
            ):
                yield context.finding(
                    self,
                    node,
                    (
                        f"membership test against list "
                        f"'{container.id}' in a loop of hot function "
                        f"'{summary.qualname}' scans the list every "
                        f"iteration; keep a set alongside"
                    ),
                )

    def _check_augmented(
        self,
        context: FileContext,
        summary: FunctionSummary,
        node: ast.AugAssign,
    ) -> Iterator[Finding]:
        if not isinstance(node.op, ast.Add):
            return
        if not isinstance(node.target, ast.Name):
            return
        if _list_bound(node.target.id, summary) or isinstance(
            node.value, (ast.List, ast.ListComp)
        ):
            yield context.finding(
                self,
                node,
                (
                    f"list concatenation '+=' onto '{node.target.id}' "
                    f"in a loop of hot function '{summary.qualname}'; "
                    f"use .append()/.extend() on a preallocated list"
                ),
            )

    def _check_rebind_concat(
        self,
        context: FileContext,
        summary: FunctionSummary,
        node: ast.Assign,
    ) -> Iterator[Finding]:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = node.value
        if not isinstance(value, ast.BinOp) or not isinstance(
            value.op, ast.Add
        ):
            return
        touches_target = any(
            isinstance(side, ast.Name) and side.id == target.id
            for side in (value.left, value.right)
        )
        if not touches_target:
            return
        other = (
            value.right
            if isinstance(value.left, ast.Name)
            and value.left.id == target.id
            else value.left
        )
        if _list_bound(target.id, summary) or isinstance(
            other, (ast.List, ast.ListComp)
        ):
            yield context.finding(
                self,
                node,
                (
                    f"rebinding concat '{target.id} = {target.id} + ...' "
                    f"in a loop of hot function '{summary.qualname}' "
                    f"copies the whole list every iteration; use "
                    f".append()/.extend()"
                ),
            )


class LoopInvariantRule(HotPathRule):
    """Work redone every iteration that a hoist would do once."""

    id = "loop-invariant"
    description = (
        "sorted()/re.compile() inside a hot loop, min/max over a "
        "loop-constant iterable, or a constant attribute chain "
        "re-traversed every iteration"
    )

    def check_hot_function(
        self,
        context: FileContext,
        summary: FunctionSummary,
        view: HotView,
    ) -> Iterator[Finding]:
        assigned_memo: Dict[ast.AST, FrozenSet[str]] = {}

        def assigned_in(loop: ast.AST) -> FrozenSet[str]:
            cached = assigned_memo.get(loop)
            if cached is None:
                cached = _names_assigned_in(loop)
                assigned_memo[loop] = cached
            return cached

        chain_sites: Dict[
            Tuple[ast.AST, str, Tuple[str, ...]], List[ast.Attribute]
        ] = {}
        for node, stack in self._sites(summary, view):
            innermost = stack[-1]
            if isinstance(node, ast.Call):
                yield from self._check_invariant_call(
                    context, summary, node, assigned_in(innermost)
                )
            elif isinstance(node, ast.Attribute):
                self._collect_chain(
                    node, innermost, assigned_in(innermost), chain_sites
                )
        for site in sorted(
            chain_sites,
            key=lambda item: (
                getattr(chain_sites[item][0], "lineno", 0),
                getattr(chain_sites[item][0], "col_offset", 0),
            ),
        ):
            occurrences = chain_sites[site]
            if len(occurrences) < 2:
                continue
            _loop, root, attrs = site
            dotted = ".".join((root, *attrs))
            yield context.finding(
                self,
                occurrences[0],
                (
                    f"constant attribute chain '{dotted}' traversed "
                    f"{len(occurrences)} times in one loop of hot "
                    f"function '{summary.qualname}'; bind it to a local "
                    f"before the loop"
                ),
            )

    def _check_invariant_call(
        self,
        context: FileContext,
        summary: FunctionSummary,
        node: ast.Call,
        assigned: FrozenSet[str],
    ) -> Iterator[Finding]:
        func = node.func
        name = _terminal_name(func)
        if isinstance(func, ast.Name) and name == "sorted":
            yield context.finding(
                self,
                node,
                (
                    f"'sorted(...)' inside a loop of hot function "
                    f"'{summary.qualname}' re-sorts every iteration; "
                    f"sort once outside the loop or maintain a heap"
                ),
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "compile"
            and isinstance(func.value, ast.Name)
            and func.value.id == "re"
        ):
            yield context.finding(
                self,
                node,
                (
                    f"'re.compile(...)' inside a loop of hot function "
                    f"'{summary.qualname}'; compile once at module "
                    f"scope"
                ),
            )
            return
        if (
            isinstance(func, ast.Name)
            and name in {"min", "max"}
            and len(node.args) == 1
            and _loop_invariant(node.args[0], assigned)
            and all(
                _loop_invariant(keyword.value, assigned)
                for keyword in node.keywords
            )
        ):
            yield context.finding(
                self,
                node,
                (
                    f"'{name}(...)' over a loop-constant iterable inside "
                    f"a loop of hot function '{summary.qualname}'; hoist "
                    f"it above the loop"
                ),
            )

    def _collect_chain(
        self,
        node: ast.Attribute,
        innermost: ast.AST,
        assigned: FrozenSet[str],
        chain_sites: Dict[
            Tuple[ast.AST, str, Tuple[str, ...]], List[ast.Attribute]
        ],
    ) -> None:
        parent = parent_of(node)
        # Only maximal, value-position chains: skip `a.b` inside
        # `a.b.c`, and skip `a.b.c(...)` where the chain is the callee
        # (a bound-method lookup, not a data traversal).
        if isinstance(parent, ast.Attribute):
            return
        if isinstance(parent, ast.Call) and parent.func is node:
            return
        chain = _attribute_chain(node)
        if chain is None:
            return
        root, attrs = chain
        if len(attrs) < 2:
            return
        if root in assigned:
            return
        chain_sites.setdefault((innermost, root, attrs), []).append(node)


class NumpyScalarLoopRule(HotPathRule):
    """Element-wise Python iteration over an ndarray in hot code."""

    id = "numpy-scalar-loop"
    description = (
        "element-wise Python for-loop over an ndarray in a hot "
        "function; vectorize with array operations instead"
    )

    def check_hot_function(
        self,
        context: FileContext,
        summary: FunctionSummary,
        view: HotView,
    ) -> Iterator[Finding]:
        arrays = self._ndarray_names(summary, view)
        if not arrays:
            return
        scalar = view.scalar_nodes.get(summary.key, set())
        for node in ast.walk(summary.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if node in scalar:
                continue
            name = self._iterated_array(node.iter, arrays)
            if name is None:
                continue
            yield context.finding(
                self,
                node,
                (
                    f"element-wise Python loop over ndarray '{name}' in "
                    f"hot function '{summary.qualname}'; replace with a "
                    f"vectorized array operation"
                ),
            )

    def _ndarray_names(
        self, summary: FunctionSummary, view: HotView
    ) -> FrozenSet[str]:
        """Local names whose every recorded binding is an ndarray."""
        module = view.graph.modules.get(summary.module)
        numpy_imports: Set[str] = set()
        if module is not None:
            for local, (dotted, original) in module.from_imports.items():
                if dotted in _NUMPY_MODULES and original in _NDARRAY_FACTORIES:
                    numpy_imports.add(local)

        def is_array_expr(expr: ast.expr) -> bool:
            if not isinstance(expr, ast.Call):
                return False
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _NDARRAY_FACTORIES
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_MODULES
            ):
                return True
            return isinstance(func, ast.Name) and func.id in numpy_imports

        names: Set[str] = set()
        for name, sources in summary.value_sources.items():
            if sources and all(is_array_expr(source) for source in sources):
                names.add(name)
        return frozenset(names)

    def _iterated_array(
        self, iterator: ast.expr, arrays: FrozenSet[str]
    ) -> Optional[str]:
        if isinstance(iterator, ast.Name) and iterator.id in arrays:
            return iterator.id
        if not isinstance(iterator, ast.Call):
            return None
        callee = _terminal_name(iterator.func)
        if callee == "enumerate" and iterator.args:
            inner = iterator.args[0]
            if isinstance(inner, ast.Name) and inner.id in arrays:
                return inner.id
        if callee == "range" and len(iterator.args) == 1:
            inner = iterator.args[0]
            if (
                isinstance(inner, ast.Call)
                and _terminal_name(inner.func) == "len"
                and inner.args
                and isinstance(inner.args[0], ast.Name)
                and inner.args[0].id in arrays
            ):
                return inner.args[0].id
        return None


class HotAllocRule(HotPathRule):
    """Per-iteration allocation in the innermost of nested hot loops."""

    id = "hot-alloc"
    description = (
        "object construction or comprehension allocation inside "
        "doubly-nested loops of a hot function; hoist, reuse, or "
        "preallocate"
    )

    def check_hot_function(
        self,
        context: FileContext,
        summary: FunctionSummary,
        view: HotView,
    ) -> Iterator[Finding]:
        class_names = view.graph.class_names()
        for node, stack in self._sites(summary, view):
            if len(stack) < 2:
                continue
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                kind = type(node).__name__
                yield context.finding(
                    self,
                    node,
                    (
                        f"{kind} allocated inside doubly-nested loops of "
                        f"hot function '{summary.qualname}' (depth "
                        f"{len(stack)}); build once outside the inner "
                        f"loop or use a generator"
                    ),
                )
            elif isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name is None or name not in class_names:
                    continue
                yield context.finding(
                    self,
                    node,
                    (
                        f"'{name}(...)' constructed inside doubly-nested "
                        f"loops of hot function '{summary.qualname}' "
                        f"(depth {len(stack)}); hoist the construction "
                        f"or reuse one instance"
                    ),
                )


#: The hot-path rules in reporting order.
HOT_RULES: Tuple[HotPathRule, ...] = (
    QuadraticListOpRule(),
    LoopInvariantRule(),
    NumpyScalarLoopRule(),
    HotAllocRule(),
)

RULES: Tuple[HotPathRule, ...] = HOT_RULES


@dataclass(frozen=True)
class HotReportEntry:
    """One hot function's row in the ``--hot-report`` ranking."""

    qualname: str
    module: str
    path: str
    line: int
    root: str
    depth: int
    findings: int

    @property
    def score(self) -> int:
        return self.depth * self.findings


def hot_report(contexts: Sequence[FileContext]) -> List[HotReportEntry]:
    """Rank hot functions by (loop-nesting depth x live findings).

    *Live* findings are post-pragma: a site carrying
    ``# lint: allow(...)`` is acknowledged debt and does not count
    against the function.  Sort order is score desc, then depth desc,
    then (module, qualname) for stability.
    """
    view = hot_view(contexts)
    by_path = {context.display_path: context for context in contexts}
    entries: List[HotReportEntry] = []
    for key in sorted(view.hot):
        summary = view.graph.functions[key]
        context = by_path.get(summary.path)
        if context is None:
            continue
        live = 0
        for rule in HOT_RULES:
            for finding in rule.check_hot_function(context, summary, view):
                if not context.is_allowed(finding.rule, finding.line):
                    live += 1
        root_summary = view.graph.functions[view.hot[key]]
        entries.append(
            HotReportEntry(
                qualname=summary.qualname,
                module=summary.module,
                path=summary.path,
                line=getattr(summary.node, "lineno", 1),
                root=f"{root_summary.module}.{root_summary.qualname}",
                depth=summary.loop_depth,
                findings=live,
            )
        )
    entries.sort(
        key=lambda entry: (
            -entry.score,
            -entry.depth,
            entry.module,
            entry.qualname,
        )
    )
    return entries
