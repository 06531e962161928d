"""Core of the ``repro lint`` framework: findings, rules, file scanning.

The framework is deliberately small and stdlib-only.  A :class:`Rule`
inspects one parsed file (a :class:`FileContext`) and yields
:class:`Finding` objects; the runner walks a set of paths, parses each
``.py`` file once, annotates the AST with parent links, and hands the
context to every registered rule.

Two cross-cutting mechanisms live here:

* **Pragmas** — a finding on a line whose source contains
  ``lint: allow(<rule-id>)`` is suppressed at the source.  This is the
  *sentinel allowlist*: intentional violations (e.g. the exact
  ``refs == 0.0`` guards in ``sim/perfmodel.py``) carry an inline,
  reviewable justification instead of an entry in an opaque side file.
* **Scoping** — a rule may declare ``scoped_dirs``; it then only runs on
  files having one of those directory names on their path.  The
  determinism rules use this to patrol ``sim/``, ``runtime/`` and
  ``baselines/`` — the engine code whose outputs must be bit-stable —
  without outlawing wall clocks in benchmark timing code.
"""

from __future__ import annotations

import ast
import re
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

_PRAGMA_PATTERN = re.compile(r"lint:\s*allow\(([a-z0-9_,\s-]+)\)")

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    snippet: str

    @property
    def sort_key(self) -> "tuple[str, int, int, str]":
        return (self.path, self.line, self.column, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: [{self.rule}] {self.message}"


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` and :attr:`description`, optionally
    restrict themselves with :attr:`scoped_dirs`, and implement
    :meth:`check`.
    """

    id: str = ""
    description: str = ""
    #: Directory names (path components) this rule is limited to; ``None``
    #: means the rule runs on every scanned file.
    scoped_dirs: Optional[FrozenSet[str]] = None
    #: Program rules see every scanned file at once (set by
    #: :class:`ProgramRule`); the per-file runner skips them.
    whole_program: bool = False

    @property
    def scope_label(self) -> str:
        """Where the rule runs, for ``repro lint --rules`` listings.

        Subclasses may override (the hot-path rules report
        ``hot-set``).
        """
        if self.scoped_dirs:
            return "engine-dirs(" + ",".join(sorted(self.scoped_dirs)) + ")"
        return "repo-wide"

    def applies_to(self, context: "FileContext") -> bool:
        if self.scoped_dirs is None:
            return True
        return bool(self.scoped_dirs.intersection(context.path_parts))

    def check(self, context: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError


class ProgramRule(Rule):
    """A rule that needs the whole scanned file set at once.

    Per-file rules cannot see across modules, but the shared-state
    effect rules must follow calls from a worker entrypoint in
    ``experiments/`` into a global write in ``sim/``.  A
    :class:`ProgramRule` therefore implements :meth:`check_program`
    over every parsed file of the scan; pragma suppression is applied
    afterwards by the runner, exactly as for per-file findings.
    """

    whole_program = True

    def check(self, context: "FileContext") -> Iterator[Finding]:
        # Program rules never run per-file; the runner routes them to
        # check_program with the full context list instead.
        return iter(())

    def check_program(
        self, contexts: Sequence["FileContext"]
    ) -> Iterator[Finding]:
        raise NotImplementedError


class FileContext:
    """One parsed source file, shared by every rule."""

    def __init__(self, display_path: str, source: str) -> None:
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source)
        self.path_parts: FrozenSet[str] = frozenset(
            Path(display_path).parts[:-1]
        )
        annotate_parents(self.tree)
        self._allowed: Dict[int, FrozenSet[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _PRAGMA_PATTERN.search(text)
            if match:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",")
                )
                self._allowed[number] = rules

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def is_allowed(self, rule_id: str, line: int) -> bool:
        """Whether a ``lint: allow(...)`` pragma covers this finding."""
        rules = self._allowed.get(line)
        return rules is not None and rule_id in rules

    def finding(
        self, rule: Rule, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.display_path,
            line=line,
            column=column,
            rule=rule.id,
            message=message,
            snippet=self.line_text(line),
        )


def annotate_parents(tree: ast.AST) -> None:
    """Attach a ``.parent`` attribute to every node in the tree."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child.parent = parent  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    parent = getattr(node, "parent", None)
    return parent if isinstance(parent, ast.AST) else None


_T = TypeVar("_T")

#: Per-scan derived-analysis memo.  Whole-program rules all need the
#: same expensive artifacts (the call graph, the hot-set view) over the
#: same ``Sequence[FileContext]``; keying the memo weakly on the first
#: context ties each cached artifact to the lifetime of its scan
#: without keeping dead scans alive.  Entries verify the *full* context
#: tuple by identity, so two scans that merely share a first file never
#: alias.
_SHARED_ANALYSES: "weakref.WeakKeyDictionary[FileContext, Dict[str, Tuple[Tuple[FileContext, ...], object]]]" = (
    weakref.WeakKeyDictionary()
)


def shared_analysis(
    contexts: Sequence["FileContext"],
    kind: str,
    build: Callable[[Sequence["FileContext"]], _T],
) -> _T:
    """Build-once-per-scan memo for whole-program analysis artifacts.

    ``kind`` namespaces independent artifacts ("graph", "hot") over the
    same scan.  The memo is identity-based: the cached value is reused
    only when the incoming context sequence is element-for-element the
    same objects as the one that built it.
    """
    if not contexts:
        return build(contexts)
    anchor = contexts[0]
    incoming = tuple(contexts)
    slots = _SHARED_ANALYSES.setdefault(anchor, {})
    hit = slots.get(kind)
    if hit is not None:
        cached_contexts, value = hit
        if len(cached_contexts) == len(incoming) and all(
            cached is context
            for cached, context in zip(cached_contexts, incoming)
        ):
            return value  # type: ignore[return-value]
    built = build(contexts)
    slots[kind] = (incoming, built)
    return built


def walk_functions(tree: ast.AST) -> Iterator[FunctionNode]:
    """Every function/method definition in the tree, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check_file(
    context: FileContext,
    rules: Iterable[Rule],
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Run ``rules`` over one parsed file, honouring scopes and pragmas.

    Program rules are skipped here — they need the full file set; see
    :func:`check_program`.  When ``suppressed`` is given, every finding
    a ``# lint: allow(...)`` pragma swallowed increments its rule's
    entry — the JSON report surfaces those counts so suppressions stay
    visible instead of silently vanishing.
    """
    findings: List[Finding] = []
    for rule in rules:
        if rule.whole_program or not rule.applies_to(context):
            continue
        for finding in rule.check(context):
            if context.is_allowed(finding.rule, finding.line):
                if suppressed is not None:
                    suppressed[finding.rule] = (
                        suppressed.get(finding.rule, 0) + 1
                    )
                continue
            findings.append(finding)
    return findings


def check_program(
    contexts: Sequence[FileContext],
    rules: Iterable[Rule],
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Run every :class:`ProgramRule` over the whole scanned file set.

    Pragma suppression and ``scoped_dirs`` filtering are applied per
    finding, against the file the finding landed in — the same
    semantics per-file rules get from :func:`check_file` (including the
    optional ``suppressed`` pragma counters).
    """
    by_path: Dict[str, FileContext] = {
        context.display_path: context for context in contexts
    }
    findings: List[Finding] = []
    for rule in rules:
        if not isinstance(rule, ProgramRule):
            continue
        for finding in rule.check_program(contexts):
            context = by_path.get(finding.path)
            if context is None:
                continue
            if rule.scoped_dirs is not None and not rule.applies_to(context):
                continue
            if context.is_allowed(finding.rule, finding.line):
                if suppressed is not None:
                    suppressed[finding.rule] = (
                        suppressed.get(finding.rule, 0) + 1
                    )
                continue
            findings.append(finding)
    return findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    The walk itself is deterministic (sorted recursion) so the lint's
    own output obeys the discipline it enforces.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def load_contexts(
    paths: Iterable[Path],
    root: Optional[Path] = None,
) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every Python file under ``paths`` into contexts.

    ``root`` anchors the repo-relative display paths; it defaults to
    the current directory.  Files with syntax errors produce a single
    ``parse-error`` finding rather than aborting the scan, returned
    alongside the parsed contexts.
    """
    anchor = (root or Path.cwd()).resolve()
    contexts: List[FileContext] = []
    errors: List[Finding] = []
    for file_path in iter_python_files(paths):
        resolved = file_path.resolve()
        try:
            display = resolved.relative_to(anchor).as_posix()
        except ValueError:
            display = resolved.as_posix()
        source = resolved.read_text(encoding="utf-8")
        try:
            contexts.append(FileContext(display, source))
        except SyntaxError as error:
            errors.append(
                Finding(
                    path=display,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    rule="parse-error",
                    message=f"file does not parse: {error.msg}",
                    snippet="",
                )
            )
    return contexts, errors


def scan_paths(
    paths: Iterable[Path],
    rules: Iterable[Rule],
    root: Optional[Path] = None,
    suppressed: Optional[Dict[str, int]] = None,
) -> List[Finding]:
    """Lint every Python file under ``paths`` with ``rules``.

    ``suppressed`` collects per-rule pragma-suppression counts (see
    :func:`check_file`).
    """
    rule_list = list(rules)
    contexts, findings = load_contexts(paths, root=root)
    for context in contexts:
        findings.extend(check_file(context, rule_list, suppressed))
    findings.extend(check_program(contexts, rule_list, suppressed))
    findings.sort(key=lambda finding: finding.sort_key)
    return findings
