"""Every ``perf.FAST`` split in the engine is in DESIGN §8's ledger.

A function under ``src/repro`` (outside the lint suite in ``analysis/``)
that branches on the fast-path switch keeps two implementations alive.
DESIGN §8's ledger names each such function with the evidence that its
fast path pays for its twin, so a new split has to arrive with its
evidence, and a deleted one has to leave the ledger.
"""

import ast
import re
from pathlib import Path

from repro.analysis.parity import _mentions_fast

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
LEDGER_HEADING = "### Ledger of the FAST splits"
LEDGER_ROW = re.compile(r"^\| `([\w/]+\.py)::([\w.]+)` \|")


def _split_owners(tree):
    """Qualified names of the functions holding a FAST-gated ``if``
    statement or conditional expression (its innermost enclosing
    function, with its classes)."""
    owners = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.If, ast.IfExp)) and _mentions_fast(
                child.test
            ):
                owners.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return owners


def engine_splits():
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith("analysis/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(f"{relative}::{name}" for name in _split_owners(tree))
    return found


def ledger_entries():
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert LEDGER_HEADING in text, f"DESIGN.md has no {LEDGER_HEADING!r}"
    section = text.split(LEDGER_HEADING, 1)[1].split("\n#", 1)[0]
    entries = []
    for line in section.splitlines():
        match = LEDGER_ROW.match(line)
        if match:
            entries.append(f"{match.group(1)}::{match.group(2)}")
    return entries


class TestFastLedger:
    def test_every_split_is_in_the_ledger_and_nothing_else(self):
        entries = ledger_entries()
        assert len(entries) == len(set(entries)), "a function is listed twice"
        splits = engine_splits()
        assert sorted(splits - set(entries)) == [], "splits without evidence"
        assert sorted(set(entries) - splits) == [], "ledger rows without a split"

    def test_scan_finds_statement_and_expression_splits(self):
        tree = ast.parse(
            "class Engine:\n"
            "    def run(self):\n"
            "        mode = 'event' if perf.FAST else 'dense'\n"
            "        def inner():\n"
            "            if fast_paths_enabled():\n"
            "                return 1\n"
            "            return 0\n"
            "        return mode, inner\n"
            "def plain():\n"
            "    return perf.FAST\n"
        )
        assert _split_owners(tree) == {"Engine.run", "Engine.run.inner"}
