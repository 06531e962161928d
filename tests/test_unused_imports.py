"""Every top-level import under ``src/repro`` is used by its module.

No tool in the checks looks for dead imports (``repro lint`` has no
such rule, and no external linter runs), so they pile up as code
moves.  The check is textual and needs only the standard library: a
top-level import whose bound name appears nowhere else in the module's
text, string annotations included, is unused.  Package ``__init__.py``
files exist to re-export names and are skipped.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _top_level_imports(body):
    """Module-level import statements, also under a module-level
    ``if`` (``TYPE_CHECKING``) or ``try``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _top_level_imports(node.body)
            yield from _top_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _top_level_imports(block)
            for handler in node.handlers:
                yield from _top_level_imports(handler.body)


def unused_imports(text):
    """``(line, name)`` of each top-level import whose bound name the
    rest of ``text`` never mentions."""
    lines = text.splitlines(keepends=True)
    found = []
    for node in _top_level_imports(ast.parse(text).body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        rest = "".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", rest):
                found.append((node.lineno, name))
    return found


def test_no_unused_top_level_imports():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_detector_flags_unused_names_only():
    text = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List as L,\n"
        "    Optional,\n"
        ")\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    pass\n"
        "def f(x: 'Optional[int]') -> L[int]:\n"
        "    # mathematics: a longer word does not count as a use\n"
        "    return [os.path.sep]\n"
    )
    assert unused_imports(text) == [(2, "math"), (4, "Dict"), (10, "np")]
