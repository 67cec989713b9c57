"""Source hygiene: every imported name is used in the module that imports it.

Each module under src/toricnash and tests is parsed with ast.  A name bound
by an import must be read somewhere in the module, in code or in a quoted
annotation; a mention in a docstring or comment does not count.  The
package __init__ only re-exports, and `from __future__ import annotations`
binds nothing, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.joinpath("src", "toricnash").glob("*.py"), *ROOT.joinpath("tests").glob("*.py")]
    if p.name != "__init__.py"
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    """Names read in tree, including those inside quoted annotations."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= _names(ast.parse(node.value, mode="eval"))
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_flags_only_unused_names():
    source = (
        '"""Uses itertools in a docstring only."""\n'
        "from __future__ import annotations\n"
        "import itertools, os.path\n"
        "import sys as system\n"
        "from typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> Sequence: return system.argv\n"
    )
    assert unused_imports(source) == ["line 3: itertools", "line 3: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
