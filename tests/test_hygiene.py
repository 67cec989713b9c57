"""Source hygiene: every imported name is used in the module that imports it,
and every third-party module the tests import is declared.

Each module under src/toricnash and tests is parsed with ast.  A name bound
by an import must be read somewhere in the module, in code or in a quoted
annotation; a mention in a docstring or comment does not count.  The
package __init__ only re-exports, and `from __future__ import annotations`
binds nothing, so both are exempt.  A top-level module imported under
tests/ that is neither in the standard library nor the package or the
suite's own helpers must be named in the `test` extra of pyproject.toml.
A private module-level function, class or constant in src/toricnash must
be read somewhere in src/ outside its own definition.  The benchmark's tracer (bench/tracer.py) wraps package functions by name,
so every name in its TRACED table must still resolve.  Every EXIT_* code of
the CLI has a row in the README's exit-code table, and the table has no other.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
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


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _references(tree: ast.AST) -> set[str]:
    """Names read in tree, as in _names, plus attribute and imported names."""
    out = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for every private module-level def, class or constant that
    no top-level statement of any source reads, its own definition aside."""
    parsed = [(module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body]
    refs = [_references(stmt) for _, stmt in parsed]
    dead = []
    for i, (module, stmt) in enumerate(parsed):
        for name in _defined_names(stmt):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for j, r in enumerate(refs) if j != i):
                dead.append(f"{module}:{name}")
    return dead


def test_dead_private_detector():
    sources = {
        "a": (
            '"""Mentions _in_docstring only here."""\n'
            "import b\n"
            "from b import _imported\n"
            "_CONST = 3\n"
            "_unused: int = 4\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _in_docstring(): pass\n"
            "def _called(): return b._by_attribute() + _CONST\n"
            "class _Annotated: pass\n"
            "def public(x: '_Annotated') -> int: return _called()\n"
            "def unused_public(): pass\n"
        ),
        "b": "def _by_attribute(): return 1\n_imported = 2\n_dead = 5\n",
    }
    assert dead_private_names(sources) == [
        "a:_unused",
        "a:_recursive",
        "a:_in_docstring",
        "b:_dead",
    ]


def test_no_dead_private_names():
    src = ROOT.joinpath("src", "toricnash")
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert "cone.py" in sources
    assert dead_private_names(sources) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_third_party_test_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(ROOT.joinpath("pyproject.toml").read_text())["project"]
    # distribution names, compared with import names after normalizing
    declared = {
        re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in project["optional-dependencies"]["test"]
    }
    local = {"toricnash", "helpers", "conftest"}
    imported = set().union(
        *(imported_modules(p.read_text()) for p in ROOT.joinpath("tests").glob("*.py"))
    )
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "sympy" in third_party  # the scan sees the suite's oracle
    assert sorted(third_party - declared) == []


def _bench_tracer(monkeypatch):
    """bench/tracer.py, executed from its file without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracer = _bench_tracer(monkeypatch)
    traced = set()
    for module_name, names in tracer.TRACED.items():
        home = importlib.import_module(f"toricnash.{module_name}")
        for name in names:
            obj = home
            for part in name.split("."):
                assert hasattr(obj, part), f"traced name toricnash.{module_name}.{name} is gone"
                obj = getattr(obj, part)
            assert callable(obj)
            traced.add(f"{module_name}.{name}")
    assert "nash.blowup_step" in traced  # the table was read, not an empty stand-in
    assert set(tracer.OBSERVED) <= traced
    assert {num.rsplit(".", 1)[0] for num, _ in tracer.RATIOS.values()} <= traced


def exit_codes(source: str) -> dict[str, int]:
    """The module-level EXIT_* integer constants of source."""
    out = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            for t in stmt.targets:
                if isinstance(t, ast.Name) and t.id.startswith("EXIT_"):
                    out[t.id] = stmt.value.value
    return out


def documented_exit_codes(readme: str) -> list[int]:
    """The codes in the first column of the table under the README's "Exit codes" heading."""
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    return [int(m) for m in re.findall(r"^\|\s*(\d+)\s*\|", section, flags=re.M)]


def test_every_exit_code_is_documented():
    codes = exit_codes(ROOT.joinpath("src", "toricnash", "cli.py").read_text())
    assert {"EXIT_OK", "EXIT_RESOURCE"} <= set(codes)  # the constants were read
    documented = documented_exit_codes(ROOT.joinpath("README.md").read_text())
    assert len(documented) == len(set(documented))
    assert sorted(documented) == sorted(set(codes.values()))
