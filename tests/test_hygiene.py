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
be read somewhere in src/ outside its own definition.  So must a public
module-level function or class, and a public method, unless the benchmark
(bench/*.py) reads it as an attribute; a short allowlist names the
exceptions, each with its reason.  The package exports exactly what the
benchmark reads as `tn.<name>` and the README's library example imports,
plus the error classes, and the README's "The package exports N names"
sentence names each of them once and counts them.  The benchmark's tracer
(bench/tracer.py) wraps package functions by name, so every name in its
TRACED table must still resolve.  Every EXIT_* code of the CLI has a row
in the README's exit-code table, and the table has no other.  A private
attribute `_x` of anything but `self` is assigned only in a module that
declares `_x` in a class's `__slots__`; a short allowlist names the
exceptions, each with its reason.  So does every private name that one
module of src/toricnash imports from another.
"""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from collections import Counter
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


def _reference_counts(tree: ast.AST) -> Counter:
    """How often each name is read in tree, counted as _references counts them."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(_reference_counts(ast.parse(node.value, mode="eval")))
    return out


def _public_definitions(tree: ast.Module):
    """(qualified name, node) for every public module-level function or class
    and every public method of a module-level class; dunders are not public."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for m in stmt.body:
                    if isinstance(m, ast.FunctionDef):
                        yield f"{stmt.name}.{m.name}", m


def dead_public_names(sources: dict[str, str], external: set[str]) -> list[str]:
    """module.name for every public definition that no source reads outside
    the definition itself and that is not in `external`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reference_counts(t) for t in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            name = node.name
            if name.startswith("_") or name in external:
                continue
            if total[name] == _reference_counts(node)[name]:
                dead.append(f"{module}.{qualified}")
    return dead


def test_dead_public_detector():
    sources = {
        "a": (
            '"""Mentions in_docstring only here."""\n'
            "import b\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def in_docstring(): pass\n"
            "def called(): return b.by_attribute()\n"
            "class Kept:\n"
            "    def __init__(self): self.used()\n"
            "    def used(self): return called()\n"
            "    def unused(self): pass\n"
            "    def bench_reads(self): pass\n"
            "def annotated(x: 'Kept') -> int: return 0\n"
        ),
        "b": "def by_attribute(): return 1\nclass _Private:\n    def error(self): pass\n",
    }
    assert dead_public_names(sources, {"bench_reads"}) == [
        "a.recursive",
        "a.in_docstring",
        "a.Kept.unused",
        "a.annotated",
        "b._Private.error",
    ]


def bench_attributes() -> set[str]:
    """Attribute names that bench/*.py reads, and names it imports from the package."""
    out = set()
    for path in ROOT.joinpath("bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toricnash"):
                out.update(alias.name for alias in node.names)
    return out


# public definitions that nothing in src/ reads and the benchmark reads by no attribute
UNREFERENCED_ALLOWED = {
    "exactmath.adjugate": "named in bench/tracer.py's TRACED table",
    "semigroup.AffineSemigroup.saturate": "named in bench/tracer.py's TRACED table",
    "cli._Parser.error": "argparse calls it; the override sets the usage exit code",
}


def test_every_public_definition_has_a_caller():
    src = ROOT.joinpath("src", "toricnash")
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    assert "cone" in sources
    dead = dead_public_names(sources, bench_attributes())
    # an allowlisted name that gains a caller or goes away leaves the list too
    assert sorted(dead) == sorted(UNREFERENCED_ALLOWED)


def _declared_slots(tree: ast.Module) -> set[str]:
    """The names that the module's classes declare in a `__slots__` tuple or list."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    out.update(e.value for e in ast.walk(stmt.value) if isinstance(e, ast.Constant))
    return out


def foreign_private_writes(sources: dict[str, str]) -> list[str]:
    """module.attribute for every assignment, chained or augmented, to a private
    attribute `_x` of an object other than `self`, in a module that declares no
    `_x` in a class's `__slots__`."""
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        own = _declared_slots(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                for a in ast.walk(t):
                    if (
                        isinstance(a, ast.Attribute)
                        and isinstance(a.ctx, ast.Store)
                        and a.attr.startswith("_")
                        and a.attr not in own
                        and not (isinstance(a.value, ast.Name) and a.value.id == "self")
                    ):
                        out.append(f"{module}.{a.attr}")
    return out


def test_foreign_private_write_detector():
    sources = {
        "a": (
            "class A:\n"
            "    __slots__ = ('_own', 'public')\n"
            "    def f(self, other):\n"
            "        self._anything = other._own = 1\n"
            "        other.public = self._read\n"
            "def g(x, y):\n"
            "    x._own += 1\n"
            "    y[x._read] = 2\n"
        ),
        "b": (
            "def h(s, t):\n"
            "    kept = s._cache = s._cache or {}\n"
            "    t._first, t._second = 1, 2\n"
            "    s._count += 1\n"
            "    self = t\n"
            "    self._allowed: int = 3\n"
        ),
    }
    assert foreign_private_writes(sources) == [
        "b._cache", "b._first", "b._second", "b._count",
    ]


# private attributes assigned outside the module that declares them in __slots__
FOREIGN_WRITES_ALLOWED = {
    "nash._steps": (
        "_step keeps one blowup step per characteristic on the source semigroup, and it is "
        "re-read: 22, 212 and 269 reads from 1, 23 and 14 builds when the three corpus graphs "
        "are checked and their cycles verified, 567 reads from 40 builds in one certify bench pass"
    ),
}


def test_private_attributes_are_written_by_the_module_that_declares_them():
    src = ROOT.joinpath("src", "toricnash")
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    assert "semigroup" in sources
    # an allowlisted write that goes away leaves the list too
    assert sorted(foreign_private_writes(sources)) == sorted(FOREIGN_WRITES_ALLOWED)


def foreign_private_imports(sources: dict[str, str]) -> list[str]:
    """'module <- other.name' for every `from .other import _name` in a source."""
    out = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                prefix = f"{node.module}." if node.module else ""
                out += [
                    f"{module} <- {prefix}{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    return out


def test_foreign_private_import_detector():
    sources = {
        "a": (
            "from __future__ import annotations\n"
            "from .b import _hidden, public as _renamed, Public\n"
            "from . import _module\n"
            "from os import _exit\n"
            "import _thread\n"
            "def f():\n"
            "    from .c import (\n"
            "        _late,\n"
            "    )\n"
        ),
        "b": "from .a import f\n_hidden = 1\n",
    }
    assert foreign_private_imports(sources) == ["a <- b._hidden", "a <- _module", "a <- c._late"]


# private names that one module of the package imports from another
FOREIGN_IMPORTS_ALLOWED = {
    "semigroup <- cone._triangulate_rays": (
        "the saturation walks the parallelepiped of each piece of the pulling triangulation "
        "of the cone's extreme rays, which the cone module reads from the facet incidence"
    ),
    "search <- nash._step": (
        "the plain search reads each chart semigroup from the step that vertex_charts "
        "already built and kept on the source, rather than a second copy of its generators"
    ),
}


def test_private_names_are_imported_only_by_their_own_module():
    src = ROOT.joinpath("src", "toricnash")
    sources = {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}
    assert "search" in sources
    # an allowlisted import that goes away leaves the list too
    assert sorted(foreign_private_imports(sources)) == sorted(FOREIGN_IMPORTS_ALLOWED)


def bench_package_names() -> set[str]:
    """The names bench/*.py reads as tn.<name>, tn being the package."""
    out = set()
    for path in ROOT.joinpath("bench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "tn":
                    out.add(node.attr)
    return out


def readme_library_example() -> str:
    """The code block under the README's "Library" heading."""
    section = ROOT.joinpath("README.md").read_text().split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def readme_library_imports() -> set[str]:
    """The names the README's library example imports from the package."""
    return {
        alias.name
        for node in ast.walk(ast.parse(readme_library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "toricnash"
        for alias in node.names
    }


def test_exports_are_what_the_bench_and_the_readme_use():
    import toricnash

    bench, readme = bench_package_names(), readme_library_imports()
    assert "saturation_hilbert_basis" in bench and "blowup_step" in readme  # both were read
    exported = set(toricnash.__all__) - {"__version__"}
    assert bench | readme <= exported
    for name in exported:
        obj = getattr(toricnash, name)
        if not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert name in bench | readme, f"{name} is exported but bench and README do not use it"


def readme_exports(readme: str) -> tuple[int, list[str]]:
    """N and the quoted names of the README's "The package exports N names: ..." sentence."""
    m = re.search(r"^The package exports (\d+) names: ", readme, flags=re.M)
    sentence = readme[m.end():].split("\n\n", 1)[0].split(".  ", 1)[0]
    return int(m.group(1)), re.findall(r"`(\w+)`", sentence)


def test_readme_names_every_export():
    import toricnash

    count, names = readme_exports(ROOT.joinpath("README.md").read_text())
    exported = set(toricnash.__all__) - {"__version__"}
    assert sorted(names) == sorted(exported)
    assert count == len(exported)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the example may write files
    exec(compile(readme_library_example(), "README.md", "exec"), {})


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
