"""Static hygiene of the package source, checked with the stdlib ast module.

Every module-level import in src/ultralip/*.py (except the package's
__init__, which re-exports) must be used in its module or listed in the
module's __all__.  Every module-level private function or class must be
referenced somewhere in src/ultralip outside its own body.  An import or a
helper left behind by a deletion fails here.  No module imports a private
name from another module of the package, except the few that are shared on
purpose, each listed with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ultralip"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from .a import used, unused, exported, Annotated\n"
        "__all__ = ['exported']\n"
        "def f(x: Annotated) -> None:\n"
        "    return used(x)\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "unused")]


def orphans(sources: dict) -> list:
    """(module, name) of each module-level private function or class that no
    code in the given modules references outside its own definition."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(d for d in defined if d[1] not in referenced)


def test_private_helpers_have_a_caller():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphans(sources) == []


def test_check_sees_orphaned_helpers():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Orphan:\n    pass\n"
            "def _imported():\n    pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": "from .a import _imported\n",
    }
    assert orphans(sources) == [("a.py", "_Orphan"), ("a.py", "_recursive")]


# the private names that a module may import from another, with the reason
SHARED_PRIVATES = {
    "_Parser": "terms is the one reader of literal text",
    "_scalar": "qp_core's normal-form constructor",
    "_fiber_variable": "jacobian's one-variable rule, which the local check shares",
}


def private_imports(source: str) -> list:
    """(line, name) of each private name that the source imports from a
    module of the package, at any depth of its body."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ultralip")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_stay_in_their_module(path):
    imported = private_imports(path.read_text())
    assert [(line, name) for line, name in imported if name not in SHARED_PRIVATES] == []


def test_check_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from fractions import _gcd\n"
        "from .a import public, _private\n"
        "from ultralip.b import _absolute\n"
        "from . import c\n"
        "def f():\n"
        "    from ..d import _nested, __version__\n"
    )
    assert private_imports(source) == [(3, "_private"), (4, "_absolute"), (7, "_nested")]
