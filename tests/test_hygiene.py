"""Static hygiene of the package source, checked with the stdlib ast module.

Every module-level import in src/ultralip/*.py must be used in its module
or listed in the module's __all__.  Every module-level private function or
class must be referenced somewhere in src/ultralip outside its own body.
An import or a helper left behind by a deletion fails here.  No module
imports a private name from another module of the package, except the few
that are shared on purpose, each listed with its reason.  The modules
import each other without a cycle, and none passes the parser's token
threshold.  Each module, imported alone in a fresh interpreter, loads
exactly the package root and its closure under the import graph: the root
re-exports nothing, so no module is loaded only because another was
imported.  The command line writes to stdout from one place: only
`cli.dispatch` names `print` or `stdout`.  A scalar is built in one place:
qp_core writes the `value` and `context` slots of PadicScalar only inside
its `__init__`.  Every Hypothesis property under tests/ is derandomized,
so each run of the suite draws the same examples.  Every function of
tests/oracles.py is referenced by a test module or by another oracle, so
an oracle left behind by a deletion fails too.  Only jacobian's shift
helper calls terms.taylor_shift, so the Taylor-shift test has one
implementation.
"""

import ast
import graphlib
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import ultralip.syntax as syntax
import ultralip.terms as terms

SRC = Path(__file__).resolve().parents[1] / "src" / "ultralip"
TESTS = Path(__file__).resolve().parent
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


def references(top) -> set:
    """Names that a module-level statement references, as a bare name, an
    attribute or an imported alias, other than the name it defines."""
    own = getattr(top, "name", None)
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names - {own}


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
            referenced |= references(top)
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


def orphaned_oracles(oracle_source: str, test_sources: dict) -> list:
    """Name of each module-level function of the oracle module that no test
    module references, and no other oracle outside its own body."""
    referenced = set()
    for source in [oracle_source, *test_sources.values()]:
        for top in ast.parse(source).body:
            referenced |= references(top)
    return sorted(
        top.name
        for top in ast.parse(oracle_source).body
        if isinstance(top, ast.FunctionDef) and top.name not in referenced
    )


def test_every_oracle_has_a_test():
    tests = {p.name: p.read_text() for p in TESTS.glob("test_*.py")}
    assert orphaned_oracles((TESTS / "oracles.py").read_text(), tests) == []


def test_check_sees_orphaned_oracles():
    oracle_source = (
        "from ultralip.cells import fit_cell\n"
        "def by_test():\n    return fit_cell\n"
        "def by_oracle():\n    pass\n"
        "def caller():\n    return by_oracle()\n"
        "def imported():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def orphan():\n    pass\n"
    )
    tests = {
        "test_a.py": "import oracles\ndef test_x():\n    oracles.by_test()\n    oracles.caller()\n",
        "test_b.py": "from oracles import imported\n",
    }
    assert orphaned_oracles(oracle_source, tests) == ["orphan", "recursive"]


def users(sources: dict, name: str) -> list:
    """(module, definition) of each module-level statement other than an
    import that references `name` (see references); a statement that
    defines nothing is given by its line."""
    return sorted(
        (module, getattr(top, "name", f"line {top.lineno}"))
        for module, source in sources.items()
        for top in ast.parse(source).body
        if not isinstance(top, (ast.Import, ast.ImportFrom)) and name in references(top)
    )


def test_one_helper_shifts_polynomials():
    # the Taylor-shift test and the image it gives have one implementation
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert users(sources, "taylor_shift") == [("jacobian.py", "_shift_image")]


def test_check_sees_every_user():
    sources = {
        "a.py": "__all__ = ['shift']\ndef shift(n):\n    return shift(n - 1)\n",
        "b.py": (
            "from .a import shift\n"
            "from . import a\n"
            "def bare():\n    return shift(0)\n"
            "class Attribute:\n    def method(self):\n        return a.shift(1)\n"
            "alias = shift\n"
            "def nested():\n    def inner():\n        return shift\n"
            "def other():\n    return 'shift'\n"
        ),
    }
    assert users(sources, "shift") == [
        ("b.py", "Attribute"), ("b.py", "bare"), ("b.py", "line 8"), ("b.py", "nested")
    ]


# the private names that a module may import from another, with the reason
SHARED_PRIVATES = {
    "_Parser": "syntax is the one reader of literal text",
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


def import_graph(sources: dict) -> dict:
    """Module -> the package modules it imports with `from .x import`, at any
    depth of its body; `from . import x` counts as an import of x."""
    graph = {}
    for module, source in sources.items():
        deps = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else (a.name for a in node.names))
        graph[module] = deps
    return graph


def test_import_graph_is_acyclic():
    graph = import_graph({p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert list(graphlib.TopologicalSorter(graph).static_order())


def test_check_sees_import_cycles():
    graph = import_graph({"a": "from .b import f\n", "b": "def g():\n    from . import a\n"})
    assert graph == {"a": {"b"}, "b": {"a"}}
    with pytest.raises(graphlib.CycleError):
        list(graphlib.TopologicalSorter(graph).static_order())


def closure(graph: dict, module: str) -> set:
    """module and every module it reaches in the import graph."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def loaded_alone(root: Path, package: str, module: str) -> set:
    """Names of the package's modules that a fresh interpreter holds after
    importing package.module alone, with root as the only added path."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"import {package}.{module}\n"
        f"print(*(n for n in sys.modules if n.partition('.')[0] == {package!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-W", "error", "-c", code, str(root)],
        capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_imported_alone_loads_its_import_closure(path):
    graph = import_graph({p.stem: p.read_text() for p in MODULES})
    expected = {"ultralip"} | {f"ultralip.{m}" for m in closure(graph, path.stem)}
    assert loaded_alone(SRC.parent, "ultralip", path.stem) == expected


def test_check_sees_modules_loaded_by_the_package_root(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .b import g\n")
    (package / "a.py").write_text("def f():\n    pass\n")
    (package / "b.py").write_text("from .a import f\ng = f\n")
    (package / "c.py").write_text("")
    graph = import_graph({p.stem: p.read_text() for p in package.glob("[!_]*.py")})
    assert closure(graph, "a") == {"a"} and closure(graph, "b") == {"a", "b"}
    assert loaded_alone(tmp_path, "pkg", "a") == {"pkg", "pkg.a", "pkg.b"}
    assert loaded_alone(tmp_path, "pkg", "c") == {"pkg", "pkg.a", "pkg.b", "pkg.c"}


def output_outside(source: str, owner: str) -> list:
    """Line of each use of `print` or of a `stdout` attribute in the source
    outside the module-level function `owner`."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == owner
        for node in ast.walk(top)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.Name) and node.id == "print")
            or (isinstance(node, ast.Attribute) and node.attr == "stdout")
        )
    )


def test_the_cli_prints_only_in_dispatch():
    assert output_outside((SRC / "cli.py").read_text(), "dispatch") == []


def test_check_sees_output_outside_dispatch():
    source = (
        "import sys\n"
        "def _cmd(args):\n"
        "    print(args)\n"
        "    return 0, {}, ''\n"
        "def dispatch(argv):\n"
        "    print(argv, file=sys.stderr)\n"
        "    sys.stdout.write('')\n"
        "def helper(text):\n"
        "    def inner():\n"
        "        emit = print\n"
        "    sys.stdout.write(text)\n"
    )
    assert output_outside(source, "dispatch") == [3, 10, 11]


SCALAR_SLOTS = ("value", "context")


def slot_writes(source: str, cls: str, slots=SCALAR_SLOTS) -> list:
    """Line of each write of one of the slots outside `cls.__init__`: a call
    of a slot's descriptor `__set__`, directly or through a module-level
    alias, or an `object.__setattr__` or `setattr` that names the slot.  (A
    plain assignment meets the class's frozen `__setattr__`.)"""
    tree = ast.parse(source)

    def is_setter(node) -> bool:
        # <anything>.__dict__["<slot>"].__set__
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__set__"
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.slice, ast.Constant)
            and node.value.slice.value in slots
        )

    aliases = {
        target.id
        for top in tree.body
        if isinstance(top, ast.Assign) and is_setter(top.value)
        for target in top.targets
        if isinstance(target, ast.Name)
    }
    inside = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == cls
        for method in top.body
        if isinstance(method, ast.FunctionDef) and method.name == "__init__"
        for node in ast.walk(method)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        named = (
            len(args) > 1
            and isinstance(args[1], ast.Constant)
            and args[1].value in slots
            and (
                (isinstance(func, ast.Name) and func.id == "setattr")
                or (isinstance(func, ast.Attribute) and func.attr == "__setattr__")
            )
        )
        if named or is_setter(func) or (isinstance(func, ast.Name) and func.id in aliases):
            lines.append(node.lineno)
    return sorted(lines)


def test_a_scalar_is_built_only_by_its_constructor():
    assert slot_writes((SRC / "qp_core.py").read_text(), "PadicScalar") == []


def test_check_sees_slot_writes_outside_init():
    source = (
        "class PadicScalar:\n"
        "    __slots__ = ('value', 'context', '_ord')\n"
        "    def __init__(self, value, context):\n"
        "        _set_value(self, value)\n"
        "        object.__setattr__(self, 'context', context)\n"
        "    def ord(self):\n"
        "        _set_ord(self, 0)\n"
        "        object.__setattr__(self, '_ord', 0)\n"
        "    def __neg__(self):\n"
        "        s = object.__new__(PadicScalar)\n"
        "        _set_value(s, -self.value)\n"
        "        object.__setattr__(s, 'context', self.context)\n"
        "        return s\n"
        "_set_value = PadicScalar.__dict__['value'].__set__\n"
        "_set_ord = PadicScalar.__dict__['_ord'].__set__\n"
        "def _scalar(value, context):\n"
        "    s = object.__new__(PadicScalar)\n"
        "    PadicScalar.__dict__['context'].__set__(s, context)\n"
        "    setattr(s, 'value', value)\n"
        "    return s\n"
    )
    assert slot_writes(source, "PadicScalar") == [11, 12, 18, 19]


def _is_named(node, name: str) -> bool:
    """Whether node names `name`, bare or as an attribute (hypothesis.given)."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _derandomizes(node) -> bool:
    """Whether node is a call settings(..., derandomize=True, ...)."""
    return (
        isinstance(node, ast.Call)
        and _is_named(node.func, "settings")
        and any(
            k.arg == "derandomize" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords
        )
    )


def random_properties(source: str) -> list:
    """Name of each @given test, in source order, that no decorator
    derandomizes: neither its own @settings(derandomize=True, ...) nor a
    module-level settings object built so, such as `seeded`."""
    tree = ast.parse(source)
    seeded = {
        target.id
        for top in tree.body
        if isinstance(top, ast.Assign) and _derandomizes(top.value)
        for target in top.targets
        if isinstance(target, ast.Name)
    }
    found = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(d, ast.Call) and _is_named(d.func, "given") for d in node.decorator_list)
        and not any(
            _derandomizes(d) or (isinstance(d, ast.Name) and d.id in seeded) for d in node.decorator_list
        )
    ]
    return [name for _, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_hypothesis_properties_are_derandomized(path):
    assert random_properties(path.read_text()) == []


def test_check_sees_random_properties():
    source = (
        "import hypothesis\n"
        "from hypothesis import given, settings, strategies as st\n"
        "seeded = settings(derandomize=True, max_examples=5)\n"
        "loose = settings(max_examples=5)\n"
        "@seeded\n"
        "@given(st.integers())\n"
        "def test_module_seeded(n):\n"
        "    pass\n"
        "class TestProperties:\n"
        "    @settings(derandomize=True, deadline=None)\n"
        "    @given(st.integers())\n"
        "    def test_own_seed(self, n):\n"
        "        pass\n"
        "    @settings(deadline=None)\n"
        "    @given(st.integers())\n"
        "    def test_own_settings(self, n):\n"
        "        pass\n"
        "    @loose\n"
        "    @hypothesis.given(st.integers())\n"
        "    def test_loose(self, n):\n"
        "        pass\n"
        "    @hypothesis.settings(derandomize=False)\n"
        "    @given(st.integers())\n"
        "    def test_explicitly_random(self, n):\n"
        "        pass\n"
        "    @given(st.integers())\n"
        "    def test_bare(self, n):\n"
        "        pass\n"
        "def test_plain():\n"
        "    pass\n"
    )
    assert random_properties(source) == ["test_own_settings", "test_loose", "test_explicitly_random", "test_bare"]


# Above 8,192 parser tokens CPython 3.11 needs about 0.5 MB more at its peak to
# compile a file, and perfbench imports the package from source
MAX_TOKENS = 8192


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_below_the_parser_token_threshold(path):
    with path.open() as source:
        tokens = tokenize.generate_tokens(source.readline)
        count = sum(1 for tok in tokens if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert count <= MAX_TOKENS


def test_terms_reexports_the_parsers_of_syntax():
    # the benchmark's tracer wraps the parsers through their terms bindings
    for name in ("parse", "parse_term", "parse_condition"):
        assert getattr(terms, name) is getattr(syntax, name)
