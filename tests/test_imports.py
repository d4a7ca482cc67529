"""Static checks that robustreach ships no unused names.

Every name a robustreach or test module imports at top level is used in it.
Each module is parsed with ast, and a top-level imported name counts as used
when it appears as a name anywhere in the module (quoted annotations
included) or is listed in the module's __all__. `from __future__ import
...` binds no name and is skipped.

Every public top-level function or class of the package, and every public
method, is referenced from the package or the benchmark. A reference is an
attribute or an identifier-like string constant (the benchmark's tracer
names the attributes it wraps as strings); a top-level definition is also
referenced by a bare name, but a method is not, since a bare name is a
local or a function of the same name. A function's own parameter is not a
reference to a like-named definition. The benchmark's reference code,
bench/oracles.py, imports nothing of the package, so it calls none of it
and is not searched. Code that only the tests call belongs in tests/.

Every field of a public dataclass of the package is read in the package or
the benchmark, by the same references: an attribute or an identifier-like
string. Like the method check, it matches names, not owners, so a field
shares its reads with any like-named attribute of another class. A field
that nothing reads is data nobody asked for.

Importing the package afresh, as the benchmark does before each set-up,
leaves nothing of the earlier copy alive.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "robustreach"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))
BENCH_ORACLES = TESTS.parent / "bench" / "oracles.py"
BENCH_MODULES = sorted(set((TESTS.parent / "bench").glob("*.py")) - {BENCH_ORACLES})

# Public names with no caller in the package or the benchmark, kept on purpose.
UNCALLED_ALLOWED = {
    "decode_point": "the embedding's pull-back from map points to configurations, "
    "which decodes Reached verdicts on compiled machines (ROADMAP item 4)",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level imported names mapped to the line that binds them."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def public_definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Public top-level functions and classes, and public methods, by name."""
    top, methods = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            top.add(node.name)
        if isinstance(node, ast.ClassDef):
            methods |= {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            }
    return top, methods


def referenced_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Bare names, and attributes or identifier-like strings, anywhere in the module.

    Within a function, its signature included, a name that is one of its
    own parameters (or an enclosing function's) refers to that parameter,
    so it is no reference.
    """
    names, members = set(), set()

    def visit(node: ast.AST, params: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            own = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            params = params | {arg.arg for arg in own if arg is not None}
        if isinstance(node, ast.Name):
            if node.id not in params:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                members.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return names, members


def uncalled_names(tree: ast.Module, names: set[str], members: set[str]) -> set[str]:
    """The module's public definitions that none of the references call."""
    top, methods = public_definitions(tree)
    return (top - names - members) | (methods - members)


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: imported but unused (name: line) {unused}"


def test_check_catches_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Optional, Sequence\n"
        "from os import path as p\n"
        "__all__ = ['p']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return x\n"
    )
    used = used_names(tree)
    unused = sorted(n for n in imported_names(tree) if n not in used)
    assert unused == ["Sequence", "math"]


def dataclass_fields(tree: ast.Module) -> set[str]:
    """`Class.field` for every annotated field of a public @dataclass class."""
    fields = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields |= {
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            }
    return fields


def unread_fields(tree: ast.Module, members: set[str]) -> set[str]:
    """The module's dataclass fields whose name no reference reads."""
    return {field for field in dataclass_fields(tree) if field.split(".")[1] not in members}


def package_and_bench_references() -> tuple[dict[Path, ast.Module], set[str], set[str]]:
    """The parsed package and benchmark modules, and their bare and member references."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES + BENCH_MODULES
    }
    names, members = set(), set()
    for tree in trees.values():
        tree_names, tree_members = referenced_names(tree)
        names |= tree_names
        members |= tree_members
    return trees, names, members


def test_public_names_have_a_caller_outside_the_tests():
    trees, names, members = package_and_bench_references()
    uncalled = {
        name: path.name for path in MODULES for name in uncalled_names(trees[path], names, members)
    }
    assert set(uncalled) == set(UNCALLED_ALLOWED), (
        f"public names only the tests call (name: module) "
        f"{ {n: m for n, m in uncalled.items() if n not in UNCALLED_ALLOWED} }; "
        f"allowlisted but now called or gone {sorted(set(UNCALLED_ALLOWED) - set(uncalled))}"
    )


def test_caller_check_catches_an_uncalled_name():
    tree = ast.parse(
        "class Box:\n"
        "    def contains(self, x):\n"
        "        return self.hull(x)\n"
        "    def hull(self, x):\n"
        "        return x\n"
        "    def _private(self):\n"
        "        return 0\n"
        "    def center(self):\n"
        "        return self\n"
        "    @staticmethod\n"
        "    def ball(center, radius=lambda lonely: lonely):\n"
        "        return center\n"
        "    def size(self):\n"
        "        return 1\n"
        "def wrapped():\n"
        "    size = len\n"
        "    return getattr(Box, 'contains'), Box.ball, size(())\n"
        "def lonely():\n"
        "    return wrapped()\n"
    )
    uncalled = uncalled_names(tree, *referenced_names(tree))
    # the parameters `center` and `lonely` are no calls of the method
    # Box.center or the function lonely, and wrapped's local `size` is no
    # call of the method Box.size
    assert uncalled == {"center", "lonely", "size"}


def test_dataclass_fields_are_read_outside_the_tests():
    trees, _, members = package_and_bench_references()
    unread = {field: path.name for path in MODULES for field in unread_fields(trees[path], members)}
    assert not unread, f"dataclass fields nothing in the package or benchmark reads {unread}"


def test_field_check_catches_an_unread_field():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Grid:\n"
        "    n: int\n"
        "    rows: tuple\n"
        "    lonely: int\n"
        "    named: int = 0\n"
        "@dataclass\n"
        "class Frame:\n"
        "    width: int\n"
        "@dataclass\n"
        "class _Private:\n"
        "    hidden: int\n"
        "class NotData:\n"
        "    ignored: int\n"
        "def use(grid, lonely):\n"
        "    Grid(n=1, rows=(), lonely=lonely)\n"
        "    return grid.n, grid.rows, getattr(grid, 'named')\n"
    )
    # a keyword argument and a parameter are no reads of `lonely`; neither a
    # private dataclass's field nor an annotation outside a dataclass is checked
    assert unread_fields(tree, referenced_names(tree)[1]) == {"Grid.lonely", "Frame.width"}


def test_bench_oracles_import_nothing_of_the_package():
    # the caller check skips bench/oracles.py because it cannot call the package
    tree = ast.parse(BENCH_ORACLES.read_text(), filename=str(BENCH_ORACLES))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported and "robustreach" not in imported, imported


# Drops every robustreach module and imports them again, twice, the way
# bench/run.py's import_program does, then counts the PamSystem classes left.
REIMPORT_SCRIPT = """
import gc, importlib, sys
modules = ("geometry", "pam", "abstraction", "reach", "tm", "embed", "trajectory", "formats", "cli")
for _ in range(2):
    for name in [n for n in sys.modules if n == "robustreach" or n.startswith("robustreach.")]:
        del sys.modules[name]
    program = {n: importlib.import_module(f"robustreach.{n}") for n in modules}
del program
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "PamSystem" for o in gc.get_objects()))
"""


def test_a_fresh_import_frees_the_previous_copy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", REIMPORT_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1"
