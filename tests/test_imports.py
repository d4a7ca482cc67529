"""Every name a robustreach or test module imports at top level is used in it.

A static check over the source and test files: each module is parsed with ast,
and a top-level imported name counts as used when it appears as a name
anywhere in the module (quoted annotations included) or is listed in the
module's __all__. `from __future__ import ...` binds no name and is
skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "robustreach"
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


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
