"""The imports of the test modules, read with ``ast``.

``reference`` is the independent statement every operator and classifier
test compares with, so it must not import ``ftop``; and each test module
stands alone, sharing code only through ``helpers`` and ``reference``.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_modules(path):
    """The name of every module ``path`` imports, at any depth in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_the_reference_imports_nothing_from_ftop():
    names = imported_modules(TESTS / "reference.py")
    assert "fractions" in names
    assert {name for name in names if name.split(".")[0] == "ftop"} == set()


def test_no_test_module_imports_another():
    modules = {path.name: imported_modules(path) for path in sorted(TESTS.glob("*.py"))}
    assert {"helpers.py", "reference.py", "test_imports.py"} <= set(modules)
    crossing = {
        (name, module) for name, names in modules.items() for module in names
        if module.split(".")[0].startswith("test_")
    }
    assert crossing == set()
