"""The imports of the test modules, read with ``ast``, and the package surface.

Three shared modules are not tests.  ``reference`` is the independent
statement every operator and classifier test compares with, and
``mutants`` the registry of mutants that applies each to a copy of the
sources, so neither may import ``ftop``.  ``helpers`` holds the fixtures.
Each test module stands alone, sharing code only through these three.

``ftop`` re-exports the ``__all__`` of each public module, joined in layer
order, so a module's ``__all__`` is the one list of its public names.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ftop

TESTS = Path(__file__).resolve().parent

PUBLIC_MODULES = [
    "degrees", "fset", "plin", "topology", "semiclass", "functions", "oracle", "documents", "errors"
]

# The names the package exported while it kept its own hand-written list;
# none of them may be lost.
EXPORTED_BEFORE = """
    ZERO ONE as_degree parse_rational format_rational Universe FiniteFuzzySet join_family
    inf_family PLFuzzySet FuzzyTopology AxiomViolation InvalidTopologyError check_axioms validate
    generate SetClassification classify_set set_verdicts is_semiopen is_semiclosed semi_interior
    semi_closure is_somewhat_open is_somewhat_semiopen FuzzyFunction FunctionClassification
    classify_function GridSpec SearchTarget SpaceCheckReport enumerate_grid_sets
    brute_semi_interior random_topology check_space find_witness run_campaign SpaceDocument
    FunctionDocument parse_space print_space parse_function print_function build_topology
    build_function document_for_space FtopError DegreeRangeError UniverseMismatchError
    BackendMismatchError ResourceCapError OffGridError HierarchyInvariantError DocumentError
""".split()


def imported_modules(path):
    """The name of every module ``path`` imports, at any depth in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


@pytest.mark.parametrize(
    "module, stdlib", [("reference.py", "fractions"), ("mutants.py", "subprocess")]
)
def test_the_shared_modules_import_nothing_from_ftop(module, stdlib):
    names = imported_modules(TESTS / module)
    assert stdlib in names
    assert {name for name in names if name.split(".")[0] == "ftop"} == set()


def test_no_test_module_imports_another():
    modules = {path.name: imported_modules(path) for path in sorted(TESTS.glob("*.py"))}
    assert {"helpers.py", "mutants.py", "reference.py", "test_imports.py"} <= set(modules)
    crossing = {
        (name, module) for name, names in modules.items() for module in names
        if module.split(".")[0].startswith("test_")
    }
    assert crossing == set()


def test_the_package_exports_each_public_module_all():
    modules = [importlib.import_module(f"ftop.{name}") for name in PUBLIC_MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert ftop.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(ftop, name) is getattr(module, name), (module.__name__, name)
    assert len(EXPORTED_BEFORE) == 54
    assert set(EXPORTED_BEFORE) <= set(ftop.__all__)


def test_importing_the_package_leaves_the_cli_unloaded():
    """``ftop.cli`` builds its argument parser on import; ``import ftop``
    loads neither it nor ``argparse``."""
    code = "import ftop, sys; print(sorted({'ftop.cli', 'argparse'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(ftop.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")


def test_importing_the_cli_leaves_importlib_resources_unloaded():
    """Only the bundled-document fallback of ``_read_document`` reads
    ``importlib.resources``, so ``import ftop.cli`` does not load it; ``-S``
    keeps a site ``.pth`` file from loading it first."""
    code = "import ftop.cli, sys; print('importlib.resources' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ftop.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")
