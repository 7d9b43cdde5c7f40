"""Import graph of the package: what `import kuramoto_damping.cli` loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import kuramoto_damping

PACKAGE_DIR = Path(kuramoto_damping.__file__).parent


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # any scipy import loads its array-API layer and numpy.f2py, which cost
    # about 0.35 s of a CLI call's 0.6 s start-up; scipy is a test-time oracle only
    probe = (
        "import sys, kuramoto_damping.cli; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.split() == []


def test_cli_import_builds_no_csv_tables():
    # the csv writer's tables are built on a process's first float write, so
    # the import, which every CLI call pays, builds none
    probe = "import kuramoto_damping.cli as cli; print(cli._float_tables.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.split() == ["0"]


def test_no_scipy_import_inside_a_function():
    # a deferred import would hide from the sys.modules check above and move its
    # cost into the call that reaches it
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                found += [f"{path.name}:{node.lineno}" for n in names if n.startswith("scipy")]
    assert found == []


_FAMILIES = {"Cauchy", "Gaussian", "Mixture"}


def _names_a_family(node):
    if isinstance(node, ast.Tuple):
        return any(_names_a_family(elt) for elt in node.elts)
    if isinstance(node, ast.Attribute):
        return node.attr in _FAMILIES
    return isinstance(node, ast.Name) and node.id in _FAMILIES


def test_no_module_but_distributions_knows_the_families():
    # a family is one class: every other module reaches its closed forms
    # through the FrequencyDistribution interface
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "distributions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                hits = [alias.name for alias in node.names if alias.name in _FAMILIES]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                hits = ["isinstance"] if len(node.args) == 2 and _names_a_family(node.args[1]) else []
            else:
                hits = []
            found += [f"{path.name}:{node.lineno}: {hit}" for hit in hits]
    assert found == []
