"""What `import kuramoto_damping.cli` loads, and what a CLI call wakes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kuramoto_damping

PACKAGE_DIR = Path(kuramoto_damping.__file__).parent


def _probe(code):
    """The last line ``code`` prints, run in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return result.stdout.splitlines()[-1]


def _cli_calls(tmp_path, configs):
    """argv lists running each (experiment, config) pair into its own directory."""
    calls = []
    for i, (experiment, config) in enumerate(configs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        calls.append([experiment, "--config", str(path), "--out", str(tmp_path / str(i))])
    return calls


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # any scipy import loads its array-API layer and numpy.f2py, which cost
    # about 0.35 s of a CLI call's 0.6 s start-up; scipy is a test-time oracle only
    probe = (
        "import sys, kuramoto_damping.cli; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _probe(probe) == ""


def test_cli_import_builds_no_csv_tables():
    # the csv writer's tables are built on a process's first float write, so
    # the import, which every CLI call pays, builds none
    probe = "import kuramoto_damping.cli as cli; print(cli._float_tables.cache_info().currsize)"
    assert _probe(probe) == "0"


def test_cli_import_builds_no_fft_length_table():
    # the 11-smooth FFT lengths are built per Volterra solve, up to twice its
    # step count; a table up to twice MAX_STEPS (5,369 lengths) cost every
    # CLI process about 0.6 MB of peak RSS at import
    probe = (
        "import sys, numpy as np, kuramoto_damping.cli; "
        "print(sorted(f'{name}.{key}' for name, module in sys.modules.items() "
        "if name.startswith('kuramoto_damping') for key, value in vars(module).items() "
        "if key != '__builtins__' and isinstance(value, (list, tuple, set, dict, np.ndarray)) "
        "and len(value) > 100))"
    )
    assert _probe(probe) == "[]"


def test_cli_calls_load_no_argument_parser_or_locale(tmp_path):
    # argparse imports gettext, and its first parser imports locale: about 2 ms
    # of every CLI call.  No plain command line loads them: the bench's argv
    # shape runs, and the options-first order and the '=' forms are parsed
    calls = _cli_calls(tmp_path, [
        ("stability", {"distribution": {"family": "cauchy", "delta": 1.0}, "coupling": 1.0}),
        ("linear", {"distribution": {"family": "cauchy", "delta": 1.0}, "coupling": 1.0,
                    "input": {"type": "poly_decay"}, "dt": 0.05, "horizon": 1.0}),
    ])
    parsed = [["--out", "o", "--config", "c.json", "stability"], ["linear", "--config=c", "--out=o"]]
    probe = (
        f"import sys, kuramoto_damping.cli as cli; codes = [cli.main(a) for a in {calls!r}]; "
        f"codes += [len(cli._parse_args(a)) for a in {parsed!r}]; "
        "print(codes, *(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    assert _probe(probe) == "[0, 0, 3, 3]"


_NATIVE_CALLS_PROBE = """
import sys, numpy.fft, numpy.linalg

calls = []

def counted(module, name):
    func = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)
    setattr(module, name, wrapper)

for module in (numpy.fft, numpy.linalg):
    for name in module.__all__:
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type):
            counted(module, name)
import kuramoto_damping.cli as cli
codes = [cli.main(argv) for argv in CALLS]
print(codes, "numpy.polynomial" in sys.modules, calls)
"""


def test_cli_import_and_gaussian_stability_make_no_fft_or_lapack_call(tmp_path):
    # the quadrature rules and the Faddeeva coefficients are literals: leggauss
    # imports numpy.polynomial and calls LAPACK, and the coefficients were one
    # FFT: 1.0-1.6 MB of every CLI run's peak RSS
    calls = _cli_calls(tmp_path, [
        ("stability", {"distribution": {"family": "gaussian", "sigma": 1.0}, "coupling": 1.0}),
    ])
    assert _probe(f"CALLS = {calls!r}\n{_NATIVE_CALLS_PROBE}") == "[0] False []"


def test_src_never_names_numpy_polynomial():
    # a module-level use would load numpy.polynomial into every CLI process
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "polynomial" and getattr(node.value, "id", None) in ("np", "numpy")
            elif isinstance(node, ast.Import):
                hit = any(alias.name.startswith("numpy.polynomial") for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").startswith("numpy.polynomial") or (
                    node.module == "numpy" and any(a.name == "polynomial" for a in node.names)
                )
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


_WORKER_CPU_PROBE = """
import os, sys, time
import numpy as np
import kuramoto_damping.cli as cli
from kuramoto_damping import spectral
from kuramoto_damping.distributions import Gaussian, build_grid

def worker_cpu():
    tick, me, total = os.sysconf("SC_CLK_TCK"), os.getpid(), 0.0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != me:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / tick
    return total

grid = build_grid(Gaussian(1.0), 65_536)
profile = np.exp(-np.arange(1.0, 9.0)[:, None] * grid.nodes**2)
# BLAS starts its workers spinning; wait until they sleep
before = worker_cpu()
for _ in range(50):
    time.sleep(0.1)
    before, settled = worker_cpu(), before
    if before == settled:
        break
codes = [cli.main(argv) for argv in CALLS]
Gaussian(1.0).laplace_transform(np.linspace(-3.0, 3.0, 120))
spectral.profile_sobolev_norm(grid, profile, 2)
time.sleep(0.05)
print(codes, len(os.listdir("/proc/self/task")), worker_cpu() - before)
"""


def test_cli_runs_leave_the_blas_worker_threads_asleep(tmp_path):
    # OpenBLAS threads a dot of more than 10,000 elements, a complex
    # matrix-vector product of 4,096 or more entries and a real one of 460,800
    # or more.  A woken worker spun on a second CPU for 1.1 s beside a 1.5 s
    # J = 2048 nonlinear call, and waking it after an idle spell stalled calls
    # by up to 1 s.  These calls reach every such site: the march's dots over J
    # and k_max J values, the tilt of a 12,000-step march's top blocks, the
    # leaf of a complex kernel (off-centre Cauchy), the Faddeeva series on 120
    # complex points and the Sobolev norm's (8, 65,536) products
    cauchy = {"family": "cauchy", "delta": 1.0}
    off_centre = {"family": "cauchy", "delta": 1.0, "center": 0.5}
    configs = [
        ("nonlinear", {
            "distribution": {"family": "gaussian", "sigma": 1.0}, "coupling": 1.0,
            "epsilon": 1e-3, "k_max": 8, "grid_nodes": 2048, "dt": 0.01, "horizon": 0.2,
            "initial_perturbation": {"modes": [{"mode": 1, "kind": "gaussian"}]},
        }),
        ("linear", {"distribution": cauchy, "coupling": 1.0, "input": {"type": "poly_decay"},
                    "dt": 1e-3, "horizon": 12.0}),
        ("linear", {"distribution": off_centre, "coupling": 1.0, "input": {"type": "poly_decay"},
                    "dt": 0.01, "horizon": 5.0}),
        ("witness", {"distribution": off_centre, "coupling": 4.0, "dt": 0.01, "horizon": 2.0}),
    ]
    calls = _cli_calls(tmp_path, configs)
    codes, threads, seconds = _probe(f"CALLS = {calls!r}\n{_WORKER_CPU_PROBE}").rsplit(" ", 2)
    assert codes == "[0, 0, 0, 0]"
    if int(threads) == 1:
        pytest.skip("the BLAS library runs no worker thread here")
    assert float(seconds) <= 0.02


_NOT_DEFERRED = {"scipy", "argparse", "gettext", "locale"}


def test_no_scipy_import_inside_a_function():
    # a deferred import would hide from the sys.modules checks above and move its
    # cost into the call that reaches it; argparse, gettext and locale as scipy.
    # The one exception is argparse in cli._argparse, which parses every command
    # line but the plain one, so no bench or README call reaches it
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
                label = f"{path.stem}.{func.name}"
                found += [(label, n) for n in names if n.split(".")[0] in _NOT_DEFERRED]
    assert found == [("cli._argparse", "argparse")]


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


_MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _mentions(node):
    """What a node's code mentions: each bare name, and '.attr' for each
    attribute.  An attribute of a package module, as in ``dispersion.f``,
    is the bare name ``f``: a module-level function is reached by that or
    by its bare name, never as ``self.f``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            qualified = isinstance(sub.value, ast.Name) and sub.value.id in _MODULES
            found.add(sub.attr if qualified else f".{sub.attr}")
    return found


def _package_definitions():
    """(label, names, mentions) of every function, class and method of the
    package, and the names mentioned by the code that runs unasked.

    A definition is reached by a mention of any of its names: a method by
    its bare name or any attribute of that name, a module-level function or
    class by its bare name only.  The code that runs unasked is each
    module's own statements, each class's bases, decorators and body
    statements, and every dunder method: it runs on import, on construction
    or through an operator, without being named.  A dataclass field's name
    mentions nothing; its annotation and default do.
    """
    definitions, roots = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((f"{path.stem}.{node.name}", {node.name}, _mentions(node)))
            elif isinstance(node, ast.ClassDef):
                definitions.append((f"{path.stem}.{node.name}", {node.name}, set()))
                roots += node.bases + node.decorator_list
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        label = f"{path.stem}.{node.name}.{item.name}"
                        definitions.append((label, {item.name, f".{item.name}"}, _mentions(item)))
                    elif isinstance(item, ast.AnnAssign):
                        roots += [item.annotation] + ([item.value] if item.value else [])
                    else:
                        roots.append(item)
            else:
                roots.append(node)
    return definitions, set().union(*map(_mentions, roots))


def test_every_src_definition_is_reachable_from_the_cli():
    # name-level reachability from cli.main: a definition is reached once a
    # reached one mentions its name.  One that no CLI run can name is
    # test-only code, which belongs under tests/ and costs every CLI process
    # its compile
    definitions, reached = _package_definitions()
    reached.add("main")
    size = 0
    while size < len(reached):
        size = len(reached)
        for _, names, mentions in definitions:
            if names & reached:
                reached |= mentions
    unreached = [label for label, names, _ in definitions if not names & reached]
    assert sorted({label.rsplit(".", 1)[1] for label in unreached}) == [], unreached
