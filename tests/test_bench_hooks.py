"""The benchmark still finds what it reads in the package and its artifacts.

``bench/child.py``'s ``install`` patches solver functions where their callers
look them up, by name; a rename or a changed signature would leave a traced
benchmark run failing or silently untraced.  Each experiment below runs in a
fresh interpreter with the tracer installed, as a ``--trace 1`` operation does.
``bench/run.py`` also reads ``diagnostics.contourPoints`` from every stability
report it gets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kuramoto_damping
from kuramoto_damping import cli

PACKAGE_DIR = Path(kuramoto_damping.__file__).parent
CHILD = PACKAGE_DIR.parents[1] / "bench" / "child.py"

_PROBE = """
import contextlib, importlib.util, io, json
from kuramoto_damping import cli
spec = importlib.util.spec_from_file_location("bench_child", CHILD)
child = importlib.util.module_from_spec(spec)
spec.loader.exec_module(child)
tracer = child.Tracer()
child.install(tracer, cli)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in CALLS]
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans}),
                  "counts": tracer.counts}))
"""

_OSCILLATORS, _STEPS = 64, 50


def test_tracer_wraps_every_solver_layer(tmp_path):
    cauchy = {"family": "cauchy", "delta": 1.0}
    csv_path = tmp_path / "F.csv"
    times = np.linspace(0.0, 1.0, 21)
    csv_path.write_text("t,ReF,ImF\n" + "".join(f"{t:.17g},{np.exp(-t):.17g},0\n" for t in times))
    configs = [
        ("stability", {"distribution": cauchy, "coupling": 1.0}),
        ("linear", {"distribution": cauchy, "coupling": 1.0, "dt": 0.05, "horizon": 1.0,
                    "input": {"type": "csv", "path": str(csv_path)}}),
        ("witness", {"distribution": cauchy, "coupling": 4.0, "dt": 0.05, "horizon": 1.0}),
        ("nonlinear", {
            "distribution": {"family": "gaussian", "sigma": 1.0}, "coupling": 1.0,
            "epsilon": 1e-3, "k_max": 4, "grid_nodes": 64, "dt": 0.01, "horizon": 0.1,
            "initial_perturbation": {"modes": [{"mode": 1, "kind": "gaussian"}]},
        }),
        ("finite-n", {
            "distribution": {"family": "gaussian", "sigma": 1.0}, "oscillators": _OSCILLATORS,
            "coupling": 1.0, "epsilon": 0.01, "dt": 0.01, "horizon": 0.01 * _STEPS,
            "initial_perturbation": {"modes": [{"mode": 1, "kind": "constant"}]},
        }),
    ]
    calls = []
    for i, (experiment, config) in enumerate(configs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        calls.append([experiment, "--config", str(path), "--out", str(tmp_path / str(i))])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", f"CHILD = {str(CHILD)!r}\nCALLS = {calls!r}\n{_PROBE}"],
        capture_output=True, text=True, check=True, env=env,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(configs)
    wanted = {
        "dispersion.analyze_stability", "volterra.solve", "volterra.source",
        "spectral.initialize", "spectral.run", "finiten.sample_oscillators", "finiten.simulate",
    }
    assert wanted <= set(report["spans"])
    assert report["counts"]["finiten.oscillator_steps"] == _OSCILLATORS * _STEPS


def test_every_stability_verdict_reports_an_integer_contour_count(tmp_path):
    # Cauchy(1) has K_c = 2 exactly: its report there winds no number
    for coupling, verdict in ((1.0, "Stable"), (2.6, "Unstable"), (2.0, "MarginallyUnstable")):
        config = tmp_path / f"{coupling}.json"
        config.write_text(json.dumps({"distribution": {"family": "cauchy", "delta": 1.0},
                                      "coupling": coupling}))
        out = tmp_path / str(coupling)
        assert cli.main(["stability", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "stability_report.json").read_text())
        points = report["diagnostics"]["contourPoints"]
        assert report["verdict"] == verdict
        assert type(points) is int and points >= 0
        assert (points == 0) == (report["windingNumber"] is None)
