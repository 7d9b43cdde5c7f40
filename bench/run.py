"""Benchmark of the kuramoto-damping CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of CLI experiments in a closed loop, one operation at a
time, each operation a ``kuramoto_damping.cli.main`` call in its own fresh
interpreter (bench/child.py).  Operations repeat in whole rounds until the
run has lasted about ``--seconds``.  Every operation's artifacts are checked
against closed forms in bench/oracles.py.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  bench/README.md describes the
workloads, the metrics and their bounds.

The package is imported from the checkout's ``src/``; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"
# the slowest operation takes under 10 s; the whole run must end within 180 s
CHILD_TIMEOUT_S = 60
PREWARM_BYTES = 256 * 2**20


@dataclass
class Op:
    """One CLI call, its work units and the check of its artifacts.

    ``check(outdir, notes)`` returns failure messages; ``notes`` is a dict
    shared by the operations of one round, read by the workload's
    round-level check.
    """

    experiment: str
    config: dict
    work: int
    check: Callable


@dataclass
class Workload:
    ops: list
    finish: Callable = field(default=lambda notes: [])


# ---------------------------------------------------------------------------
# workloads: inputs come from the seed; problem sizes do not, so every seed
# does the same work


def _cauchy(delta):
    return {"family": "cauchy", "delta": delta}


def _two_bump(delta, omega0):
    return {
        "family": "mixture",
        "weights": [0.5, 0.5],
        "components": [
            {"family": "cauchy", "delta": delta, "center": -omega0},
            {"family": "cauchy", "delta": delta, "center": omega0},
        ],
    }


def linear_memory(rng, rundir):
    """CLI ``linear``: two csv sources of F = ghat for Cauchy g (dt and dt/2)
    and one Gaussian-profile mode source on a ~1 GB phase matrix."""
    delta = rng.uniform(0.8, 1.25)
    coupling = 2.0 * delta * rng.uniform(0.4, 0.6)
    horizon = 30.0
    # F sampled on the fine step: the solver's nodes are CSV nodes, so the
    # CLI's linear interpolation adds no error to the closed-form check
    times = 1e-3 * np.arange(30001)
    csv_path = rundir / "F.csv"
    with open(csv_path, "w") as fh:
        fh.write("t,ReF,ImF\n")
        for t, f in zip(times, np.exp(-delta * times)):
            fh.write(f"{t:.17g},{f:.17g},0\n")

    def csv_op(dt):
        def check(outdir, notes):
            err = oracles.linear_closed_form_error(outdir, delta, coupling)
            notes[dt] = err
            return oracles.check_bound(f"linear csv dt={dt}", err, 1e-5)

        config = {
            "distribution": _cauchy(delta),
            "coupling": coupling,
            "input": {"type": "csv", "path": str(csv_path)},
            "dt": dt,
            "horizon": horizon,
        }
        return Op("linear", config, int(round(horizon / dt)), check)

    width = rng.uniform(0.8, 1.25)
    amplitude = rng.uniform(0.5, 1.0)
    mode = {
        "distribution": _cauchy(delta),
        "coupling": coupling,
        "input": {
            "type": "mode",
            "profile": {"kind": "gaussian", "width": width, "amplitude": amplitude},
            "grid_nodes": 2944,
        },
        "dt": 1e-3,
        "horizon": 10.0,
    }
    return Workload(
        ops=[
            csv_op(2e-3),
            csv_op(1e-3),
            Op(
                "linear", mode, 10000,
                lambda outdir, notes: oracles.check_linear_mode(
                    outdir, delta, coupling, width, amplitude
                ),
            ),
        ],
        finish=lambda notes: oracles.check_second_order(notes[2e-3], notes[1e-3]),
    )


def nonlinear_damping(rng, rundir):
    """CLI ``nonlinear`` on a Gaussian g below K_c at J = 512, 2048 and a
    K = 0 control at J = 1024.  Time is measured in units of 1/sigma, so
    every seed runs the same number of steps at the same step-size margin."""
    sigma = rng.uniform(0.9, 1.1)
    kc = oracles.kc_gaussian(sigma)
    dt = 0.01 / sigma
    k_max = 8

    def op(nodes, coupling, steps, output_every, snapshots, modes, check):
        config = {
            "distribution": {"family": "gaussian", "sigma": sigma},
            "coupling": coupling,
            "epsilon": 1e-3,
            "k_max": k_max,
            "grid_nodes": nodes,
            "dt": dt,
            "horizon": steps * dt,
            "output_every": output_every,
            "snapshot_times": [s / sigma for s in snapshots],
            "initial_perturbation": {"modes": modes},
        }
        return Op("nonlinear", config, k_max * nodes * steps, check)

    gaussian_mode = {"mode": 1, "kind": "gaussian", "width": rng.uniform(0.8, 1.25)}
    damping = lambda outdir, notes: oracles.check_nonlinear_damping(outdir)
    free_modes = [
        {"mode": 1, "kind": "constant", "value": 1.0},
        {"mode": 2, "kind": "gaussian", "amplitude": rng.uniform(0.2, 0.4)},
    ]
    return Workload(
        ops=[
            op(512, rng.uniform(0.5, 0.56) * kc, 3200, 100, (8, 16, 24, 32),
               [gaussian_mode], damping),
            op(2048, rng.uniform(0.12, 0.16) * kc, 1200, 300, (6, 9, 12),
               [gaussian_mode], damping),
            op(1024, 0.0, 300, 50, (1, 2, 3), free_modes,
               lambda outdir, notes: oracles.check_nonlinear_free(outdir, sigma)),
        ]
    )


def finite_population(rng, rundir):
    """CLI ``finite-n`` on a two-bump Cauchy g with w0 <= delta below K_c,
    quantile sampling at N = 10^4, 2 10^4 and 4 10^4."""
    delta = rng.uniform(0.9, 1.1)
    omega0 = delta * rng.uniform(0.4, 0.6)
    coupling = rng.uniform(0.55, 0.65) * oracles.kc_two_bump(delta, omega0)
    epsilon = 1e-2
    dt, steps = 0.02, 250

    def op(count):
        config = {
            "distribution": _two_bump(delta, omega0),
            "oscillators": count,
            "coupling": coupling,
            "epsilon": epsilon,
            "dt": dt,
            "horizon": steps * dt,
            "sampling": "quantile",
            "output_every": 5,
            "initial_perturbation": {"modes": [{"mode": 1, "kind": "constant", "value": 1.0}]},
        }
        return Op(
            "finite-n", config, count * steps,
            lambda outdir, notes: oracles.check_finite_n(
                outdir, delta, omega0, coupling, epsilon, count
            ),
        )

    return Workload(ops=[op(10_000), op(20_000), op(40_000)])


def stability_scan(rng, rundir):
    """CLI ``stability`` for Cauchy, Gaussian and two-bump Cauchy (w0 > delta),
    each at 0.7 and 1.3 K_c, three ``kc-scan`` sweeps across both two-bump
    branches and a ``witness`` at an unstable Cauchy coupling.

    The seed sets one frequency scale for every density, coupling and time
    step.  Every seed runs the same operations on rescaled inputs."""
    scale = rng.uniform(0.8, 1.25)
    omega0 = 2.0 * scale
    cases = [
        (_cauchy(scale), oracles.kc_cauchy(scale), [0.0]),
        ({"family": "gaussian", "sigma": scale}, oracles.kc_gaussian(scale), [0.0]),
        (_two_bump(scale, omega0), oracles.kc_two_bump(scale, omega0),
         oracles.two_bump_boundary_zeros(scale, omega0)),
    ]
    ops = []
    for dist, kc, zeros in cases:
        for factor in (0.7, 1.3):
            coupling = factor * kc
            ops.append(Op(
                "stability", {"distribution": dist, "coupling": coupling}, 1,
                lambda outdir, notes, kc=kc, zeros=zeros, coupling=coupling:
                    oracles.check_stability(outdir, kc, zeros, coupling),
            ))

    sweep = np.linspace(0.0, 3.0, 25)  # holds 1.0, the branch point w0 = delta
    scans = [
        ("omega0", {"delta": scale}, [(scale, scale * r) for r in sweep]),
        ("omega0", {"delta": 0.5 * scale}, [(0.5 * scale, 0.5 * scale * r) for r in sweep]),
        ("delta", {"omega0": scale}, [(scale * r, scale) for r in sweep + 0.25]),
    ]
    for parameter, fixed, pairs in scans:
        values = [pair[0 if parameter == "delta" else 1] for pair in pairs]
        ops.append(Op(
            "kc-scan", {"parameter": parameter, "values": values, **fixed}, len(values),
            lambda outdir, notes, pairs=pairs: oracles.check_kc_scan(outdir, pairs),
        ))

    coupling = 4.0 * scale  # growth rate K/2 - delta = scale
    ops.append(Op(
        "witness",
        {"distribution": _cauchy(scale), "coupling": coupling,
         "dt": 1e-3 / scale, "horizon": 5.0 / scale},
        1,
        lambda outdir, notes: oracles.check_witness(outdir, scale, coupling),
    ))
    return Workload(ops=ops)


WORKLOADS = {
    "linear-memory": linear_memory,
    "nonlinear-damping": nonlinear_damping,
    "finite-population": finite_population,
    "stability-scan": stability_scan,
}


# ---------------------------------------------------------------------------
# running operations


def _child_env():
    env = dict(os.environ)
    # kc-scan's pool defaults to os.cpu_count(), which ignores CPU affinity;
    # cap it at the CPUs this process may use.  BLAS threads stay at default.
    env["KD_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def spawn(rundir, tag, argv, trace):
    """Run bench/child.py once; returns its result dict, or None on failure."""
    job_path = rundir / f"{tag}.job.json"
    result_path = rundir / f"{tag}.result.json"
    job = {"root": str(ROOT), "argv": argv, "trace": trace, "result": str(result_path)}
    # The machine hands free memory back to its host after a few idle
    # seconds, and touching it again is slow: 200 MB took 50 ms right after
    # another process freed it and 200 ms five seconds later.  Touching and
    # freeing a block here gives the child's import and first allocations
    # recently freed memory, as back-to-back CLI calls get.
    np.ones(PREWARM_BYTES // 8)
    job["spawned"] = time.perf_counter()
    job_path.write_text(json.dumps(job))
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(job_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(), cwd=ROOT,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{tag}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.exists():
        print(f"{tag}: child exited {proc.returncode}\n{stderr.decode()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    if result["exit_code"] != 0:
        print(f"{tag}: cli.main returned {result['exit_code']}\n{stderr.decode()[-2000:]}",
              file=sys.stderr)
        return None
    return result


def run_op(rundir, tag, op, notes, trace):
    outdir = rundir / tag
    config_path = rundir / f"{tag}.config.json"
    config_path.write_text(json.dumps(op.config))
    argv = [op.experiment, "--config", str(config_path), "--out", str(outdir)]
    result = spawn(rundir, tag, argv, trace)
    if result is not None:
        result["problems"] = op.check(outdir, notes)
        result["artifact_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
        report = outdir / "stability_report.json"
        if report.exists():
            result["contour_points"] = oracles.read_json(report)["diagnostics"]["contourPoints"]
        for problem in result["problems"]:
            print(f"{tag}: {problem}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# metrics


def end_to_end(rounds, workload):
    done = [r for rnd in rounds for r in rnd["untraced"] if r is not None]
    solve = [r["solve_s"] for r in done]
    work = sum(op.work for rnd in rounds for op, r in zip(workload.ops, rnd["untraced"]) if r)
    return {
        "solve_s": (statistics.median(solve), "s"),
        "work_per_s": (work / sum(solve), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in done) / 1024.0, "MB"),
    }


# span name -> per-layer metric of its self time
SELF_TIMES = {
    "distributions.inverse_cdf": "distributions.inverse_cdf.s",
    "distributions.build_grid": "distributions.build_grid.s",
    "distributions.fourier_transform": "distributions.fourier_transform.s",
    "dispersion.analyze_stability": "dispersion.analyze_stability.s",
    "dispersion.critical_coupling": "dispersion.critical_coupling.s",
    "dispersion.find_unstable_root": "dispersion.find_unstable_root.s",
    "volterra.solve": "volterra.solve.s",
    "volterra.source": "volterra.source.s",
    "volterra.fit_decay": "volterra.fit_decay.s",
    "spectral.initialize": "spectral.initialize.s",
    "spectral.run": "spectral.march.s",
    "spectral.sobolev_diagnostics": "spectral.sobolev_diagnostics.s",
    "spectral.profile_sobolev_norm": "spectral.profile_sobolev_norm.s",
    "spectral.scattering_profile": "spectral.scattering_profile.s",
    "finiten.sample_oscillators": "finiten.sample_oscillators.s",
    "finiten.simulate": "finiten.simulate.s",
    "cli.main": "cli.self.s",
}
# counter recorded by the child -> per-layer metric
COUNTS = {
    "volterra.steps": "volterra.steps",
    "spectral.steps": "spectral.steps",
    "spectral.sobolev_diagnostics.calls": "spectral.sobolev_diagnostics.calls",
    "spectral.profile_sobolev_norm.calls": "spectral.profile_sobolev_norm.calls",
    "finiten.oscillator_steps": "finiten.oscillator_steps",
}


def self_times(spans):
    """Span duration minus the durations of its direct children, by name."""
    totals = {}
    for name, start, end, parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent >= 0:
            parent_name = spans[parent][0]
            totals[parent_name] = totals.get(parent_name, 0.0) - (end - start)
    return totals


def per_layer(rounds):
    """Layer times and counts summed over one round's traced operations;
    times are the median over rounds, counts repeat exactly."""
    per_round = []
    for rnd in rounds:
        sums = dict.fromkeys(list(SELF_TIMES.values()) + ["process.import.s"], 0.0)
        sums.update(dict.fromkeys(
            list(COUNTS.values()) + ["dispersion.contour_points", "cli.artifact_bytes"], 0
        ))
        for r in rnd["traced"]:
            if r is None:
                continue
            for name, value in self_times(r["spans"]).items():
                if name in SELF_TIMES:
                    sums[SELF_TIMES[name]] += value
            for name, value in r["counts"].items():
                if name in COUNTS:
                    sums[COUNTS[name]] += value
            sums["dispersion.contour_points"] += r.get("contour_points", 0)
            sums["cli.artifact_bytes"] += r["artifact_bytes"]
            sums["process.import.s"] += r["setup_s"]
        per_round.append(sums)
    metrics = {}
    for name in per_round[0]:
        values = [s[name] for s in per_round]
        if name.endswith(".s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            if len(set(values)) != 1:
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = (values[0], "bytes" if name.endswith("bytes") else "count")
    traced = statistics.median(r["solve_s"] for rnd in rounds for r in rnd["traced"] if r)
    untraced = statistics.median(r["solve_s"] for rnd in rounds for r in rnd["untraced"] if r)
    metrics["trace.solve_s"] = (traced, "s")
    metrics["trace.untraced_solve_s"] = (untraced, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    return metrics


# ---------------------------------------------------------------------------


def run(workload_name, seed, seconds, trace):
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    rundir.mkdir()
    try:
        workload = WORKLOADS[workload_name](rng, rundir)
        # One untimed run of the first operation warms the byte-code, the
        # file cache and the idle second CPU, which a user's repeated calls
        # find warm.  The first BLAS-threaded operation after an idle spell
        # measured 2-3x slower than the same operation a second later.
        run_op(rundir, "warmup", workload.ops[0], {}, False)
        rounds = []
        start = time.perf_counter()
        while True:
            notes = {}
            rnd = {"untraced": [], "traced": []}
            for i, op in enumerate(workload.ops):
                tag = f"r{len(rounds)}-op{i}"
                rnd["untraced"].append(run_op(rundir, tag, op, notes, False))
                if trace:
                    rnd["traced"].append(run_op(rundir, tag + "-traced", op, notes, True))
            if all(rnd["untraced"]):
                rnd["problems"] = workload.finish(notes)
                for problem in rnd["problems"]:
                    print(f"round {len(rounds)}: {problem}", file=sys.stderr)
            rounds.append(rnd)
            elapsed = time.perf_counter() - start
            # stop at the round boundary nearest to the requested length
            if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
                break
        if trace:
            trace_path = OUT / f"trace-{workload_name}-seed{seed}.json"
            trace_path.write_text(json.dumps([rnd["traced"] for rnd in rounds]))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    results = [r for rnd in rounds for key in ("untraced", "traced") for r in rnd[key]]
    attempted = len(results)
    failed = sum(r is None for r in results)
    correct = not any(r["problems"] for r in results if r) and not any(
        rnd.get("problems") for rnd in rounds
    )
    if failed == attempted:
        raise SystemExit("every operation failed")
    metrics = per_layer(rounds) if trace else end_to_end(rounds, workload)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "kuramoto_damping" / "cli.py").is_file():
        print(f"no kuramoto_damping package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
