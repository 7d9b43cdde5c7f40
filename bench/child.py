"""One benchmark operation: a single ``kuramoto_damping.cli.main`` call in a
fresh interpreter, the way ``kuramoto-damping <experiment>`` runs.

Usage: python3 bench/child.py <job.json>

The job names the checkout root, the CLI argv, the parent's
``time.perf_counter()`` just before the spawn, whether to trace, and where to
write the result.  ``perf_counter`` reads
CLOCK_MONOTONIC on Linux, which is shared by all processes, so the parent's
spawn time and the child's clock are comparable.

With tracing on, the public functions of each module are wrapped where their
callers look them up, and every call records a span (name, start, end,
parent index) in memory; the spans are written out with the result when the
call returns.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder.

    A call to a wrapped function from inside a span of the same name records
    nothing new, so recursive methods (``Mixture.inverse_cdf`` calls itself
    once per point, then each component's ``inverse_cdf``) make one span.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []  # (name, span index)

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, func, counter=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][0] == name:
                return func(*args, **kwargs)
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append((name, index))
            self.count(name + ".calls", 1)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


def _steps(horizon, time_step):
    return int(round(horizon / time_step))


def install(tracer, cli):
    """Wrap each module's public functions at the place the caller looks them up."""
    from kuramoto_damping import dispersion, distributions, finiten, spectral, volterra

    def patch(owner, attr, name, counter=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), counter))

    for cls in (distributions.Cauchy, distributions.Gaussian, distributions.Mixture):
        patch(cls, "inverse_cdf", "distributions.inverse_cdf")
        patch(cls, "fourier_transform", "distributions.fourier_transform")
    # cli imported build_grid by name, so its own binding is the one it calls
    patch(cli, "build_grid", "distributions.build_grid")

    for attr in ("analyze_stability", "critical_coupling", "find_unstable_root"):
        patch(dispersion, attr, f"dispersion.{attr}")
    patch(volterra, "find_unstable_root", "dispersion.find_unstable_root")

    patch(
        volterra, "solve", "volterra.solve",
        lambda t, args, sol: t.count("volterra.steps", len(sol.times) - 1),
    )
    patch(volterra, "fit_decay", "volterra.fit_decay")

    # Sources are closures built per run; wrap what the builders return.
    linear_source = cli._linear_source

    def traced_linear_source(*args, **kwargs):
        return tracer.wrap("volterra.source", linear_source(*args, **kwargs))

    cli._linear_source = traced_linear_source
    witness = tracer.wrap("volterra.instability_witness", volterra.instability_witness)

    def traced_witness(*args, **kwargs):
        source, rate = witness(*args, **kwargs)
        return tracer.wrap("volterra.source", source), rate

    volterra.instability_witness = traced_witness

    patch(spectral, "initialize", "spectral.initialize")
    patch(
        spectral, "run", "spectral.run",
        lambda t, args, res: t.count("spectral.steps", _steps(args[2], args[1])),
    )
    for attr in ("sobolev_diagnostics", "profile_sobolev_norm", "scattering_profile"):
        patch(spectral, attr, f"spectral.{attr}")

    patch(finiten, "sample_oscillators", "finiten.sample_oscillators")
    patch(
        finiten, "simulate", "finiten.simulate",
        lambda t, args, res: t.count(
            "finiten.oscillator_steps", args[0].count * _steps(args[2], args[1])
        ),
    )


def peak_rss_kb():
    """Peak resident set of this process image (VmHWM).

    ``ru_maxrss`` would not do: Linux carries the parent's peak over to the
    child at fork, so it reports the benchmark parent's size whenever that
    is larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"]).resolve()
    sys.path.insert(0, str(root / "src"))
    from kuramoto_damping import cli

    ready = time.perf_counter()
    module = Path(cli.__file__).resolve()
    if root / "src" not in module.parents:
        raise SystemExit(f"imported {module}, not the checkout's src/ package")
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        install(tracer, cli)
        cli.main = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(job["argv"])
    result = {"setup_s": ready - job["spawned"], "solve_s": time.perf_counter() - start}
    result["exit_code"] = code
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    result["peak_rss_kb"] = peak_rss_kb()
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
