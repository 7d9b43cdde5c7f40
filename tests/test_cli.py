"""Tests for the experiment runner CLI."""

import json
import tracemalloc

import numpy as np
import pytest

from kuramoto_damping import cli, spectral, volterra
from kuramoto_damping.cli import _CSV_CHUNK, _read_csv, _write_csv, main
from kuramoto_damping.distributions import (
    MAX_DERIVATIVE_ORDER,
    Cauchy,
    distribution_from_config,
)

from conftest import fourier_oracle, profile_source_oracle


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TWO_BUMP = {
    "family": "mixture",
    "weights": [0.5, 0.5],
    "components": [
        {"family": "cauchy", "delta": 1.0, "center": -2.0},
        {"family": "cauchy", "delta": 1.0, "center": 2.0},
    ],
}


def test_stability_below_threshold(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"distribution": TWO_BUMP, "coupling": 3.9})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    assert report["verdict"] == "Stable"
    assert report["windingNumber"] == 0
    assert report["formatVersion"] == 1
    sidecar = json.loads((out / "config.json").read_text())
    assert sidecar["experiment"] == "stability"
    assert sidecar["config"]["coupling"] == 3.9


def test_stability_above_threshold(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"distribution": TWO_BUMP, "coupling": 4.1})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "stability_report.json").read_text())
    assert report["verdict"] == "Unstable"
    assert report["windingNumber"] >= 1
    assert report["unstableRoots"]
    assert report["unstableRoots"][0]["im"] < 0


def test_unknown_key_rejected_without_artifacts(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "c.json", {"distribution": TWO_BUMP, "coupling": 1.0, "bogus": True}
    )
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["stability", "--config", str(tmp_path / "nope.json")]) == 2
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus", "--config", "c.json"], ["stability"], ["stability", "--config"],
     ["stability", "--config", "c.json", "--bogus", "1"]],
    ids=["empty", "unknown-experiment", "no-config", "config-without-path", "unknown-flag"],
)
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: kuramoto-damping" in capsys.readouterr().err


def test_options_may_precede_the_experiment(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"distribution": TWO_BUMP, "coupling": 3.9})
    out = tmp_path / "out"
    assert main(["--out", str(out), "--config", cfg, "stability"]) == 0
    assert json.loads((out / "config.json").read_text())["experiment"] == "stability"


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["stability", "--config", str(path)]) == 2


def test_integer_past_the_json_digit_limit_rejected(tmp_path, capsys):
    # Python's int parser refuses more than 4300 digits with a plain ValueError
    path = tmp_path / "c.json"
    path.write_text('{"parameter": "delta", "values": [' + "1" * 5000 + "]}")
    out = tmp_path / "out"
    assert main(["kc-scan", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "not valid JSON" in capsys.readouterr().err


def test_kc_scan_csv_and_determinism(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json", {"parameter": "omega0", "values": [0, 0.5, 2.0], "delta": 1.0}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["kc-scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["kc-scan", "--config", cfg, "--out", str(out2)]) == 0
    body1 = (out1 / "kc_scan.csv").read_bytes()
    body2 = (out2 / "kc_scan.csv").read_bytes()
    assert body1 == body2  # identical configs produce byte-identical artifacts

    rows = body1.decode().strip().splitlines()
    assert rows[0] == "param,K_c,critical_omegas"
    data = [r.split(",") for r in rows[1:]]
    assert float(data[0][1]) == pytest.approx(2.0, rel=1e-9)
    assert float(data[1][1]) == pytest.approx(2.5, rel=1e-9)
    assert float(data[2][1]) == pytest.approx(4.0, rel=1e-6)


def test_linear_run_artifacts(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "distribution": {"family": "cauchy", "delta": 1.0},
            "coupling": 1.0,
            "input": {"type": "poly_decay", "exponent": 4, "modulation": "none"},
            "dt": 0.05,
            "horizon": 40.0,
            "weight_order": 4,
        },
    )
    out = tmp_path / "out"
    assert main(["linear", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "R.csv").read_text().splitlines()[0]
    assert header == "t,Re(R),Im(R),abs(R),(1+t)^4*abs(R)"
    fit = json.loads((out / "decay_fit.json").read_text())
    assert fit["fit"]["residual"] is not None


def test_witness_run_confirms_growth(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "distribution": {"family": "cauchy", "delta": 1.0},
            "coupling": 4.0,
            "amplitude": 1.0,
            "dt": 0.001,
            "horizon": 5.0,
        },
    )
    out = tmp_path / "out"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "witness_report.json").read_text())
    assert report["predictedRate"] == pytest.approx(1.0, abs=1e-6)
    assert report["verdict"] == "GrowthConfirmed"
    assert (out / "witness_F.csv").exists()


def test_witness_samples_its_source_once(tmp_path, monkeypatch):
    witness = volterra.instability_witness
    calls = []

    def counted_witness(*args):
        source, rate = witness(*args)

        def counted(t):
            calls.append(t)
            return source(t)

        return counted, rate

    monkeypatch.setattr(volterra, "instability_witness", counted_witness)
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"distribution": {"family": "cauchy", "delta": 1.0}, "coupling": 4.0, "dt": 0.01,
         "horizon": 2.0},
    )
    out = tmp_path / "out"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    written = np.loadtxt(out / "witness_F.csv", delimiter=",", skiprows=1)
    expected = witness(Cauchy(1.0), 4.0, 1.0)[0](written[:, 0])
    np.testing.assert_array_equal(written[:, 1] + 1j * written[:, 2], expected)


def test_witness_on_stable_kernel_is_numeric_failure(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {
            "distribution": {"family": "cauchy", "delta": 1.0},
            "coupling": 1.0,
            "dt": 0.01,
            "horizon": 2.0,
        },
    )
    out = tmp_path / "out"
    assert main(["witness", "--config", cfg, "--out", str(out)]) == 3
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "RootNotConverged"


def _nonlinear_config(horizon=6.0, snapshots=(2.0, 4.0, 6.0)):
    return {
        "distribution": {"family": "gaussian", "sigma": 1.0},
        "coupling": 1.0,
        "epsilon": 0.01,
        "k_max": 8,
        "grid_nodes": 512,
        "dt": 0.01,
        "horizon": horizon,
        "output_every": 10,
        "weight_order": 4,
        "snapshot_times": list(snapshots),
        "initial_perturbation": {"modes": [{"mode": 1, "kind": "constant", "value": 1.0}]},
    }


def _finite_n_config(horizon=6.0):
    return {
        "distribution": {"family": "gaussian", "sigma": 1.0},
        "oscillators": 1024,
        "coupling": 1.0,
        "epsilon": 0.01,
        "sampling": "quantile",
        "dt": 0.01,
        "horizon": horizon,
        "output_every": 10,
        "initial_perturbation": {"modes": [{"mode": 1, "kind": "constant", "value": 1.0}]},
    }


def test_nonlinear_run_artifacts(tmp_path):
    cfg = _write_config(tmp_path, "c.json", _nonlinear_config())
    out = tmp_path / "out"
    assert main(["nonlinear", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "R.csv").exists()
    assert (out / "diagnostics.csv").read_text().splitlines()[0].startswith("t,(1+t)^4")
    scattering = json.loads((out / "scattering.json").read_text())
    assert scattering["recurrenceTime"] > 0
    assert scattering["verdict"] in ("Converged", "NotConverged")
    assert scattering["config"]["epsilon"] == 0.01


@pytest.mark.parametrize(
    "weight_order, built", [(4, [1, 2, 3, 4]), (2, [1, 2, 3, 4]), (6, [1, 2, 3, 4, 5, 6])]
)
def test_nonlinear_builds_omega_stencils_once(tmp_path, monkeypatch, weight_order, built):
    # initialize builds orders 1..4 for its report norm on the state's list;
    # run and scattering_profile grow that list only by the orders it lacks
    original, calls = spectral._stencil, []

    def counted(nodes, order):
        calls.append(order)
        return original(nodes, order)

    monkeypatch.setattr(spectral, "_stencil", counted)
    config = dict(_nonlinear_config(horizon=0.3, snapshots=(0.1, 0.2, 0.3)), grid_nodes=128,
                  weight_order=weight_order)
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["nonlinear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "scattering.json").read_text())["verdict"] != "NotEvaluated"
    assert calls == built


def test_compare_runs_and_mismatch(tmp_path, capsys):
    nl_cfg = _write_config(tmp_path, "nl.json", _nonlinear_config())
    fn_cfg = _write_config(tmp_path, "fn.json", _finite_n_config())
    out_nl, out_fn = tmp_path / "nl", tmp_path / "fn"
    assert main(["nonlinear", "--config", nl_cfg, "--out", str(out_nl)]) == 0
    assert main(["finite-n", "--config", fn_cfg, "--out", str(out_fn)]) == 0

    cmp_cfg = _write_config(
        tmp_path, "cmp.json", {"continuum_dir": str(out_nl), "finite_n_dir": str(out_fn)}
    )
    out_cmp = tmp_path / "cmp"
    assert main(["compare", "--config", cmp_cfg, "--out", str(out_cmp)]) == 0
    summary = json.loads((out_cmp / "summary.json").read_text())
    assert summary["supDifference"] <= 5e-3
    table = np.genfromtxt(out_cmp / "comparison.csv", delimiter=",", skip_header=1)
    assert table.shape[1] == 4

    # mismatched coupling is a validation error
    bad = _finite_n_config()
    bad["coupling"] = 1.5
    bad["oscillators"] = 256
    fn2_cfg = _write_config(tmp_path, "fn2.json", bad)
    out_fn2 = tmp_path / "fn2"
    assert main(["finite-n", "--config", fn2_cfg, "--out", str(out_fn2)]) == 0
    cmp2_cfg = _write_config(
        tmp_path, "cmp2.json", {"continuum_dir": str(out_nl), "finite_n_dir": str(out_fn2)}
    )
    capsys.readouterr()
    assert main(["compare", "--config", cmp2_cfg, "--out", str(tmp_path / "cmp2")]) == 2
    assert "disagree on coupling" in capsys.readouterr().err
    assert not (tmp_path / "cmp2").exists()


def test_finite_n_with_continuum_reference_emits_comparison(tmp_path, capsys):
    nl_cfg = _write_config(tmp_path, "nl.json", _nonlinear_config())
    out_nl = tmp_path / "nl"
    assert main(["nonlinear", "--config", nl_cfg, "--out", str(out_nl)]) == 0
    fn = _finite_n_config()
    fn["continuum_dir"] = str(out_nl)
    fn_cfg = _write_config(tmp_path, "fn.json", fn)
    out_fn = tmp_path / "fn"
    assert main(["finite-n", "--config", fn_cfg, "--out", str(out_fn)]) == 0
    assert (out_fn / "comparison.csv").exists()
    summary = json.loads((out_fn / "summary.json").read_text())
    assert summary["supDifference"] <= 5e-3

    # a continuum run with another horizon is rejected before anything is written
    fn["horizon"] = 3.0
    bad_cfg = _write_config(tmp_path, "bad.json", fn)
    capsys.readouterr()
    assert main(["finite-n", "--config", bad_cfg, "--out", str(tmp_path / "bad")]) == 2
    assert "disagrees on horizon" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_zero_perturbation_comparison_shows_lattice_error_only(tmp_path):
    # eps perturbation with amplitude 0 on the mode: both signals vanish up to
    # lattice error of the quantile sampling
    nl = _nonlinear_config(horizon=3.0, snapshots=())
    nl["initial_perturbation"] = {"modes": [{"mode": 1, "kind": "constant", "value": 0.0}]}
    fn = _finite_n_config(horizon=3.0)
    fn["initial_perturbation"] = {"modes": [{"mode": 1, "kind": "constant", "value": 0.0}]}
    nl_cfg = _write_config(tmp_path, "nl.json", nl)
    fn_cfg = _write_config(tmp_path, "fn.json", fn)
    out_nl, out_fn = tmp_path / "nl", tmp_path / "fn"
    assert main(["nonlinear", "--config", nl_cfg, "--out", str(out_nl)]) == 0
    assert main(["finite-n", "--config", fn_cfg, "--out", str(out_fn)]) == 0
    cmp_cfg = _write_config(
        tmp_path, "cmp.json", {"continuum_dir": str(out_nl), "finite_n_dir": str(out_fn)}
    )
    out_cmp = tmp_path / "cmp"
    assert main(["compare", "--config", cmp_cfg, "--out", str(out_cmp)]) == 0
    summary = json.loads((out_cmp / "summary.json").read_text())
    assert summary["supDifference"] <= 5.0 / 1024


def test_thread_cap_env_var(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json", {"parameter": "omega0", "values": [0.0, 1.0], "delta": 1.0}
    )
    assert main(["kc-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


_VALID = {
    "stability": lambda: {"distribution": TWO_BUMP, "coupling": 1.0},
    "kc-scan": lambda: {"parameter": "delta", "values": [1.0]},
    "linear": lambda: {
        "distribution": {"family": "cauchy", "delta": 1.0},
        "coupling": 1.0,
        "input": {"type": "poly_decay"},
        "dt": 0.05,
        "horizon": 1.0,
    },
    "witness": lambda: {
        "distribution": {"family": "cauchy", "delta": 1.0},
        "coupling": 4.0,
        "dt": 0.05,
        "horizon": 1.0,
    },
    "nonlinear": lambda: dict(_nonlinear_config(horizon=0.1, snapshots=()), grid_nodes=64),
    "finite-n": lambda: dict(_finite_n_config(), sampling="seeded", seed=0),
}


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("stability", "boundary_points", True),
        ("kc-scan", "values", [-1.0]),
        ("linear", "horizon", 0.01),
        ("linear", "weight_order", 2.5),
        ("linear", "input", {"type": "mode", "profile": {"kind": "constant"}, "grid_nodes": 4}),
        ("witness", "amplitude", 0.0),
        ("witness", "amplitude", "abc"),
        ("nonlinear", "k_max", 1),
        ("nonlinear", "k_max", 2.7),
        ("nonlinear", "grid_nodes", True),
        ("nonlinear", "grid_nodes", 4),
        ("nonlinear", "output_every", 0),
        ("nonlinear", "weight_order", 1),
        ("nonlinear", "dt", 1.0),
        ("finite-n", "oscillators", 1),
        ("finite-n", "oscillators", 2.7),
        ("finite-n", "output_every", "10"),
        ("finite-n", "sampling", "random"),
        ("finite-n", "initial_perturbation",
         {"modes": [{"mode": 1, "kind": "constant", "value": "abc"}]}),
        # wrong-typed optional values: TypeErrors while the problem is built
        ("nonlinear", "snapshot_times", 5),
        ("nonlinear", "mass_threshold", [1]),
        ("nonlinear", "initial_perturbation",
         {"modes": [{"mode": 1, "kind": "gaussian", "center": [1]}]}),
        ("linear", "fit_window", 5),
        ("linear", "fit_window", [1]),
        ("linear", "input", {"type": "poly_decay", "exponent": [1]}),
        ("finite-n", "seed", "abc"),
        ("witness", "amplitude", [1]),
        ("kc-scan", "values", [None]),
        # JSON booleans are not numbers, also where a value is optional
        ("kc-scan", "values", [True]),
        ("kc-scan", "omega0", True),
        ("witness", "amplitude", True),
        ("linear", "input", {"type": "poly_decay", "exponent": True}),
        ("linear", "input",
         {"type": "mode", "profile": {"kind": "gaussian", "amplitude": True}, "grid_nodes": 64}),
        ("nonlinear", "initial_perturbation",
         {"modes": [{"mode": 1, "kind": "gaussian", "center": True}]}),
        ("nonlinear", "initial_perturbation",
         {"modes": [{"mode": 1, "kind": "constant", "value": [0.5, True]}]}),
        ("nonlinear", "snapshot_times", [True]),
        # snapshot times lie in [0, horizon]; this nonlinear horizon is 0.1
        pytest.param("nonlinear", "snapshot_times", [-1.0, 0.05],
                     id="nonlinear-snapshot-before-start"),
        pytest.param("nonlinear", "snapshot_times", [0.05, 0.2],
                     id="nonlinear-snapshot-past-horizon"),
        ("finite-n", "seed", True),
        # JSON integers too large for a float
        pytest.param("kc-scan", "values", [10**400], id="kc-scan-values-huge-int"),
        pytest.param("stability", "coupling", 10**400, id="stability-coupling-huge-int"),
        pytest.param(
            "linear", "input",
            {"type": "mode", "profile": {"kind": "constant"}, "grid_nodes": 10**400},
            id="linear-input-grid_nodes-huge-int",
        ),
        pytest.param(
            "stability", "distribution", {"family": "cauchy", "delta": 10**400},
            id="stability-distribution-delta-huge-int",
        ),
        pytest.param("linear", "fit_window", [0.0, 10**400], id="linear-fit_window-huge-int"),
        # integer keys have a maximum as well as a minimum
        pytest.param("linear", "weight_order", 1001, id="linear-weight_order-above-max"),
        pytest.param("linear", "weight_order", 10**400, id="linear-weight_order-huge-int"),
        pytest.param("nonlinear", "weight_order", 9, id="nonlinear-weight_order-above-max"),
        pytest.param("nonlinear", "weight_order", 10**400, id="nonlinear-weight_order-huge-int"),
        pytest.param("stability", "boundary_points", 10**6 + 1,
                     id="stability-boundary_points-above-max"),
        pytest.param("stability", "boundary_points", 10**400,
                     id="stability-boundary_points-huge-int"),
        # (1+t)^weight_order must stay finite up to the last time written
        pytest.param("linear", "horizon", 1e78, id="linear-weight-factor-overflow"),
        pytest.param("linear", "horizon", 1e300, id="linear-weight-factor-overflow-far"),
        # the step count round(horizon / dt) has a cap; 1e76 passes the weight rule
        pytest.param("linear", "horizon", 1e76, id="linear-step-count-above-cap"),
        pytest.param("witness", "horizon", 1e78, id="witness-step-count-above-cap"),
        # a mode input's grid keys shape nothing, but keep the limits of a grid build
        pytest.param("linear", "input", {"type": "mode", "profile": {"kind": "constant"},
                                         "grid_nodes": 7}, id="linear-input-grid_nodes-below-8"),
        pytest.param("linear", "input", {"type": "mode", "profile": {"kind": "constant"},
                                         "mass_threshold": 1.0}, id="linear-input-mass_threshold-one"),
        pytest.param("linear", "input", {"type": "mode", "profile": {"kind": "constant"},
                                         "mass_threshold": 0}, id="linear-input-mass_threshold-zero"),
        pytest.param("linear", "input", {"type": "mode", "profile": {"kind": "constant"},
                                         "mass_threshold": True}, id="linear-input-mass_threshold-bool"),
        # no profile reads a phase delay, so the key is unknown
        pytest.param("linear", "input", {"type": "mode", "profile": {"kind": "gaussian",
                                                                       "phase_delay": 0.5}},
                     id="linear-input-profile-phase_delay"),
    ],
)
def test_invalid_value_is_config_error_without_artifacts(tmp_path, capsys, experiment, key, value):
    config = _VALID[experiment]()
    config[key] = value
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, weight_order", [("linear", 1000), ("nonlinear", MAX_DERIVATIVE_ORDER)]
)
def test_weight_order_maximum_is_accepted(tmp_path, experiment, weight_order):
    config = dict(_VALID[experiment](), weight_order=weight_order)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
    assert (out / "R.csv").exists()


@pytest.mark.parametrize(
    "horizon, code",
    [(1.03, 0), (1.032, 2), (5.0, 2)],
    ids=["just-below-limit", "just-above-limit", "horizon-5"],
)
def test_linear_weight_factor_limit(tmp_path, capsys, horizon, code):
    # 1000 ln(1 + horizon + dt/2) against ln(max float) = 709.78: 709.0 and 709.99
    config = dict(_VALID["linear"](), weight_order=1000, dt=0.004, horizon=horizon)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["linear", "--config", cfg, "--out", str(out)]) == code
    if code == 0:
        weighted = np.loadtxt(out / "R.csv", delimiter=",", skiprows=1)[:, 4]
        assert np.all(np.isfinite(weighted))
    else:
        assert not out.exists()
        assert "config error" in capsys.readouterr().err


def _csv_input(tmp_path, rows):
    path = tmp_path / "F.csv"
    path.write_text("t,ReF,ImF\n" + "".join(f"{t},{re},{im}\n" for t, re, im in rows))
    return {"input": {"type": "csv", "path": str(path)}}


@pytest.mark.parametrize(
    "experiment, change, code",
    [
        # csv input must be finite and strictly increasing in t: a config error
        ("linear", lambda tmp: _csv_input(tmp, [(0, 1, 0), (0.5, "nan", 0), (1, 0.5, 0)]), 2),
        ("linear", lambda tmp: _csv_input(tmp, [(0, 1, 0), (0.5, 0.7, "inf"), (1, 0.5, 0)]), 2),
        ("linear", lambda tmp: _csv_input(tmp, [(0, 1, 0), (1, 0.7, 0), (0.5, 0.5, 0)]), 2),
        ("linear", lambda tmp: _csv_input(tmp, [(0, 1, 0), (0.5, 0.7, 0), (0.5, 0.5, 0)]), 2),
        # exp(t) of the witness source would overflow long before t = 800: a
        # numeric failure raised before the source is evaluated, so no warning
        ("witness", lambda tmp: {"dt": 0.5, "horizon": 800.0}, 3),
        # the csv must cover [0, horizon]; interpolation would hold its end values
        ("linear", lambda tmp: _csv_input(tmp, [(0, 1, 0), (0.5, 0.7, 0), (0.9, 0.5, 0)]), 2),
        ("linear", lambda tmp: _csv_input(tmp, [(0.1, 1, 0), (0.5, 0.7, 0), (1, 0.5, 0)]), 2),
        ("linear", lambda tmp: _csv_input(tmp, []), 2),
    ],
    ids=["nan-ReF", "inf-ImF", "decreasing-t", "repeated-t", "witness-overflow",
         "short-csv", "late-start-csv", "header-only-csv"],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_or_disordered_input_exit_code(tmp_path, capsys, experiment, change, code):
    config = dict(_VALID[experiment](), **change(tmp_path))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main([experiment, "--config", cfg, "--out", str(out)]) == code
    if code == 2:
        assert not out.exists()
        assert "config error" in capsys.readouterr().err
    else:
        assert [p.name for p in out.iterdir()] == ["error.json"]
        assert json.loads((out / "error.json").read_text())["error"] == "BlowupDetected"


def test_csv_input_covering_exactly_the_horizon_runs(tmp_path):
    times = np.linspace(0.0, 1.0, 21)
    rows = [(t, f, 0.0) for t, f in zip(times, np.exp(-times))]
    config = dict(_VALID["linear"](), **_csv_input(tmp_path, rows))
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["linear", "--config", cfg, "--out", str(out)]) == 0
    r = np.genfromtxt(out / "R.csv", delimiter=",", skip_header=1)
    assert r[-1, 0] == 1.0
    assert r[0, 1] == 1.0


def test_linear_mode_source_matches_cauchy_closed_form(tmp_path):
    # g = Cauchy(1) and h = 1 give F = ghat = e^{-t}, and R = e^{(K/2 - 1) t}
    # solves R = F + (K/2) ghat * R.  With F the continuum source the product
    # trapezoid sets the error: 7.7e-7 measured (1.26e-3 from a grid sum at J = 2048).
    config = dict(
        _VALID["linear"](),
        input={"type": "mode", "profile": {"kind": "constant"}, "grid_nodes": 2048},
        dt=0.01,
        horizon=2.0,
    )
    cfg = _write_config(tmp_path, "c.json", config)
    runs = [tmp_path / "out1", tmp_path / "out2"]
    for out in runs:
        assert main(["linear", "--config", cfg, "--out", str(out)]) == 0
    data = np.genfromtxt(runs[0] / "R.csv", delimiter=",", skip_header=1)
    t, r = data[:, 0], data[:, 1] + 1j * data[:, 2]
    assert t[-1] == 2.0
    assert np.max(np.abs(r - np.exp(-0.5 * t))) <= 8e-7
    assert (runs[0] / "R.csv").read_bytes() == (runs[1] / "R.csv").read_bytes()


def test_linear_mode_source_on_narrow_two_bump(tmp_path):
    # the default-threshold grid cut of bi_cauchy(1, 0.5) used to fail in the inverse CDF
    config = dict(
        _VALID["linear"](),
        distribution={
            "family": "mixture",
            "weights": [0.5, 0.5],
            "components": [
                {"family": "cauchy", "delta": 1.0, "center": -0.5},
                {"family": "cauchy", "delta": 1.0, "center": 0.5},
            ],
        },
        input={"type": "mode", "profile": {"kind": "constant"}, "grid_nodes": 512},
    )
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["linear", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "R.csv").exists()


def test_linear_constant_mode_on_cauchy_decays_as_the_continuum(tmp_path):
    # h = 1 on Cauchy(1), K = 1: R = e^{-t/2} to the march's own O(dt^2) error,
    # which relative to R grows linearly in t.  Measured: 2.08e-5 relative at
    # t = 20.  A grid sum at J = 2048 was off by 0.59 relative up to t = 10 and
    # by 256 up to t = 20.
    config = dict(
        _VALID["linear"](),
        input={"type": "mode", "profile": {"kind": "constant"}, "grid_nodes": 2048},
        dt=0.01,
        horizon=20.0,
    )
    out = tmp_path / "out"
    assert main(["linear", "--config", _write_config(tmp_path, "c.json", config), "--out", str(out)]) == 0
    data = np.genfromtxt(out / "R.csv", delimiter=",", skip_header=1)
    t, r = data[:, 0], data[:, 1] + 1j * data[:, 2]
    assert t[-1] == 20.0
    assert np.max(np.abs(r / np.exp(-0.5 * t) - 1.0)) <= 2.2e-5


_CAUCHY_OFF_CENTRE = {"family": "cauchy", "delta": 0.8, "center": 0.5}
_GAUSSIAN_OFF_CENTRE = {"family": "gaussian", "sigma": 1.3, "center": -0.4}


@pytest.mark.parametrize(
    "distribution, profile, bound",
    [
        # the QAWF oracle of ghat on a Cauchy tail is good to about 1e-10 (6.7e-11 measured);
        # the piecewise QAWO oracle of a Gaussian profile to rounding (2.8e-16 measured)
        (_GAUSSIAN_OFF_CENTRE, {"kind": "constant", "value": [0.6, 0.3]}, 4e-16),
        (_CAUCHY_OFF_CENTRE, {"kind": "constant", "value": [0.6, 0.3]}, 1e-10),
        (TWO_BUMP, {"kind": "constant", "value": [-0.2, 1.1]}, 1e-10),
        (_CAUCHY_OFF_CENTRE,
         {"kind": "gaussian", "amplitude": 0.7, "width": 1.2, "center": -0.3}, 4e-16),
        (_GAUSSIAN_OFF_CENTRE,
         {"kind": "gaussian", "amplitude": -1.2, "width": 2.0, "center": -1.0}, 4e-16),
        (TWO_BUMP, {"kind": "gaussian", "width": 1.0, "center": 0.5}, 4e-16),
    ],
    ids=["constant-gaussian", "constant-cauchy", "constant-two-bump",
         "gaussian-cauchy", "gaussian-gaussian", "gaussian-two-bump"],
)
def test_linear_mode_source_matches_quadrature(distribution, profile, bound):
    config = dict(
        _VALID["linear"](), distribution=distribution, input={"type": "mode", "profile": profile}
    )
    dist = distribution_from_config(distribution)
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 30.0])
    values = cli._linear_source(config, dist, "linear")(t)
    if profile["kind"] == "constant":
        reference = [complex(*profile["value"]) * fourier_oracle(dist, s) for s in t]
    else:
        amplitude, width, center = profile.get("amplitude", 1.0), profile["width"], profile["center"]

        def h(w):
            return amplitude * np.exp(-0.5 * ((w - center) / width) ** 2)

        span = (center - 12.0 * width, center + 12.0 * width)
        reference = [profile_source_oracle(dist, h, s, span) for s in t]
    assert np.max(np.abs(values - np.array(reference))) <= bound


def _mode_config(**input_keys):
    return dict(
        _VALID["linear"](),
        input={"type": "mode", "profile": {"kind": "gaussian", "width": 0.9, "amplitude": 0.6},
               **input_keys},
        dt=1e-3,
        horizon=2.0,
    )


def test_linear_mode_grid_keys_do_not_change_the_source(tmp_path):
    runs = []
    for i, keys in enumerate([{}, {"grid_nodes": 8}, {"grid_nodes": 8192, "mass_threshold": 0.5}]):
        out = tmp_path / f"out{i}"
        cfg = _write_config(tmp_path, f"c{i}.json", _mode_config(**keys))
        assert main(["linear", "--config", cfg, "--out", str(out)]) == 0
        fit = json.loads((out / "decay_fit.json").read_text())
        runs.append(((out / "R.csv").read_bytes(), fit["fit"], fit["windowTooNoisy"]))
    assert runs[0] == runs[1] == runs[2]


def test_linear_mode_builds_no_grid(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a linear mode run built a frequency grid")

    monkeypatch.setattr(cli, "build_grid", no_grid)
    cfg = _write_config(tmp_path, "c.json", _mode_config(grid_nodes=2944))
    assert main(["linear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_linear_mode_memory_is_linear_in_the_step_count(tmp_path):
    # 10^5 steps peak at 16.0 MB, 160 bytes a step: the march's and the csv's
    # arrays.  A source summed over the 2,944-node grid added 10.7 MB of phase
    # tables, whatever the step count.
    steps = 100_000
    config = dict(_mode_config(grid_nodes=2944), horizon=steps * 1e-3)
    cfg = _write_config(tmp_path, "c.json", config)
    tracemalloc.start()
    try:
        assert main(["linear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * steps


def test_linear_csv_memory_is_linear_in_the_step_count(tmp_path):
    # 10^5 steps peak at 113 bytes a step: the csv's array (24), R.csv's columns
    # and the march's float arrays.  A body copied whole into a StringIO and a
    # complex march of the real F took 189.
    steps = 100_000
    t = 1e-3 * np.arange(steps + 1)
    path = tmp_path / "F.csv"
    path.write_text("t,ReF,ImF\n" + _csv_body(zip(t.tolist(), np.exp(-t).tolist(), [0] * t.size)))
    config = dict(_VALID["linear"](), input={"type": "csv", "path": str(path)},
                  dt=1e-3, horizon=steps * 1e-3)
    cfg = _write_config(tmp_path, "c.json", config)
    tracemalloc.start()
    try:
        assert main(["linear", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * steps


def _csv_reference(path, header, columns):
    """The one-value-at-a-time writer: floats with 17 significant digits, the rest by str."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*(np.asarray(column).tolist() for column in columns)):
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


# powers of ten at the ends of the fixed and vectorised ranges, and some whose
# nearest double lies so close below them that 17 digits round it up to them
_POWERS = [float(f"1e{k}") for k in (-308, -251, -250, -249, -243, -100, -99, -79, -14, -5, -4, 0,
                                     16, 17, 22, 23, 98, 99, 100, 220, 249, 250, 308)]
_AWKWARD = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1,
            -1.0 / 3.0, 1e-5, 123456789.0, 1e16, 2.0**53 + 2,
            # ties at the 18th significant digit, to round half to even both ways
            123457 / 2**18, 1 + 2**-17, -(1 + 3 * 2**-17),
            *_POWERS, *np.nextafter(_POWERS, 0.0).tolist(), *np.nextafter(_POWERS, np.inf).tolist(),
            # fixed notation with the '.' among the 16 digits (1 <= E <= 15) and every
            # count of digits after it, short of 17 significant digits and at 17
            12.5, 100.25, 1234.5, 1e15 + 0.5, *[0.5 * 10**k + 0.25 for k in range(1, 17)],
            *[(-1) ** e * ((1 + 6 * (k % 2)) * 10**e + 2.0**-k)
              for e in range(1, 16) for k in range(1, 17 - e)],
            *[k * 0.001 for k in range(1, 30001, 293)]]


@pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK, _CSV_CHUNK + 1])
def test_csv_writer_matches_one_value_at_a_time(tmp_path, rows):
    floats = np.resize(np.array(_AWKWARD), rows)
    columns = [
        floats,
        floats[::-1].copy(),
        np.arange(rows) - 3,  # integers
        [f"{v:.17g};{-v:.17g}" for v in floats],  # text, as kc-scan's critical_omegas
        [float(v) for v in floats],  # a list of Python floats
        np.arange(rows) % 2 == 0,  # booleans
        np.resize(np.array([0.1, -1 / 3, 1e-5, 3e38, 1e-45, np.nan, -np.inf], dtype=np.float32), rows),
    ]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    _write_csv(tmp_path / "new.csv", header, columns)
    _csv_reference(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_writer_matches_percent_format_on_random_doubles(tmp_path):
    # every binade, subnormals, infinities and NaN payloads, over many chunks
    bits = np.random.default_rng(16).integers(0, 2**64, size=10**6, dtype=np.uint64)
    columns = bits.view(np.float64).reshape(4, -1)
    _write_csv(tmp_path / "r.csv", list("abcd"), columns)
    rows = zip(*(column.tolist() for column in columns))
    expected = "a,b,c,d\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
    assert (tmp_path / "r.csv").read_text() == expected


def _csv_body(rows):
    return "".join(f"{t!r},{re!r},{im!r}\n" for t, re, im in rows)


_F_ROWS = [(t, float(np.exp(-t)), 0.1 * t) for t in np.linspace(0.0, 1.0, 21).tolist()]


@pytest.mark.parametrize(
    "text",
    [
        "ImF,t,ReF\n" + "".join(f"{im!r},{t!r},{re!r}\n" for t, re, im in _F_ROWS),
        "t,ReF,ImF,extra\n" + "".join(f"{t!r},{re!r},{im!r},abc\n" for t, re, im in _F_ROWS),
        " t , ReF ,ImF \n" + _csv_body(_F_ROWS),
        "# t , ReF,ImF,extra\n" + "".join(f"{t!r},{re!r},{im!r},7\n" for t, re, im in _F_ROWS),
        "\nt,Re(F),Im(F)\n# a comment\n" + _csv_body(_F_ROWS) + "\n",
    ],
    ids=["reordered", "extra-column", "spaces", "commented-header", "witness-header"],
)
@pytest.mark.filterwarnings("error")
def test_csv_input_header_forms_run(tmp_path, text):
    # every layout must give the bytes of the plain t,ReF,ImF file
    outs = []
    for name, body in (("plain", "t,ReF,ImF\n" + _csv_body(_F_ROWS)), ("other", text)):
        path = tmp_path / f"{name}.csv"
        path.write_text(body)
        config = dict(_VALID["linear"](), input={"type": "csv", "path": str(path)})
        cfg = _write_config(tmp_path, f"{name}.json", config)
        outs.append(tmp_path / name)
        assert main(["linear", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert (outs[0] / "R.csv").read_bytes() == (outs[1] / "R.csv").read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "t,ReF,Im\n" + _csv_body(_F_ROWS),
        "t,ReF\n" + _csv_body(_F_ROWS),
        "t,ReF,ImF\n0,1,0\n0.5,,0\n1,0.5,0\n",
        "t,ReF,ImF\n0,1,0\n0.5,0.7\n1,0.5,0\n",
        "t,ReF,ImF,extra\n0,1,0,1\n0.5,0.7,0\n1,0.5,0,1\n",
        "t,ReF,ImF\n0,1,0,5\n0.5,0.7,0,5\n1,0.5,0,5\n",
        "t,ReF,ImF\n0,1,0\n0.5,abc,0\n1,0.5,0\n",
        "",
        "t,ReF,ImF\n# no rows\n\n",
    ],
    ids=["missing-name", "missing-column", "empty-field", "short-row", "short-row-extra-column",
         "long-row", "text-field", "empty-file", "comments-only"],
)
@pytest.mark.filterwarnings("error")
def test_malformed_csv_input_is_config_error_without_artifacts(tmp_path, capsys, text):
    path = tmp_path / "F.csv"
    path.write_text(text)
    config = dict(_VALID["linear"](), input={"type": "csv", "path": str(path)})
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["linear", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_csv_input_with_a_late_byte_that_is_not_text_is_config_error(tmp_path, capsys):
    # the file is decoded 8 KB at a time as it is read, so loadtxt meets this byte
    path = tmp_path / "F.csv"
    path.write_bytes(b"t,ReF,ImF\n" + b"0,1,0\n" * 10**4 + b"1,\xff,0\n")
    config = dict(_VALID["linear"](), input={"type": "csv", "path": str(path)})
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, "c.json", config)
    assert main(["linear", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "is not text" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_csv_reader_memory_follows_the_parsed_array(tmp_path):
    # the body goes from the file to loadtxt a line at a time: copied whole
    # into a StringIO (4 bytes a character) it peaked at 7.8 times the array
    rows = 10**5
    t = 1e-3 * np.arange(rows)
    path = tmp_path / "F.csv"
    path.write_text("t,ReF,ImF\n" + _csv_body(zip(t.tolist(), np.exp(-t).tolist(), [0.0] * rows)))
    tracemalloc.start()
    try:
        data = _read_csv(path, ("t", "ReF", "ImF"), "linear")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.shape == (rows, 3)
    np.testing.assert_array_equal(data[:, 0], t)
    assert peak < 2 * data.nbytes


@pytest.mark.parametrize(
    "body",
    [
        b"t,Re(R),Im(R)\n0,1,0\n1,\xff\xfe,0\n",
        b"t,Re(R),Im(R)\n0,1,0\n1,0.5\n",
        b"t,Re(R)\n0,1\n",
    ],
    ids=["not-text", "short-row", "missing-column"],
)
def test_compare_with_malformed_run_csv_is_config_error(tmp_path, capsys, body):
    runs = {"nonlinear": ("nl", "R.csv"), "finite-n": ("fn", "zn.csv")}
    for experiment, (name, csv_name) in runs.items():
        (tmp_path / name).mkdir()
        sidecar = {"formatVersion": 1, "experiment": experiment, "config": {}}
        (tmp_path / name / "config.json").write_text(json.dumps(sidecar))
        (tmp_path / name / csv_name).write_bytes(body)
    dirs = {"continuum_dir": str(tmp_path / "nl"), "finite_n_dir": str(tmp_path / "fn")}
    cfg = _write_config(tmp_path, "cmp.json", dirs)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err
