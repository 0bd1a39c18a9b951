"""Config round-trips, the run pipeline, sweeps, and CLI exit codes."""

import json
import re

import numpy as np
import pytest

from pmaflow import FlowParams, cli, flow_hessian
from pmaflow.cli import RunConfig, main, run, sweep
from pmaflow.estimates import EstimateReport
from pmaflow.grid import load_trajectory, radial_smoother
from pmaflow.maxprinciple import (SpaceTimeGridReal, contact_set,
                                  lieberman_form_check, sample_space_time)


def trivial_config(**overrides):
    data = {
        "grid": {"n_complex": 1, "points_per_axis": 32},
        "flow": {"T": 1.0, "dt": 0.02},
        "rhs": {"kind": "zero"},
        "seed": 3,
        "label": "trivial",
    }
    data.update(overrides)
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip_lossless():
    cfg = trivial_config()
    back = RunConfig.from_json(cfg.to_json())
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_dict({"grid": {"n_complexx": 2}})
    with pytest.raises(ValueError, match="unknown config section"):
        RunConfig.from_dict({"grids": {}})


def test_config_validates_ranges():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"flow": {"dt": 2.0, "T": 1.0}})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"rhs": {"kind": "bogus"}})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"rhs": {"p0": 1.0}})


def _estimate_counting_steps(monkeypatch, tmp_path, data):
    """`pmaflow estimate` on a config dict: (exit code, number of
    backward-Euler steps taken, counted at the time loop's step function)."""
    steps = []
    step = flow_hessian._euler_step

    def counting(*args, **kwargs):
        steps.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(flow_hessian, "_euler_step", counting)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    code = main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    return code, len(steps)


def test_step_counter_counts_the_steps_of_an_estimate(monkeypatch, tmp_path):
    """Positive control for the "before any step" tests below: the same
    counter reads every step of the unchanged trivial config."""
    code, steps = _estimate_counting_steps(monkeypatch, tmp_path,
                                           trivial_config().to_dict())
    assert code == 0 and steps == 50
    assert (tmp_path / "x" / "trajectory.bin").exists()


def _estimate_without_stepping(monkeypatch, capsys, tmp_path, section, key, value):
    """`pmaflow estimate` on the trivial config with one field changed:
    (exit code, stderr, number of backward-Euler steps taken)."""
    data = trivial_config().to_dict()
    data[section][key] = value
    code, steps = _estimate_counting_steps(monkeypatch, tmp_path, data)
    assert not (tmp_path / "x" / "trajectory.bin").exists()
    return code, capsys.readouterr().err, steps


@pytest.mark.parametrize("value", [0, -3])
def test_config_rejects_empty_level_ladder_before_any_step(monkeypatch, capsys,
                                                           tmp_path, value):
    """s_count = 0 once passed the config checks and failed in the level
    ladder after the whole flow was solved."""
    with pytest.raises(ValueError, match="estimates.s_count"):
        trivial_config(estimates={"s_count": value})
    code, err, steps = _estimate_without_stepping(monkeypatch, capsys, tmp_path,
                                                  "estimates", "s_count", value)
    assert code == 1 and "estimates.s_count must be at least 1" in err
    assert steps == 0


@pytest.mark.parametrize("value", [0.0, -0.125])
def test_config_rejects_nonpositive_stability_eps_before_any_step(monkeypatch, capsys,
                                                                  tmp_path, value):
    """stability_eps <= 0 once failed in time_average, after the solve."""
    with pytest.raises(ValueError, match="estimates.stability_eps"):
        trivial_config(estimates={"stability_eps": value})
    code, err, steps = _estimate_without_stepping(monkeypatch, capsys, tmp_path,
                                                  "estimates", "stability_eps", value)
    assert code == 1 and "estimates.stability_eps must be positive" in err
    assert steps == 0


def test_zero_newton_iterations_rejected_before_any_step(monkeypatch, capsys, tmp_path):
    """newton_max_iter = 0 once ran zero iterations and reported a residual
    'above tolerance after 0 iterations'; FlowParams and the config now
    reject it."""
    with pytest.raises(ValueError, match="newton_max_iter must be at least 1"):
        FlowParams(newton_max_iter=0)
    with pytest.raises(ValueError, match="newton_max_iter"):
        trivial_config(flow={"T": 1.0, "dt": 0.02, "newton_max_iter": 0})
    code, err, steps = _estimate_without_stepping(monkeypatch, capsys, tmp_path,
                                                  "flow", "newton_max_iter", 0)
    assert code == 1 and "newton_max_iter must be at least 1" in err
    assert steps == 0


def _manufactured(T):
    return {"grid": {"points_per_axis": 16}, "flow": {"T": T, "dt": 0.05},
            "rhs": {"kind": "manufactured", "time_curvature": 1.0},
            "estimates": {"holder": False, "stability": False}, "label": "conv"}


def test_config_rejects_manufactured_beyond_horizon(monkeypatch):
    # curvature 1, period 1: tau(T) = T + T^2 = 2/pi^2 at T = 0.172787
    with pytest.raises(ValueError, match=r"admissible horizon 0\.172787"):
        RunConfig.from_dict(_manufactured(0.2))
    # run() validates before it solves anything
    cfg = RunConfig.from_dict(_manufactured(0.15))
    cfg.flow.T = 0.2
    monkeypatch.setattr(cli, "_solve", lambda cfg: pytest.fail("solved"))
    with pytest.raises(ValueError, match="horizon"):
        run(cfg, "unused")


def test_sweep_records_manufactured_beyond_horizon(tmp_path):
    rows = sweep(RunConfig.from_dict(_manufactured(0.1)), "flow.T", [0.1, 0.2],
                 tmp_path / "sw", max_workers=1)
    assert [r["status"] for r in rows] == ["ok", "error"]
    assert rows[1]["error"].startswith("ValueError: flow.T = 0.2 reaches")
    assert not (tmp_path / "sw" / "flow_T_001" / "trajectory.bin").exists()


def test_config_rejects_scaled_manufactured_data(monkeypatch, capsys, tmp_path):
    """rhs.scale once went unread for the manufactured kind: a run at scale 2
    wrote the scale-1 trajectory while its report echoed 2.0."""
    data = _manufactured(0.1)
    data["rhs"]["scale"] = 2.0
    with pytest.raises(ValueError, match="rhs.scale must be 1"):
        RunConfig.from_dict(data)
    RunConfig.from_dict({**data, "rhs": {**data["rhs"], "scale": 1.0}})
    monkeypatch.setattr(cli, "_solve", lambda cfg: pytest.fail("solved"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "rhs.scale must be 1" in capsys.readouterr().err
    assert not out.exists()


# Configs that `from_dict` once accepted and that failed only once `run` had
# made the output directory; the wrong-length center ran, with e^F constant
# along x_2 and y_2.  Each entry: the changed sections, and a fragment of
# the message that names the field.
LATE_FAILING_CONFIGS = {
    "unknown_symbol": ({"flow": {"equation": "hessian", "symbol": "bogus"}},
                       "symbol name 'bogus'"),
    "k_l_out_of_range": ({"flow": {"equation": "hessian", "symbol": "sigma_quotient",
                                   "k": 1, "l": 1}}, "k=1, l=1"),
    "unknown_initial_condition": ({"flow": {"initial_condition": "bogus"}},
                                  "unknown flow.initial_condition 'bogus'"),
    "odd_points_per_axis": ({"grid": {"points_per_axis": 31}}, "points_per_axis"),
    "nonpositive_moll_radius": ({"rhs": {"kind": "mollified_log_singularity",
                                         "moll_radius": 0.0}}, "moll_radius"),
    "manufactured_at_n2": ({"grid": {"n_complex": 2, "points_per_axis": 8},
                            "rhs": {"kind": "manufactured"}}, "n_complex = 2"),
    "short_center": ({"grid": {"n_complex": 2, "points_per_axis": 8},
                      "rhs": {"kind": "mollified_log_singularity",
                              "center": [0.5, 0.5]}}, "rhs.center"),
}


@pytest.mark.parametrize("name", sorted(LATE_FAILING_CONFIGS))
def test_config_refused_before_any_directory(monkeypatch, capsys, tmp_path, name):
    """Each config is refused by `from_dict` with its field named, and
    `pmaflow estimate` exits 1 without making its output directory."""
    changes, fragment = LATE_FAILING_CONFIGS[name]
    data = trivial_config(flow={"T": 0.1, "dt": 0.05}).to_dict()
    for section, values in changes.items():
        data[section].update(values)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        RunConfig.from_dict(data)
    monkeypatch.setattr(cli, "_solve", lambda cfg: pytest.fail("solved"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "x"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("grid.points_per_axis", "16,32"),
                                          ("estimates.s_count", "5,9"),
                                          ("seed", "1,2")])
def test_sweep_over_an_integer_field(tmp_path, axis, values):
    """The CLI parses every sweep value as a float; an integer field once
    failed every run with "'float' object cannot be interpreted as an
    integer"."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config(flow={"T": 0.1, "dt": 0.02}).to_json())
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg_path), "--axis", axis,
                 "--values", values, "--workers", "1", "--out", str(out)]) == 0
    for idx, value in enumerate(values.split(",")):
        report = json.loads(
            (out / f"{axis.replace('.', '_')}_{idx:03d}" / "report.json").read_text())
        node = report["extra"]["config"]
        for key in axis.split("."):
            node = node[key]
        assert node == int(value) and isinstance(node, int)


def test_config_rejects_non_integral_value_of_an_integer_field():
    with pytest.raises(ValueError, match="'grid.points_per_axis' takes an integer"):
        trivial_config(grid={"n_complex": 1, "points_per_axis": 16.5})
    with pytest.raises(ValueError, match="'seed' takes an integer"):
        trivial_config(seed=2.5)
    cfg = trivial_config(grid={"n_complex": 1.0, "points_per_axis": 16.0},
                         estimates={"entropy": True})
    assert (cfg.grid.n_complex, cfg.grid.points_per_axis) == (1, 16)
    assert type(cfg.grid.points_per_axis) is int and cfg.estimates.entropy is True


# ---------------------------------------------------------------------------
# run


def test_run_trivial_report(tmp_path):
    report, checks = run(trivial_config(), tmp_path / "out")
    assert all(v for v in checks.values() if isinstance(v, bool))
    series = np.asarray(report.I_series)
    times = np.linspace(0, 1, len(series))
    assert np.abs(series + times).max() < 1e-9
    assert report.holder_time[0] == pytest.approx(1.0, abs=1e-9)
    # phi = -t exactly: I = -t and det(I + H) = 1, so both identities hold
    assert checks["i_identity"]
    assert report.extra["I_variation_residual"] <= 1e-12
    assert (tmp_path / "out" / "trajectory.bin").exists()
    assert (tmp_path / "out" / "levelstats.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "plots" / "i_functional.gp").exists()


def test_run_takes_each_slice_hessian_once_after_the_solve(tmp_path, monkeypatch):
    """The admissibility check and the I series share one Hessian per slice."""
    from pmaflow import cli, estimates, grid

    calls, hessian_parts, solve = [], grid.hessian_parts, cli._solve

    def counting(values, g):
        calls.append(values.shape)
        return hessian_parts(values, g)

    def solve_then_count(cfg):
        out = solve(cfg)
        for module in (cli, estimates, grid):
            monkeypatch.setattr(module, "hessian_parts", counting, raising=False)
        return out

    monkeypatch.setattr(cli, "_solve", solve_then_count)
    cfg = trivial_config(grid={"n_complex": 1, "points_per_axis": 16},
                         flow={"T": 0.1, "dt": 0.02},
                         estimates={"i_series": True, "stability": False})
    report, checks = run(cfg, tmp_path / "out")
    n_times = len(report.I_series)
    assert n_times == 6 and checks["admissible"] and checks["i_nonincreasing"]
    assert calls == [(16, 16)] * n_times


def test_run_csvs_are_written_by_one_writer(tmp_path):
    """The run's CSV files write floats .17g, which read back bit for bit,
    None as an empty field and strings as they are."""
    path = tmp_path / "rows.csv"
    cli._write_csv(path, ["kind", "a", "b"],
                   [("time", 0.1, None), ("space", np.float64(1.0) / 3.0, 2e-300)])
    assert path.read_bytes() == (b"kind,a,b\r\ntime,0.10000000000000001,\r\n"
                                 b"space,0.33333333333333331,2.0000000000000001e-300\r\n")
    rows = path.read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [0.1, 1.0 / 3.0]


def test_run_deterministic_reports(tmp_path):
    cfg = trivial_config(label="det", seed=11)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())
    assert ((tmp_path / "a" / "trajectory.bin").read_bytes()
            == (tmp_path / "b" / "trajectory.bin").read_bytes())


def test_run_singular_rhs_finite_entropy(tmp_path):
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 32},
        "flow": {"T": 0.25, "dt": 1.0 / 32},
        "rhs": {"kind": "mollified_log_singularity", "strength": 0.3,
                "moll_radius": 0.05, "p0": 2.0},
        "label": "singular",
    })
    report, checks = run(cfg, tmp_path / "s")
    assert np.isfinite(report.entropy_p)
    assert np.isfinite(report.holder_time[0])
    assert "lp0_norm" in report.extra
    assert all(v for v in checks.values() if isinstance(v, bool))
    assert checks["i_identity"] is True   # dI/dt = -int e^F on singular data


def test_singular_estimate_samples_the_rhs_once(tmp_path, monkeypatch):
    """A singular-data `estimate` evaluates e^F over the trajectory once:
    the L^{p0} norm reads the e^F trajectory `run` already sampled."""
    calls = []
    sample = cli.RhsSpec.sample

    def counting(self, grid, times):
        calls.append(len(times))
        return sample(self, grid, times)

    monkeypatch.setattr(cli.RhsSpec, "sample", counting)
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 16},
        "flow": {"T": 0.05, "dt": 0.01},
        "rhs": {"kind": "mollified_log_singularity", "strength": 0.3,
                "moll_radius": 0.1},
        "estimates": {"holder": False, "stability": False}})
    report, _ = run(cfg, tmp_path / "s")
    assert calls == [6]
    assert np.isfinite(report.extra["lp0_norm"])


_NON_FINITE = [
    ("rhs.scale", float("nan")), ("rhs.strength", float("nan")),
    ("rhs.moll_radius", float("nan")), ("flow.admissibility_floor", float("nan")),
    ("flow.newton_tol", float("nan")), ("flow.T", float("inf")),
    ("rhs.p0", float("nan")), ("rhs.center", [0.5, float("nan")])]


@pytest.mark.parametrize("field, value", _NON_FINITE,
                         ids=[field for field, _ in _NON_FINITE])
def test_config_refuses_non_finite_numbers(tmp_path, field, value):
    """A NaN or infinite number, which `json.loads` accepts, is refused by
    the field's name when the config is read, before `estimate` makes its
    output directory."""
    section, key = field.split(".")
    data = {"grid": {"points_per_axis": 16}, "flow": {"T": 0.05, "dt": 0.01},
            "rhs": {"kind": "mollified_log_singularity"}}
    data[section][key] = value
    text = json.dumps(data)
    with pytest.raises(ValueError, match=re.escape(f"'{field}' must be finite")):
        RunConfig.from_json(text)
    (tmp_path / "cfg.json").write_text(text)
    assert main(["estimate", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_singular_hessian_estimate_checks_the_variation_identity(tmp_path):
    """The first variation does not involve F, so singular data keep it."""
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 32},
        "flow": {"equation": "hessian", "symbol": "l0_sigma_k", "k": 1,
                 "T": 0.25, "dt": 1.0 / 32},
        "rhs": {"kind": "mollified_log_singularity", "strength": 0.3,
                "moll_radius": 0.05, "p0": 2.0},
        "estimates": {"holder": False, "stability": False},
        "label": "singular_hessian",
    })
    report, checks = run(cfg, tmp_path / "s")
    assert checks["i_identity"] is True
    assert np.isfinite(report.extra["I_variation_residual"])


def test_run_hessian_equation(tmp_path):
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 16},
        "flow": {"equation": "hessian", "symbol": "full_sigma_k", "k": 2,
                 "T": 0.2, "dt": 0.05},
        "rhs": {"kind": "zero"},
        "estimates": {"holder": False},
        "label": "hess",
    })
    report, checks = run(cfg, tmp_path / "h")
    series = np.asarray(report.I_series)
    assert np.abs(series[-1] + 0.2) < 1e-8  # trivial solution of the top symbol
    assert all(v for v in checks.values() if isinstance(v, bool))


def test_full_sigma_2_cannot_run_the_sigma_n2_data(tmp_path):
    """A finding about the range of full_sigma_k, pinned: on the n=2 N=16
    benchmark config (config seed 0) with sigma_2 in place of sigma_2 /
    sigma_1, e^F falls below f(0+, lambda) = sigma_2(lambda')^{1/2} at the
    first step, so no rate solves it and the run stops there."""
    cfg = RunConfig.from_dict({
        "grid": {"n_complex": 2, "points_per_axis": 16},
        "flow": {"equation": "hessian", "symbol": "full_sigma_k", "k": 2,
                 "l": 1, "T": 0.04, "dt": 0.01,
                 "initial_condition": "random_band"},
        "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
                "profile": "decay", "p0": 2.0},
        "estimates": {"entropy_p": 2.0, "beta": 0.25, "alpha0": 1.0},
        "seed": 0, "label": "sigma_n2"})
    with pytest.raises(flow_hessian.ConeViolation,
                       match=re.escape("e^F = 1.4859 <= f(0+, lambda) = 1.52118")
                       ) as caught:
        run(cfg, tmp_path / "run")
    assert caught.value.location == (0, 2, 0, 14)
    assert caught.value.t == 0.01


def test_hessian_estimate_checks_the_variation_identity(tmp_path):
    """dI/dt = -int e^F is the Monge-Ampere identity; a sigma_2/sigma_1 flow
    is checked against dI = int dphi det(I + H), and `estimate` exits 0."""
    cfg = RunConfig.from_dict({
        "grid": {"n_complex": 2, "points_per_axis": 8},
        "flow": {"equation": "hessian", "symbol": "sigma_quotient", "k": 2, "l": 1,
                 "T": 0.04, "dt": 0.01, "initial_condition": "random_band"},
        "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
                "profile": "decay"},
        "seed": 7, "label": "sigma_quotient"})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = EstimateReport.from_json((out / "report.json").read_text())
    assert report.extra["checks"]["i_identity"] is True
    assert report.extra["I_variation_residual"] < 0.1 * report.I_derivative_residual
    assert "I_variation_residual" not in report.extra["check_values"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_manufactured_convergence(tmp_path):
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 32},
        "flow": {"T": 0.1, "dt": 0.01},
        "rhs": {"kind": "manufactured", "time_curvature": 1.0},
        "estimates": {"holder": False, "stability": False},
        "label": "conv",
    })
    rows = sweep(cfg, "flow.dt", [0.01, 0.005, 0.0025], tmp_path / "sw",
                 max_workers=2)
    assert [r["status"] for r in rows] == ["ok"] * 3
    errs = [r["sup_error"] for r in rows]
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)
    text = (tmp_path / "sw" / "sweep.csv").read_text()
    assert "sup_error" in text.splitlines()[0]


def test_sweep_records_failures_and_continues(tmp_path):
    cfg = trivial_config(label="mix")
    rows = sweep(cfg, "flow.dt", [0.02, 5.0], tmp_path / "sw2", max_workers=2)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error"
    assert "error" in rows[1]
    # the failing run leaves the successful run's artifacts intact
    assert (tmp_path / "sw2" / "flow_dt_000" / "report.json").exists()


def test_sweep_empty_values(tmp_path):
    rows = sweep(trivial_config(), "flow.dt", [], tmp_path / "sw3")
    assert rows == []
    assert (tmp_path / "sw3" / "sweep.csv").exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_nonpositive_workers(tmp_path, workers):
    out = tmp_path / "sw5"
    with pytest.raises(ValueError, match="--workers"):
        sweep(trivial_config(), "flow.dt", [0.02], out, max_workers=workers)
    assert not out.exists()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(KeyError):
        sweep(trivial_config(), "flow.nope", [0.1], tmp_path / "sw4")


# ---------------------------------------------------------------------------
# CLI entry points


def test_cli_estimate_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config().to_json())
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["report", "--dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_cli_solve_writes_checkpoint(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config().to_json())
    out = tmp_path / "sv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    from pmaflow import load_trajectory
    traj = load_trajectory(out / "trajectory.bin")
    assert traj.times[-1] == 1.0


def test_cli_regularize_battery(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config().to_json())
    sv = tmp_path / "sv"
    main(["solve", "--config", str(cfg_path), "--out", str(sv)])
    out = tmp_path / "reg"
    code = main(["regularize", "--traj", str(sv / "trajectory.bin"),
                 "--epsilon", "0.125", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "regularize.json").read_text())
    assert result["checks"]["sandwich_lower"]
    assert result["checks"]["sandwich_upper"]


def test_cli_regularize_at_n2_n8(tmp_path):
    """At N = 8 the ball-mass radii start at the 0.45 L cap, below 4h = L/2:
    the battery still runs, and the fit reports its no-fit sentinel."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config(
        grid={"n_complex": 2, "points_per_axis": 8},
        flow={"equation": "hessian", "symbol": "sigma_quotient", "k": 2,
              "l": 1, "T": 0.02, "dt": 0.01, "initial_condition": "random_band"},
        rhs={"kind": "smooth_product", "spatial_amplitude": 0.4}).to_json())
    sv = tmp_path / "sv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(sv)]) == 0
    out = tmp_path / "reg"
    code = main(["regularize", "--traj", str(sv / "trajectory.bin"),
                 "--epsilon", "0.125", "--out", str(out)])
    assert code == 0
    result = json.loads((out / "regularize.json").read_text())
    assert all(result["checks"].values())
    assert result["ball_mass_exponent"] == float("inf")


def test_regularize_battery_one_forward_transform_per_slice(
        tmp_path, monkeypatch, forward_transforms):
    """The sandwich takes rho_eps phi from the transform's own smoother."""
    from pmaflow import cli
    from pmaflow import regularize as reg

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(trivial_config(
        grid={"n_complex": 1, "points_per_axis": 16},
        flow={"T": 0.06, "dt": 0.02, "initial_condition": "random_band"},
        rhs={"kind": "smooth_product", "spatial_amplitude": 0.4}).to_json())
    sv = tmp_path / "sv"
    assert main(["solve", "--config", str(cfg_path), "--out", str(sv)]) == 0
    traj_path = sv / "trajectory.bin"
    traj = load_trajectory(traj_path)
    assert traj.n_times == 4
    cli._regularize_battery(traj_path, 0.125, 0.5)   # warm the kernel cache

    # the theta-scale bound and the ball-mass profile transform on their own
    apart = []

    def count_apart(fn):
        def wrapped(*args, **kwargs):
            before = len(forward_transforms)
            out = fn(*args, **kwargs)
            apart.append(len(forward_transforms) - before)
            return out
        return wrapped

    for name in ("theta_scale_bound", "ball_mass_profile"):
        monkeypatch.setattr(reg, name, count_apart(getattr(reg, name)))
    forward_transforms.clear()
    result = cli._regularize_battery(traj_path, 0.125, 0.5)
    assert len(forward_transforms) - sum(apart) == traj.n_times
    assert set(forward_transforms) == {traj.grid.shape}

    # the same upper sandwich as mollifying every slice on its own
    params = reg.RegularizationParams(epsilon=0.125, gamma=0.5)
    excess = max(float((reg.kiselman_legendre(f, params).values
                        - radial_smoother(f)(0.125)).max())
                 for f in map(traj.field_at, range(traj.n_times)))
    assert result["sandwich_upper_excess"] == excess


@pytest.mark.parametrize("dim", [2, 3])
def test_cli_maxprinciple_battery(tmp_path, dim):
    out = tmp_path / "mp"
    assert main(["maxprinciple", "--dim", str(dim), "--out", str(out)]) == 0
    result = json.loads((out / "maxprinciple.json").read_text())
    assert result["checks"]["paraboloid_exact"]
    assert result["checks"]["spread_bounded"]
    assert abs(result["paraboloid_integral"]
               - result["paraboloid_exact"]) <= 1e-8
    if dim == 2:
        # the same numbers from the two checks called directly, on caps
        # sampled by sample_space_time and on materialized coefficients
        stg = SpaceTimeGridReal(m=2, n_points=41, T=0.4, n_steps=16,
                                domain="ball", ball_radius=0.45)
        shape = (17, 41, 41)

        def cap(a):
            return sample_space_time(stg, lambda t, *xs: t - a * sum(
                (x - 0.5) ** 2 for x in xs))

        assert (result["paraboloid_integral"]
                == contact_set(stg, cap(1.0)).integral_value)
        implied = [lieberman_form_check(
            stg, cap(a), np.broadcast_to(np.eye(2), shape + (2, 2)).copy(),
            np.full(shape, -(1.0 + 2.0 * a * 2))).implied_constant
            for a in (2.0, 3.0, 4.0)]
        assert result["implied_constants"] == implied


def test_cli_execution_error_exit_code(tmp_path):
    code = main(["estimate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_report_from_json_matches(tmp_path):
    report, _ = run(trivial_config(), tmp_path / "r")
    loaded = EstimateReport.from_json((tmp_path / "r" / "report.json").read_text())
    assert loaded.I_series == report.I_series
    assert loaded.extra["checks"] == report.extra["checks"]


def test_cli_solve_flag_overrides(tmp_path):
    rhs_path = tmp_path / "rhs.json"
    rhs_path.write_text(json.dumps({"kind": "time_only", "profile": "sin"}))
    out = tmp_path / "flags"
    code = main(["solve", "--T", "0.2", "--dt", "0.05", "--grid-N", "16",
                 "--rhs", str(rhs_path), "--out", str(out)])
    assert code == 0
    from pmaflow import load_trajectory
    traj = load_trajectory(out / "trajectory.bin")
    assert traj.grid.points_per_axis == 16
    assert traj.times[-1] == pytest.approx(0.2)


def test_sweep_time_average_epsilon_ladder(tmp_path):
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 32},
        "flow": {"T": 0.5, "dt": 1.0 / 32},
        "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
                "profile": "decay", "p0": 2.0},
        "estimates": {"holder": False},
        "label": "eps-ladder",
    })
    values = [2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6]
    rows = sweep(cfg, "estimates.stability_eps", values, tmp_path / "sw",
                 max_workers=2)
    assert all(r["status"] == "ok" for r in rows)
    l1s = [r["stability_l1"] for r in rows]
    slope = np.polyfit(np.log(values), np.log(l1s), 1)[0]
    assert slope >= 0.95


def test_config_validates_estimate_exponents():
    with pytest.raises(ValueError, match="entropy_p"):
        RunConfig.from_dict({"estimates": {"entropy_p": -1.0}})
    with pytest.raises(ValueError, match="alpha0"):
        RunConfig.from_dict({"estimates": {"alpha0": 0.0}})
    with pytest.raises(ValueError, match="mt_base"):
        RunConfig.from_dict({"estimates": {"mt_base": "n_plus_3"}})
    with pytest.raises(ValueError, match="stability_alpha"):
        RunConfig.from_dict({"estimates": {"stability_alpha": 0.5}})


def test_run_records_both_mt_bases(tmp_path):
    report, _ = run(trivial_config(), tmp_path / "mt")
    assert "mt_sup_n_plus_1" in report.extra
    assert "mt_sup_n_plus_2" in report.extra
    assert np.isfinite(report.extra["mt_sup_n_plus_1"])
