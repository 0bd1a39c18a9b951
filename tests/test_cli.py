"""Config round-trips, the run pipeline, sweeps, and CLI exit codes."""

import json

import numpy as np
import pytest

from pmaflow.cli import RunConfig, main, run, sweep
from pmaflow.estimates import EstimateReport


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


# ---------------------------------------------------------------------------
# run


def test_run_trivial_report(tmp_path):
    report, checks = run(trivial_config(), tmp_path / "out")
    assert all(v for v in checks.values() if isinstance(v, bool))
    series = np.asarray(report.I_series)
    times = np.linspace(0, 1, len(series))
    assert np.abs(series + times).max() < 1e-9
    assert report.holder_time[0] == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "out" / "trajectory.bin").exists()
    assert (tmp_path / "out" / "levelstats.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "plots" / "i_functional.gp").exists()


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


@pytest.mark.parametrize("dim", [2, 3])
def test_cli_maxprinciple_battery(tmp_path, dim):
    out = tmp_path / "mp"
    assert main(["maxprinciple", "--dim", str(dim), "--out", str(out)]) == 0
    result = json.loads((out / "maxprinciple.json").read_text())
    assert result["checks"]["paraboloid_exact"]
    assert result["checks"]["spread_bounded"]
    assert abs(result["paraboloid_integral"]
               - result["paraboloid_exact"]) <= 1e-8


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
