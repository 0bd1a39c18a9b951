"""End-to-end estimate pipelines on flows with singular right-hand sides.

These tie the pieces together the way the a priori theory does: solve a
flow whose data is only integrably bounded, build its level ladder, feed
the ladder to the De Giorgi iteration, and confirm the resulting threshold
dominates the solution's actual excursion; separately, confirm the fitted
Holder moduli stay bounded as the data roughens at a fixed integrability
budget.  The Hessian family repeats the L-infinity pipeline at n=2 for
two symbols that reach data below e^F = 1.  A dtype guard runs the whole
`estimate` pipeline on an n=1 Monge-Ampere flow and an n=2 sigma_2/sigma_1
flow, and checks that the single-precision Krylov applications leave no
float32 array behind.
"""

from dataclasses import asdict

import numpy as np
import pytest

from pmaflow import FlowParams, RhsSpec, TorusGrid, cli, solve_flow, stepping
from pmaflow.cli import RunConfig, run
from pmaflow.estimates import (
    DeGiorgiParams,
    de_giorgi_extinction,
    de_giorgi_ladder_check,
    entropy,
    holder_moduli,
    level_stats,
)
from pmaflow.grid import load_trajectory


@pytest.fixture(scope="module")
def singular_runs():
    """Flows at shrinking mollification radius, fixed L^{p0} budget."""
    grid = TorusGrid(1, 64)
    params = FlowParams(T=0.25, dt=1.0 / 64)
    runs = {}
    for r_moll in (0.1, 0.05, 0.025):
        rhs = RhsSpec.mollified_log_singularity((0.5, 0.5), strength=0.3,
                                                moll_radius=r_moll, p0=2.0)
        traj = solve_flow(grid.constant_field(0.0), rhs, params)
        eF, F = rhs.sample(grid, traj.times)
        runs[r_moll] = (traj, eF, F, rhs)
    return params, runs


def _ladder_to_extinction(traj, eF, p):
    """flow -> ladder -> iteration hypothesis at delta = 1/(n+1) - 1/p:
    the ladder check, the threshold and the true excursion sup(-phi)."""
    n = traj.grid.n_complex
    delta = 1.0 / (n + 1.0) - 1.0 / p
    s0 = float(np.abs(traj.values[0]).max())  # = 0 for zero initial data
    sup_excursion = float((-traj.values).max())
    s_grid = np.linspace(s0, 1.5 * sup_excursion, 121)
    stats = level_stats(traj, eF, s_grid)

    b0 = 0.0
    for i, s in enumerate(s_grid):
        r = s_grid[i + 1:] - s
        if stats.phi_of_s[i] > 0 and r.size:
            b0 = max(b0, float((r * stats.phi_of_s[i + 1:]).max()
                               / stats.phi_of_s[i] ** (1 + delta)))
    dg = DeGiorgiParams(B0=b0, delta=delta, s0=s0,
                        phi_s0=float(stats.phi_of_s[0]))
    report = de_giorgi_ladder_check(s_grid, stats.phi_of_s, dg)
    return report, de_giorgi_extinction(dg), sup_excursion


_HESSIAN_RADII = (0.2, 0.1, 0.05)   # 0.025 is unresolved at h = 1/12


@pytest.fixture(scope="module")
def hessian_singular_runs(tmp_path_factory):
    """n=2 Hessian flows at shrinking mollification radius, through `run`."""
    runs = {}
    for symbol, k, l in (("l0_sigma_k", 2, 0), ("sigma_quotient", 2, 1)):
        for r_moll in _HESSIAN_RADII:
            cfg = RunConfig.from_dict({
                "grid": {"n_complex": 2, "points_per_axis": 12},
                "flow": {"equation": "hessian", "symbol": symbol, "k": k, "l": l,
                         "T": 0.125, "dt": 1.0 / 32},
                "rhs": {"kind": "mollified_log_singularity", "strength": 0.3,
                        "moll_radius": r_moll, "p0": 2.0},
                "estimates": {"holder": False, "stability": False,
                              "moser_trudinger": False, "exp_alpha": False,
                              "level_stats": False},
                "label": f"{symbol}_{r_moll}"})
            out = tmp_path_factory.mktemp(f"{symbol}_{r_moll}")
            _, checks = run(cfg, out)
            traj = load_trajectory(out / "trajectory.bin")
            rhs = RhsSpec.mollified_log_singularity((0.5,) * 4, strength=0.3,
                                                    moll_radius=r_moll, p0=2.0)
            eF, _ = rhs.sample(traj.grid, traj.times)
            runs[symbol, r_moll] = (traj, eF, checks)
    return runs


def test_hessian_sup_bounded_as_data_roughens_n2(hessian_singular_runs):
    for symbol in ("l0_sigma_k", "sigma_quotient"):
        sups = [float(np.abs(hessian_singular_runs[symbol, r][0].values).max())
                for r in _HESSIAN_RADII]
        assert all(np.diff(sups) > 0.0)    # rougher data, larger excursion
        assert sups[-1] < 1.0
        assert sups[-1] / sups[0] <= 1.5


def test_hessian_level_ladder_to_extinction_threshold_n2(hessian_singular_runs):
    for traj, eF, _ in hessian_singular_runs.values():
        # p = 4 keeps delta = 1/3 - 1/p positive at n = 2
        report, threshold, sup_excursion = _ladder_to_extinction(traj, eF, 4.0)
        assert report["hypothesis_ok"]
        assert report["extinct_at_threshold"]
        assert threshold >= sup_excursion


def test_flow_checks_hold_on_hessian_singular_family_n2(hessian_singular_runs):
    for _, _, checks in hessian_singular_runs.values():
        assert checks["i_identity"] is True
        assert all(v for v in checks.values() if isinstance(v, bool))


def test_lp0_budget_bounded_as_data_roughens(singular_runs):
    params, runs = singular_runs
    norms = []
    sups = []
    for r_moll, (traj, eF, _, rhs) in runs.items():
        norms.append(rhs.lp0_norm(traj.grid, traj.times))
        sups.append(float(eF.values.max()))
    # sup e^F scales like r^{-2q}: 2.3x over this range, while the L^{p0}
    # norm stays within 10%
    assert sups[-1] > 2.0 * sups[0]
    assert max(norms) / min(norms) <= 1.5


def test_level_ladder_to_extinction_threshold(singular_runs):
    params, runs = singular_runs
    traj, eF, F, _ = runs[0.05]
    p = 3.0
    assert entropy(eF, F, p=p) < np.inf
    report, threshold, sup_excursion = _ladder_to_extinction(traj, eF, p)
    assert report["hypothesis_ok"]
    assert report["extinct_at_threshold"]
    assert threshold >= sup_excursion  # the iteration dominates the solution


def test_holder_moduli_bounded_across_singular_family(singular_runs):
    params, runs = singular_runs
    exps, consts = [], []
    for r_moll, (traj, _, _, _) in runs.items():
        fits = holder_moduli(traj)
        exps.append(fits["time"][0])
        consts.append(fits["time"][1])
    assert all(0.0 < e <= 1.05 for e in exps)
    assert max(consts) / min(consts) <= 3.0


def test_flow_checks_hold_on_singular_family(singular_runs):
    params, runs = singular_runs
    from pmaflow import min_admissibility_eigenvalue
    for traj, _, _, _ in runs.values():
        assert np.diff(traj.values, axis=0).max() <= 10 * params.newton_tol
        assert (min_admissibility_eigenvalue(traj.field_at(traj.n_times - 1))
                >= params.admissibility_floor * (1 - 1e-6))


def test_omega_volume_ladder_to_stability_threshold(generic_flow):
    # the comparator route: vol(Omega_{s,delta}) ladder satisfies the
    # iteration hypothesis and its threshold dominates sup((1-delta)v - phi)
    from pmaflow.regularize import time_average
    traj, eF, _, _, _ = generic_flow
    v = time_average(traj, 0.125)
    delta = 0.25
    q0 = 2.0
    n = traj.grid.n_complex
    eta = 0.9 / (q0 * (n + 1.0))

    gap = (1.0 - delta) * v.values - traj.values
    sup_gap = float(gap.max())
    assert sup_gap > 0.0  # nontrivial excursion for the ladder
    s0 = float(np.maximum(gap[0], 0.0).max())
    s_grid = np.linspace(s0, 1.5 * sup_gap, 121)
    stats = level_stats(traj, eF, s_grid, comparator=v, delta=delta)

    b0 = 0.0
    for i, s in enumerate(s_grid):
        r = s_grid[i + 1:] - s
        if stats.omega_vol[i] > 0 and r.size:
            b0 = max(b0, float((r * stats.omega_vol[i + 1:]).max()
                               / stats.omega_vol[i] ** (1 + eta)))
    dg = DeGiorgiParams(B0=b0, delta=eta, s0=s0,
                        phi_s0=float(stats.omega_vol[0]))
    threshold = de_giorgi_extinction(dg)
    report = de_giorgi_ladder_check(s_grid, stats.omega_vol, dg)
    assert report["hypothesis_ok"]
    assert report["extinct_at_threshold"]
    assert threshold >= sup_gap


_DTYPE_GUARD_RUNS = {
    "ma_n1": {"grid": {"n_complex": 1, "points_per_axis": 32},
              "flow": {"equation": "ma", "T": 0.1, "dt": 0.01},
              "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
                      "profile": "decay"}},
    "sigma_quotient_n2": {"grid": {"n_complex": 2, "points_per_axis": 8},
                          "flow": {"equation": "hessian", "symbol": "sigma_quotient",
                                   "k": 2, "l": 1, "T": 0.08, "dt": 0.01,
                                   "initial_condition": "random_band"},
                          "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
                                  "profile": "decay"},
                          "seed": 5},
}


def _float_leaves(obj):
    """The floating-point leaves of a nested dict/list/tuple report."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _float_leaves(v)]
    if isinstance(obj, (list, tuple)):
        return [x for v in obj for x in _float_leaves(v)]
    if isinstance(obj, (float, np.floating, np.ndarray)):
        return [obj]
    return []


@pytest.mark.parametrize("name", sorted(_DTYPE_GUARD_RUNS))
def test_no_single_precision_array_leaves_the_solver(monkeypatch, tmp_path, name):
    """Loose Krylov solves apply their operator in float32, but every Newton
    update, the trajectory, its checkpoint and the report stay float64."""
    solves, solved = [], []
    solve_linearized, solve = stepping._solve_linearized, cli._solve

    def recording_linearized(grid, zeroth, weights, rhs, rtol, maxiter):
        delta, info = solve_linearized(grid, zeroth, weights, rhs, rtol, maxiter)
        solves.append((rtol, delta.dtype))
        return delta, info

    def recording_solve(cfg):
        solved.append(solve(cfg))
        return solved[-1]

    monkeypatch.setattr(stepping, "_solve_linearized", recording_linearized)
    monkeypatch.setattr(cli, "_solve", recording_solve)
    report, _ = run(RunConfig.from_dict(_DTYPE_GUARD_RUNS[name]), tmp_path)

    # the single-precision path ran, and handed back float64 updates only
    assert any(rtol >= stepping._SINGLE_PRECISION_RTOL for rtol, _ in solves)
    assert any(rtol < stepping._SINGLE_PRECISION_RTOL for rtol, _ in solves)
    assert {dtype for _, dtype in solves} == {np.dtype(np.float64)}

    traj = solved[0][0]
    assert traj.values.dtype == np.float64 and traj.times.dtype == np.float64
    # the checkpoint holds those float64 values bit for bit
    points = traj.grid.points_per_axis ** traj.grid.real_dim
    path = tmp_path / "trajectory.bin"
    assert path.stat().st_size == 8 * (6 + traj.n_times * (1 + points))
    loaded = load_trajectory(path)
    assert loaded.values.dtype == np.float64
    assert np.array_equal(loaded.values, traj.values)

    leaves = _float_leaves(asdict(report))
    assert leaves
    assert all(np.asarray(x).dtype == np.float64 for x in leaves)
    assert (tmp_path / "report.json").read_text() == report.to_json() + "\n"
