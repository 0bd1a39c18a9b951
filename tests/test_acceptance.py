"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Absolute constants of the underlying a priori theory are not
reproducible, so every criterion is exact-identity, oracle-equivalence, or
family-boundedness based, at the tolerance stated in its test.

One scheme fact matters twice below: the pinned manufactured solution is
linear in t, and backward Euler reproduces time-linear solutions exactly
(the backward difference quotient of a linear function equals its
derivative).  Temporal order is therefore measured on the time-curved
variant of the same family, while the pinned solution is held to the much
stronger exactness bar.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from pmaflow import (
    FlowParams,
    HessianSymbol,
    RhsSpec,
    TorusGrid,
    solve_flow,
    solve_hessian_flow,
)
from pmaflow.cli import RunConfig, run as cli_run
from pmaflow.estimates import (
    DeGiorgiParams,
    de_giorgi_extinction,
    de_giorgi_ladder_check,
    i_series,
    stability_ratio,
)
from pmaflow.flow_hessian import f_eval_grad_arrays
from pmaflow import regularize as reg
from pmaflow.grid import (
    ScalarField,
    Trajectory,
    convolve_radial,
    integrate,
    kernel_second_moment,
    spacetime_integral,
)
from pmaflow.manufactured import ManufacturedSolution
from pmaflow.maxprinciple import (
    SpaceTimeGridReal,
    _interior_of,
    contact_set,
    lieberman_form_check,
    sample_space_time,
)
from pmaflow.regularize import (
    RegularizationParams,
    kiselman_legendre,
    time_average,
)

from oracles import (ConePoint, comparison_check, contact_arrays, f_eval_grad,
                     inequality_oracles, slot_fields, symbol_degree, trailing_axis)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def pinned_run_128():
    grid = TorusGrid(1, 128)
    ms = ManufacturedSolution(grid, curvature=0.0)
    traj = solve_flow(grid.constant_field(0.0), ms, FlowParams(T=0.1, dt=0.01))
    return ms, traj


@pytest.fixture(scope="module")
def curved_runs_128():
    grid = TorusGrid(1, 128)
    ms = ManufacturedSolution(grid, curvature=1.0)
    T = 0.1
    runs = {}
    for dt in (T / 10, T / 20, T / 40):
        runs[dt] = solve_flow(grid.constant_field(0.0), ms,
                              FlowParams(T=T, dt=dt))
    return ms, runs


@pytest.fixture(scope="module")
def stability_runs():
    def spatial(x, y):
        return 0.4 * np.cos(2.0 * np.pi * x)

    rhs = RhsSpec.smooth_product(spatial, lambda t: np.exp(-t), p0=2.0)
    out = {}
    for N in (64, 128):
        grid = TorusGrid(1, N)
        params = FlowParams(T=0.5, dt=1.0 / 32)
        traj = solve_flow(grid.constant_field(0.0), rhs, params)
        out[N] = (traj, params)
    return rhs, out


ACCEPTED_RUNS = []


# ---------------------------------------------------------------------------


def test_criterion_01_trivial_solution_exactness():
    grid = TorusGrid(1, 64)
    params = FlowParams(T=1.0, dt=0.01)
    start = time.perf_counter()
    traj = solve_flow(grid.constant_field(0.0), RhsSpec.zero(), params)
    elapsed = time.perf_counter() - start
    err = float(np.abs(traj.values + traj.times.reshape(-1, 1, 1)).max())
    ACCEPTED_RUNS.append((traj, params))
    _report(1, "trivial solution phi = -t exact", err <= 1e-10 and elapsed < 10.0,
            f"sup error {err:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_spatially_flat_reduction():
    grid = TorusGrid(1, 32)
    rhs = RhsSpec.time_only(np.sin)
    # sup |d/dt e^{sin t}| on [0, 1], densely sampled
    tt = np.linspace(0.0, 1.0, 20001)
    sup_rate = float(np.abs(np.cos(tt) * np.exp(np.sin(tt))).max())
    errs = {}
    for dt in (1.0 / 50, 1.0 / 100):
        params = FlowParams(T=1.0, dt=dt)
        traj = solve_flow(grid.constant_field(0.0), rhs, params)
        exact = np.array([-quad(lambda s: np.exp(np.sin(s)), 0.0, t)[0]
                          for t in traj.times])
        errs[dt] = float(np.abs(traj.values - exact.reshape(-1, 1, 1)).max())
        ACCEPTED_RUNS.append((traj, params))
    bound_ok = all(errs[dt] <= 2.0 * dt * sup_rate for dt in errs)
    order = float(np.log2(errs[1.0 / 50] / errs[1.0 / 100]))
    _report(2, "flat reduction phi = -int e^F", bound_ok and order >= 0.9,
            f"errors {errs[1/50]:.2e}/{errs[1/100]:.2e}, order {order:.3f}")


def test_criterion_03_manufactured_convergence(pinned_run_128, curved_runs_128):
    ms0, pinned = pinned_run_128
    err_pinned = ms0.sup_error(pinned)
    # the pinned (time-linear) solution is reproduced at the solver floor
    pinned_ok = err_pinned <= 1e-9

    ms, runs = curved_runs_128
    dts = sorted(runs, reverse=True)
    errs = [ms.sup_error(runs[dt]) for dt in dts]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]
    order_ok = min(orders) >= 0.9

    # spectral spatial error sits below the temporal error at N >= 64:
    # the same dt at N = 64 reproduces the N = 128 error almost exactly
    grid64 = TorusGrid(1, 64)
    ms64 = ManufacturedSolution(grid64, curvature=1.0)
    err64 = ms64.sup_error(solve_flow(grid64.constant_field(0.0), ms64,
                                      FlowParams(T=0.1, dt=dts[0])))
    spatial_ok = abs(err64 - errs[0]) <= 0.05 * errs[0] and err_pinned <= 1e-9

    for dt in dts:
        ACCEPTED_RUNS.append((runs[dt], FlowParams(T=0.1, dt=dt)))
    _report(3, "manufactured-solution convergence",
            pinned_ok and order_ok and spatial_ok,
            f"pinned sup error {err_pinned:.2e}, temporal orders "
            + "/".join(f"{o:.3f}" for o in orders))


def test_criterion_04_i_functional_identity(pinned_run_128, curved_runs_128):
    ms0, pinned = pinned_run_128
    eF0, _ = ms0.sample(pinned.grid, pinned.times)
    _, resid_pinned = i_series(pinned, eF0)
    scale = max(float(eF0.values.reshape(eF0.n_times, -1).mean(axis=1).max()
                      * pinned.grid.volume), 1.0)
    h = pinned.grid.spacing
    bound = 5.0 * (pinned.dt + h * h) * scale
    pinned_ok = resid_pinned <= bound

    ms, runs = curved_runs_128
    dts = sorted(runs, reverse=True)
    resids = []
    for dt in dts[:2]:
        traj = runs[dt]
        eF, _ = ms.sample(traj.grid, traj.times)
        _, resid = i_series(traj, eF)
        scale_c = max(float(eF.values.reshape(eF.n_times, -1).mean(axis=1).max()
                            * traj.grid.volume), 1.0)
        assert resid <= 5.0 * (dt + h * h) * scale_c
        resids.append(resid)
    reduction = resids[0] / resids[1]
    _report(4, "energy dissipation identity dI/dt = -int e^F",
            pinned_ok and reduction >= 1.8,
            f"pinned residual {resid_pinned:.2e} <= {bound:.2e}, "
            f"dt-halving reduction {reduction:.2f}x")


def test_criterion_05_monotonicity_and_sup_bound(stability_runs):
    _, runs = stability_runs
    for traj, params in runs.values():
        ACCEPTED_RUNS.append((traj, params))
    ok = True
    worst = 0.0
    for traj, params in ACCEPTED_RUNS:
        slack = 10.0 * params.newton_tol
        inc = float(np.diff(traj.values, axis=0).max())
        sup_exc = float(traj.values.max() - traj.values[0].max())
        worst = max(worst, inc, sup_exc)
        ok = ok and inc <= slack and sup_exc <= slack
    _report(5, "monotonicity and sup bound on every accepted run", ok,
            f"{len(ACCEPTED_RUNS)} runs, worst violation {worst:.2e}")


def test_criterion_06_de_giorgi_lemma():
    exact = de_giorgi_extinction(DeGiorgiParams(B0=1.0, delta=1.0, s0=0.0,
                                                phi_s0=1.0))
    case_ok = exact == 4.0

    s_grid = np.linspace(0.0, 2.5, 501)
    ladder = np.maximum(1.0 - s_grid, 0.0) ** 3
    delta = 1.0 / 3.0
    b0 = 0.0
    for i in range(len(s_grid)):
        if ladder[i] <= 0:
            continue
        r = s_grid[i + 1:] - s_grid[i]
        b0 = max(b0, float((r * ladder[i + 1:]).max() / ladder[i] ** (1 + delta)))
    params = DeGiorgiParams(B0=b0, delta=delta, s0=0.0, phi_s0=1.0)
    threshold = de_giorgi_extinction(params)
    check = de_giorgi_ladder_check(s_grid, ladder, params)
    synth_ok = (threshold >= 1.0 and check["hypothesis_ok"]
                and check["extinct_at_threshold"])
    _report(6, "De Giorgi extinction threshold", case_ok and synth_ok,
            f"paper case {exact}, synthetic threshold {threshold:.3f} >= 1")


def test_criterion_07_inequality_battery():
    results = inequality_oracles()
    total = sum(r["count"] for r in results.values())
    violations = sum(r["violations"] for r in results.values())
    _report(7, "elementary inequality battery", total >= 10**4 and violations == 0,
            f"{total} tuples, {violations} violations")


def test_criterion_08_regularization_sandwich_and_rates(stability_runs):
    _, runs = stability_runs
    traj, _ = runs[64]
    grid = traj.grid
    eps = 0.125
    params = RegularizationParams(epsilon=eps, gamma=0.5)
    K = kernel_second_moment(grid.real_dim)

    sandwich_ok = True
    for k in range(0, traj.n_times, 4):
        f = traj.field_at(k)
        trans = kiselman_legendre(f, params)
        upper = convolve_radial(f, eps).values
        if (trans.values - upper).max() > 1e-10:
            sandwich_ok = False
        if (trans.values - (f.values - K * eps * eps)).min() < -1e-10:
            sandwich_ok = False

    f_mid = traj.field_at(traj.n_times // 2)
    gaps = []
    for e in (eps, eps / 2):
        smoothed = convolve_radial(f_mid, e)
        gaps.append(integrate(ScalarField(grid, np.abs(smoothed.values
                                                       - f_mid.values))))
    moll_ratio = gaps[0] / gaps[1]

    epss = [2.0**-k for k in (3, 4, 5, 6)]
    l1s = []
    for e in epss:
        avg = time_average(traj, e)
        l1s.append(spacetime_integral(Trajectory(
            grid, traj.times, np.maximum(avg.values - traj.values, 0.0))))
    slope = float(np.polyfit(np.log(epss), np.log(l1s), 1)[0])

    _report(8, "regularization sandwich and rates",
            sandwich_ok and moll_ratio >= 3.5 and slope >= 0.95,
            f"mollify ratio {moll_ratio:.2f}, time-average slope {slope:.3f}")


def test_criterion_09_hessian_symbols():
    rng = np.random.default_rng(2024)
    symbols = [HessianSymbol.ma_power(1), HessianSymbol.ma_power(2),
               HessianSymbol.full_sigma_k(2, 2),
               HessianSymbol.lambda0_sigma_k(2, 2),
               HessianSymbol.sigma_quotient(2, 2, 1)]
    euler_ok = True
    per_symbol = 10**4 // len(symbols) + 1
    for sym in symbols:
        lam = np.exp(rng.uniform(np.log(0.05), np.log(20.0),
                                 size=(per_symbol, sym.n + 1)))
        val, grad = f_eval_grad_arrays(sym, lam[:, 0], slot_fields(lam[:, 1:]))
        grad = trailing_axis(grad)
        euler = (lam * grad).sum(axis=1)
        rel = np.abs(euler - symbol_degree(sym) * val) / np.abs(val)
        euler_ok = euler_ok and float(rel.max()) <= 1e-9

    fd_ok = True
    for sym in symbols:
        for _ in range(40):
            lam = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=sym.n + 1))
            _, grad = f_eval_grad(sym, ConePoint(lam[0], tuple(lam[1:])))
            for i in range(sym.n + 1):
                h = 1e-6 * max(lam[i], 1.0)
                lp, lm = lam.copy(), lam.copy()
                lp[i] += h
                lm[i] -= h
                vp, _ = f_eval_grad(sym, ConePoint(lp[0], tuple(lp[1:])))
                vm, _ = f_eval_grad(sym, ConePoint(lm[0], tuple(lm[1:])))
                fd = (vp - vm) / (2 * h)
                if abs(grad[i] - fd) > 1e-6 * max(abs(fd), 1e-8):
                    fd_ok = False

    grid = TorusGrid(1, 32)
    params = FlowParams(T=0.3, dt=0.03)
    rhs = RhsSpec.time_only(lambda t: 0.25 * np.cos(t))
    hess = solve_hessian_flow(grid.constant_field(0.0), rhs,
                              HessianSymbol.ma_power(1), params)
    ma = solve_flow(grid.constant_field(0.0),
                    RhsSpec(rhs.raw_F, rhs.p0, rhs.scale * 2.0), params)
    cross = comparison_check(hess, ma)
    ACCEPTED_RUNS.append((hess, params))
    ACCEPTED_RUNS.append((ma, params))
    _report(9, "Hessian symbols: Euler identity, gradients, reduction",
            euler_ok and fd_ok and cross <= 10 * params.newton_tol,
            f"cross-solver gap {cross:.2e}")


def test_criterion_10_stability_family_boundedness(stability_runs, monkeypatch):
    rhs, runs = stability_runs
    # a short ladder without refinement keeps the family's transforms cheap
    monkeypatch.setattr(reg, "_S_SAMPLES", 12)
    monkeypatch.setattr(reg, "_REFINE_ROUNDS", 0)
    q0 = rhs.p0 / (rhs.p0 - 1.0)
    alpha = 0.9 / (1.0 + q0 * 2.0)  # n = 1, safely below 1/(1+q0(n+1))
    family_max = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for N, (traj, _) in runs.items():
            ratios = []
            v_shift = traj.map_values(lambda vals: vals + 0.05)
            ratios.append(stability_ratio(v_shift, traj, alpha)["ratio"])
            v_avg = time_average(traj, 0.125)
            ratios.append(stability_ratio(v_avg, traj, alpha)["ratio"])
            params = RegularizationParams(epsilon=0.125, gamma=0.5)
            trans = np.stack([
                kiselman_legendre(traj.field_at(k), params).values
                for k in range(traj.n_times)])
            v_kl = Trajectory(traj.grid, traj.times.copy(), trans, dt=traj.dt)
            ratios.append(stability_ratio(v_kl, traj, alpha)["ratio"])
            assert all(np.isfinite(r) for r in ratios)
            family_max[N] = max(ratios)
    growth = family_max[128] / max(family_max[64], 1e-300)
    _report(10, "stability ratio family-boundedness",
            growth <= 2.0,
            f"family max {family_max[64]:.3f} (N=64) -> "
            f"{family_max[128]:.3f} (N=128), growth {growth:.2f}x")


def test_criterion_11_krylov_tso():
    m = 2
    stg = SpaceTimeGridReal(m=m, n_points=33, T=0.4, n_steps=8,
                            domain="ball", ball_radius=0.45)
    center = (0.5, 0.5)
    u = sample_space_time(stg, lambda t, x, y: t - (x - 0.5)**2 - (y - 0.5)**2)
    rep = contact_set(stg, u)
    exact = 2.0**m * stg.T * rep.domain_volume
    integral_ok = abs(rep.integral_value - exact) <= 1e-8 * exact

    # per-point oracle for the package's contact decision
    mask, _ = contact_arrays(stg, u)
    interior = _interior_of(stg.domain_mask())
    mask_ok = True
    h, dt = stg.h, stg.dt
    for k in range(1, stg.n_steps + 1):
        for i in range(stg.n_points):
            for j in range(stg.n_points):
                if not interior[i, j]:
                    expected = False
                else:
                    if k < stg.n_steps:
                        dudt = (u[k + 1, i, j] - u[k - 1, i, j]) / (2 * dt)
                    else:
                        dudt = (u[k, i, j] - u[k - 1, i, j]) / dt
                    hxx = (u[k, i + 1, j] - 2 * u[k, i, j] + u[k, i - 1, j]) / h**2
                    hyy = (u[k, i, j + 1] - 2 * u[k, i, j] + u[k, i, j - 1]) / h**2
                    hxy = (u[k, i + 1, j + 1] - u[k, i + 1, j - 1]
                           - u[k, i - 1, j + 1] + u[k, i - 1, j - 1]) / (4 * h**2)
                    eigs = np.linalg.eigvalsh(np.array([[hxx, hxy], [hxy, hyy]]))
                    expected = dudt >= 0.0 and eigs.max() <= rep.eig_tol
                if mask[k, i, j] != expected:
                    mask_ok = False

    implied = []
    for a in (2.0, 3.0, 4.0):
        ua = sample_space_time(
            stg, lambda t, x, y: t - a * ((x - 0.5)**2 + (y - 0.5)**2))
        shape = (stg.n_steps + 1, stg.n_points, stg.n_points)
        a_field = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
        f_field = np.full(shape, -(1.0 + 4.0 * a))
        lr = lieberman_form_check(stg, ua, a_field, f_field)
        implied.append(lr.implied_constant)
    spread = max(implied) / min(implied)
    _report(11, "Krylov-Tso contact machinery",
            integral_ok and mask_ok and spread <= 3.0,
            f"integral rel err {abs(rep.integral_value - exact)/exact:.2e}, "
            f"implied spread {spread:.2f}x")


def test_criterion_12_determinism(tmp_path):
    cfg = RunConfig.from_dict({
        "grid": {"points_per_axis": 32},
        "flow": {"T": 0.25, "dt": 1.0 / 32,
                 "initial_condition": "random_band", "ic_amplitude": 0.05},
        "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.3,
                "profile": "decay", "p0": 2.0},
        "seed": 12345,
        "label": "determinism",
    })
    cli_run(cfg, tmp_path / "a")
    cli_run(cfg, tmp_path / "b")
    same_report = ((tmp_path / "a" / "report.json").read_bytes()
                   == (tmp_path / "b" / "report.json").read_bytes())
    same_traj = ((tmp_path / "a" / "trajectory.bin").read_bytes()
                 == (tmp_path / "b" / "trajectory.bin").read_bytes())
    same_csv = ((tmp_path / "a" / "levelstats.csv").read_bytes()
                == (tmp_path / "b" / "levelstats.csv").read_bytes())
    _report(12, "byte-identical reports for identical config + seed",
            same_report and same_traj and same_csv)
