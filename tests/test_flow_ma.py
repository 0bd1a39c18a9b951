"""Monge-Ampere flow solver: residuals, steps, trajectories, right-hand sides."""

import numpy as np
import pytest
from scipy.integrate import quad

from pmaflow import (
    AdmissibilityLost,
    FlowParams,
    HessianSymbol,
    NewtonDiverged,
    RhsSpec,
    ScalarField,
    SLevelTooSmall,
    TorusGrid,
    Trajectory,
    build_auxiliary_rhs,
    solve_flow,
    solve_hessian_flow,
)
from pmaflow import flow_hessian
from pmaflow.estimates import exp_alpha_integral
from pmaflow.flow_hessian import backward_euler_step
from pmaflow.flow_ma import eta_smooth_plus
from pmaflow.grid import spacetime_integral
from pmaflow.manufactured import ManufacturedSolution

from oracles import comparison_check, ma_residual


# ---------------------------------------------------------------------------
# ma_residual


def test_residual_trivial_step_is_zero(grid32):
    dt = 0.02
    r = ma_residual(grid32.constant_field(0.0), grid32.constant_field(-dt),
                    dt, grid32.constant_field(0.0))
    assert np.abs(r.values).max() < 1e-14


def test_residual_stationary_guess(grid32):
    phi = grid32.constant_field(0.3)
    r = ma_residual(phi, phi, 0.05, grid32.constant_field(0.0))
    assert np.allclose(r.values, -1.0, atol=1e-14)


def test_residual_exact_snapshots_order_dt(grid64):
    # snapshots of the time-curved solution satisfy backward Euler to O(dt)
    ms = ManufacturedSolution(grid64, curvature=1.0)
    t = 0.08
    norms = []
    for dt in (0.02, 0.01):
        r = ma_residual(ScalarField(ms.grid, ms.exact_values(t - dt)),
                        ScalarField(ms.grid, ms.exact_values(t)), dt,
                        ms.F_field(grid64, t))
        norms.append(float(np.abs(r.values).max()))
    assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.2)


def test_residual_exact_on_time_linear_solution(grid64):
    # the pinned family is linear in t: the backward quotient is exact, so
    # consecutive exact snapshots have zero residual
    ms = ManufacturedSolution(grid64, curvature=0.0)
    dt = 0.01
    r = ma_residual(ScalarField(ms.grid, ms.exact_values(0.05)),
                    ScalarField(ms.grid, ms.exact_values(0.05 + dt)), dt,
                    ms.F_field(grid64, 0.05 + dt))
    assert np.abs(r.values).max() < 1e-12


# ---------------------------------------------------------------------------
# one backward-Euler step of the det symbol

MA1 = HessianSymbol.det(1)


def test_step_flat_exact(grid32):
    params = FlowParams(T=1.0, dt=0.01)
    out = backward_euler_step(grid32.constant_field(0.0), 0.01,
                              grid32.constant_field(0.0), MA1, params)
    assert np.abs(out.values + 0.01).max() < 1e-12


def test_step_time_only_rhs(grid32):
    params = FlowParams(T=1.0, dt=0.02)
    f_next = grid32.constant_field(np.log(1.7))
    out = backward_euler_step(grid32.constant_field(0.2), 0.02, f_next, MA1,
                              params)
    assert np.abs(out.values - (0.2 - 0.02 * 1.7)).max() <= params.newton_tol


def test_step_local_order_two(grid64):
    ms = ManufacturedSolution(grid64, curvature=1.0)
    params = FlowParams(T=1.0, dt=0.01)
    t0 = 0.05
    errs = []
    for dt in (0.02, 0.01):
        out = backward_euler_step(ScalarField(ms.grid, ms.exact_values(t0)),
                                  dt, ms.F_field(grid64, t0 + dt), MA1, params)
        errs.append(float(np.abs(out.values - ms.exact_values(t0 + dt)).max()))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_step_rejects_inadmissible_input(grid32):
    x, _ = grid32.meshgrid()
    bad = grid32.scalar_field(0.2 * np.cos(2 * np.pi * x))  # min eig < 0
    params = FlowParams(T=1.0, dt=0.01)
    with pytest.raises(AdmissibilityLost):
        backward_euler_step(bad, 0.01, grid32.constant_field(0.0), MA1, params)


def test_newton_diverged_on_iteration_budget(grid32):
    params = FlowParams(T=1.0, dt=0.5, newton_max_iter=1)
    x, _ = grid32.meshgrid()
    f_next = grid32.scalar_field(1.5 * np.cos(2 * np.pi * x))
    with pytest.raises(NewtonDiverged):
        backward_euler_step(grid32.constant_field(0.0), 0.5, f_next, MA1, params)


# ---------------------------------------------------------------------------
# solve_flow


def test_trivial_solution_exact(trivial_flow):
    traj = trivial_flow[0]
    exact = -traj.times.reshape((-1, 1, 1))
    assert np.abs(traj.values - exact).max() < 1e-10


def test_flat_ode_reduction(grid32):
    rhs = RhsSpec.time_only(np.sin)
    dt = 0.02
    traj = solve_flow(grid32.constant_field(0.0), rhs, FlowParams(T=1.0, dt=dt))
    exact = np.array([-quad(lambda s: np.exp(np.sin(s)), 0.0, t)[0]
                      for t in traj.times])
    err = np.abs(traj.values - exact.reshape(-1, 1, 1)).max()
    assert err <= 2.0 * dt * np.e  # sup |d/dt e^{sin t}| <= e


def test_manufactured_global_order(curved_manufactured):
    ms, traj, params = curved_manufactured
    err_coarse = ms.sup_error(solve_flow(
        ms.grid.constant_field(0.0), ms,
        FlowParams(T=params.T, dt=2 * params.dt)))
    err_fine = ms.sup_error(traj)
    assert np.log2(err_coarse / err_fine) >= 0.9


def test_flow_monotone_and_sup_bounded(generic_flow):
    traj, _, _, _, params = generic_flow
    slack = 10 * params.newton_tol
    assert np.diff(traj.values, axis=0).max() <= slack
    assert traj.values.max() <= traj.values[0].max() + slack


def test_flow_admissible_throughout(generic_flow):
    from pmaflow import min_admissibility_eigenvalue
    traj, _, _, _, params = generic_flow
    for k in range(traj.n_times):
        assert (min_admissibility_eigenvalue(traj.field_at(k))
                >= params.admissibility_floor * (1 - 1e-6))


def test_uneven_final_step_hits_T(grid32):
    params = FlowParams(T=0.25, dt=0.1)
    traj = solve_flow(grid32.constant_field(0.0), RhsSpec.zero(), params)
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-15)
    assert traj.n_times == 4  # ceil(0.25/0.1) = 3 steps
    assert np.abs(traj.values[-1] + 0.25).max() < 1e-10


# ---------------------------------------------------------------------------
# comparison_check


def test_comparison_identical_runs(grid32):
    params = FlowParams(T=0.2, dt=0.02)
    rhs = RhsSpec.time_only(lambda t: 0.3 * np.sin(t))
    a = solve_flow(grid32.constant_field(0.0), rhs, params)
    b = solve_flow(grid32.constant_field(0.0), rhs, params)
    assert comparison_check(a, b) == 0.0


@pytest.mark.parametrize("equation", ["ma", "full_sigma_k"])
def test_comparison_different_newton_starts(generic_flow, equation, monkeypatch):
    # the predictor and the constant start (the predictor's rate replaced
    # by its mean) take different Newton paths to one trajectory, for
    # Monge-Ampere and for a sigma symbol alike
    traj, _, _, rhs, params = generic_flow
    phi0 = traj.grid.constant_field(0.0)
    sym = HessianSymbol.full_sigma_k(1, 2)
    if equation != "ma":
        traj = solve_hessian_flow(phi0, rhs, sym, params)
    scalar_rate = flow_hessian._scalar_rate

    def mean_rate(*args, **kwargs):
        rate = scalar_rate(*args, **kwargs)
        return np.full_like(rate, rate.mean())

    monkeypatch.setattr(flow_hessian, "_scalar_rate", mean_rate)
    if equation == "ma":
        other = solve_flow(phi0, rhs, params)
    else:
        other = solve_hessian_flow(phi0, rhs, sym, params)
    assert comparison_check(traj, other) <= 10 * params.newton_tol


def test_comparison_constant_shift_of_initial_data(generic_flow):
    traj, _, _, rhs, params = generic_flow
    eps = 0.05
    shifted = solve_flow(traj.grid.constant_field(eps), rhs, params)
    disc = comparison_check(traj, shifted)
    assert abs(disc - eps) <= 10 * params.newton_tol


def test_comparison_rejects_mismatched_times(grid32):
    a = solve_flow(grid32.constant_field(0.0), RhsSpec.zero(),
                   FlowParams(T=0.1, dt=0.05))
    b = solve_flow(grid32.constant_field(0.0), RhsSpec.zero(),
                   FlowParams(T=0.1, dt=0.025))
    with pytest.raises(ValueError):
        comparison_check(a, b)


# ---------------------------------------------------------------------------
# auxiliary right-hand sides


def test_eta_values():
    assert eta_smooth_plus(0.0, 4) == pytest.approx(0.25, abs=1e-15)
    assert eta_smooth_plus(1.0, 10**6) == pytest.approx(1.0 + 2.5e-7, abs=1e-9)


def test_eta_positive_and_dominates_plus_part():
    x = np.linspace(-3, 3, 101)
    for j in (1, 10, 1000):
        vals = eta_smooth_plus(x, j)
        assert np.all(vals > 0.0)
        assert np.all(vals >= np.maximum(x, 0.0))


def test_auxiliary_rhs_normalized(generic_flow):
    traj, eF, _, _, _ = generic_flow
    s = float(np.abs(traj.values[0]).max()) + 0.1
    aux, a_js = build_auxiliary_rhs(traj, eF, s, j=100)
    assert a_js > 0.0
    assert spacetime_integral(aux) == pytest.approx(1.0, abs=1e-10)


def test_auxiliary_rhs_rejects_small_s(generic_flow):
    traj, eF, _, _, _ = generic_flow
    shifted = traj.map_values(lambda v: v - 0.5)  # sup |phi_0| = 0.5
    with pytest.raises(SLevelTooSmall):
        build_auxiliary_rhs(shifted, eF, 0.1, j=10)


def test_auxiliary_solution_pipeline(generic_flow):
    """Solve the auxiliary flow psi_j and check the exponential bound inputs."""
    traj, eF, _, _, params = generic_flow
    s = float(np.abs(traj.values[0]).max()) + 0.05
    aux, _ = build_auxiliary_rhs(traj, eF, s, j=50)
    rhs = RhsSpec.tabulated(aux)
    psi = solve_flow(traj.grid.constant_field(0.0), rhs,
                     FlowParams(T=params.T, dt=params.dt))
    assert np.abs(psi.values[0]).max() == 0.0
    assert np.diff(psi.values, axis=0).max() <= 10 * params.newton_tol
    sup_exp = float(exp_alpha_integral(psi, 1.0).max())
    assert np.isfinite(sup_exp) and sup_exp >= traj.grid.volume


# ---------------------------------------------------------------------------
# rhs generators


def test_rhs_mollified_singularity_positive_and_recorded(grid32):
    rhs = RhsSpec.mollified_log_singularity((0.5, 0.5), strength=0.4,
                                            moll_radius=0.05, p0=2.0)
    eF = np.exp(rhs.F_field(grid32, 0.0).values)
    assert eF.min() > 0.0
    times = np.linspace(0.0, 1.0, 11)
    norm = rhs.lp0_norm(grid32, times)
    assert np.isfinite(norm) and norm > 0.0


def test_rhs_scaled_multiplies_F(grid32):
    rhs = RhsSpec.time_only(lambda t: 0.7)
    doubled = RhsSpec(rhs.raw_F, rhs.p0, rhs.scale * 2.0)
    f1 = rhs.F_field(grid32, 0.3).values
    f2 = doubled.F_field(grid32, 0.3).values
    assert np.allclose(f2, 2.0 * f1, atol=1e-15)


def _uncached_F(kind, grid, t, scale):
    """F of the two generators with a spatial factor, from scratch."""
    if kind == "smooth_product":
        spatial = 0.4 * np.cos(2.0 * np.pi * grid.meshgrid()[0] / grid.period)
        return scale * (spatial * float(np.exp(-t)))
    dist = grid.periodic_distance_sq((0.5,) * grid.real_dim)
    return scale * (-0.3 * np.log(0.05**2 + dist))


@pytest.mark.parametrize("kind", ["smooth_product", "mollified_log_singularity"])
def test_rhs_spatial_factor_computed_once_and_read_only(kind):
    scale = 1.3
    calls = []

    def spatial(*xs):
        calls.append(1)
        return 0.4 * np.cos(2.0 * np.pi * xs[0])

    if kind == "smooth_product":
        rhs = RhsSpec.smooth_product(spatial, lambda t: np.exp(-t), scale=scale)
    else:
        rhs = RhsSpec.mollified_log_singularity((0.5, 0.5), 0.3, 0.05,
                                                scale=scale)
    g16, g8 = TorusGrid(1, 16), TorusGrid(1, 8)
    for grid, t in ((g16, 0.0), (g16, 0.3), (g8, 0.1), (g16, 0.7), (g16, 0.7)):
        want = _uncached_F(kind, grid, t, scale)
        F = rhs.F_field(grid, t).values
        assert np.array_equal(F, want)
        eF, _ = rhs.sample(grid, [t])
        assert np.array_equal(eF.values[0], np.exp(want))
        F += 1.0                 # the caller's copy, not the cache
    raw = rhs.raw_F(g16, 0.7)
    if kind == "mollified_log_singularity":
        assert raw is rhs.raw_F(g16, 0.2)
        with pytest.raises(ValueError):
            raw[0, 0] = 0.0
    assert np.array_equal(rhs.F_field(g16, 0.7).values,
                          _uncached_F(kind, g16, 0.7, scale))
    if kind == "smooth_product":
        assert len(calls) == 3   # once per change of grid, not per time


def test_tabulated_rhs_interpolates(grid32):
    times = np.array([0.0, 1.0])
    vals = np.stack([np.full(grid32.shape, 1.0), np.full(grid32.shape, 3.0)])
    rhs = RhsSpec.tabulated(Trajectory(grid32, times, vals))
    mid = np.exp(rhs.F_field(grid32, 0.5).values)
    assert np.allclose(mid, 2.0, atol=1e-14)


def test_tabulated_rhs_is_the_log_of_the_linear_interpolant(grid32):
    # F is log of the interpolant exactly (the flow reads F, then exp), the
    # samples are held outside [t_0, t_K], and the scale multiplies F
    rng = np.random.default_rng(41)
    times = np.array([0.0, 0.1, 0.25, 0.4])
    vals = rng.uniform(0.5, 2.0, size=(len(times),) + grid32.shape)
    rhs = RhsSpec.tabulated(Trajectory(grid32, times, vals), p0=3.0)
    assert rhs.p0 == 3.0
    for t, k in ((0.05, 0), (0.1, 1), (0.3, 2), (0.4, 2)):
        w = (t - times[k]) / (times[k + 1] - times[k])
        want = np.log((1.0 - w) * vals[k] + w * vals[k + 1])
        assert np.array_equal(rhs.F_field(grid32, t).values, want)
    assert np.array_equal(rhs.F_field(grid32, -1.0).values, np.log(vals[0]))
    assert np.array_equal(rhs.F_field(grid32, 9.0).values, np.log(vals[-1]))
    doubled = RhsSpec(rhs.raw_F, rhs.p0, 2.0).F_field(grid32, 0.3).values
    assert np.array_equal(doubled, 2.0 * rhs.F_field(grid32, 0.3).values)


# ---------------------------------------------------------------------------
# two complex dimensions


def test_trivial_solution_n2(grid2d):
    params = FlowParams(T=0.1, dt=0.02)
    traj = solve_flow(grid2d.constant_field(0.0), RhsSpec.zero(), params)
    exact = -traj.times.reshape((-1,) + (1,) * 4)
    assert np.abs(traj.values - exact).max() < 1e-10


def test_nontrivial_flow_n2(grid2d):
    from pmaflow import random_admissible_field
    rng = np.random.default_rng(51)
    phi0 = random_admissible_field(grid2d, rng, max_mode=2, margin=0.4)
    rhs = RhsSpec.time_only(lambda t: 0.2 * np.sin(t))
    params = FlowParams(T=0.1, dt=0.02)
    traj = solve_flow(phi0, rhs, params)
    assert np.diff(traj.values, axis=0).max() <= 10 * params.newton_tol
    from pmaflow import min_admissibility_eigenvalue
    assert (min_admissibility_eigenvalue(traj.field_at(traj.n_times - 1))
            >= params.admissibility_floor * (1 - 1e-6))
    # the entrywise det(I + H) residual is an oracle independent of the
    # eigen-projector linearization the solver uses
    r = ma_residual(traj.field_at(traj.n_times - 2),
                    traj.field_at(traj.n_times - 1), params.dt,
                    rhs.F_field(grid2d, float(traj.times[-1])))
    assert np.abs(r.values).max() <= params.newton_tol


def test_solver_in_finite_difference_mode():
    from pmaflow.manufactured import ManufacturedSolution
    grid = TorusGrid(1, 64, derivative_mode="finite_difference_2nd")
    ms = ManufacturedSolution(grid, curvature=1.0)
    traj = solve_flow(grid.constant_field(0.0), ms, FlowParams(T=0.1, dt=0.01))
    # temporal error dominates; the O(h^2) spatial part stays subordinate
    assert ms.sup_error(traj) < 5e-3
    trivial = solve_flow(grid.constant_field(0.0), RhsSpec.zero(),
                         FlowParams(T=0.5, dt=0.05))
    assert np.abs(trivial.values + trivial.times.reshape(-1, 1, 1)).max() < 1e-10


def test_time_linear_exact_solution_n2():
    # psi = -t (1.5 + 0.2 cos(2 pi x1)) is time-linear, so backward Euler
    # reproduces it exactly; anchors the full n = 2 Newton chain
    grid = TorusGrid(2, 12)
    x1 = grid.meshgrid()[0]
    prof = 1.5 + 0.2 * np.cos(2 * np.pi * x1)
    # psi_{1 1bar} = (1/4) d^2 psi / dx1^2 = +t 0.2 pi^2 cos(2 pi x1)
    hess_11 = 0.2 * np.pi**2 * np.cos(2 * np.pi * x1)

    class Rhs:
        kind = "exact_n2"
        p0 = 2.0

        def F_field(self, g, t):
            det = 1.0 + t * hess_11  # det(I + diag(t h, 0))
            return ScalarField(g, np.log(prof * det))

        def sample(self, g, times):
            from pmaflow.grid import Trajectory
            F = np.stack([self.F_field(g, t).values for t in times])
            return (Trajectory(g, np.asarray(times), np.exp(F)),
                    Trajectory(g, np.asarray(times), F))

    params = FlowParams(T=0.1, dt=0.02)
    traj = solve_flow(grid.constant_field(0.0), Rhs(), params)
    exact = np.stack([-t * prof for t in traj.times])
    assert np.abs(traj.values - exact).max() < 1e-8


def test_auxiliary_mass_converges_to_level_integral(generic_flow):
    # eta_j approaches the positive part from above: A_{j,s} -> A_s with
    # |A_{j,s} - A_s| <= j^{-1/2}/2 * total e^F mass
    from pmaflow.estimates import level_stats
    traj, eF, _, _, _ = generic_flow
    s = float(np.abs(traj.values[0]).max()) + 0.1
    stats = level_stats(traj, eF, np.array([0.0, s]))
    a_s = stats.A_s[1]
    mass = spacetime_integral(eF)
    gaps = []
    for j in (4, 64, 1024):
        _, a_js = build_auxiliary_rhs(traj, eF, s, j)
        gap = abs(a_js - a_s)
        assert gap <= 0.5 * j ** (-0.5) * mass + 1e-12
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_auxiliary_solutions_uniform_in_j(generic_flow):
    # the exponential integrals of the auxiliary solutions stay in a narrow
    # band as the smoothing index grows (their data converges)
    traj, eF, _, _, params = generic_flow
    s = float(np.abs(traj.values[0]).max()) + 0.05
    sups = []
    for j in (10, 1000):
        aux, _ = build_auxiliary_rhs(traj, eF, s, j)
        psi = solve_flow(traj.grid.constant_field(0.0), RhsSpec.tabulated(aux),
                         FlowParams(T=params.T, dt=params.dt))
        sups.append(float(exp_alpha_integral(psi, 1.0).max()))
    assert max(sups) / min(sups) <= 1.2
