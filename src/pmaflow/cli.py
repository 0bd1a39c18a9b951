"""Batch front door: config parsing, run orchestration, sweeps, artifacts.

A run is solve -> estimate -> report: the flow is integrated, the estimate
toggles are executed against the trajectory, invariant checks are
evaluated, and everything lands on disk (trajectory checkpoint, level
ladder CSV, report JSON, gnuplot-ready plot scripts).  Reports are
deterministic functions of (config, seed): no clocks, sorted keys, fixed
float repr.

Exit codes: 0 all invariant checks passed, 2 checks failed, 1 execution
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback
# concurrent.futures loads its thread pool lazily: import it with the CLI
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import estimates as est
from . import regularize as reg
from .flow_hessian import solve_hessian_flow, symbol_from_config
from .flow_ma import RhsSpec, solve_flow
from .manufactured import ManufacturedSolution, admissible_horizon
from .grid import (
    TorusGrid,
    Trajectory,
    hessian_parts,
    identity_plus_eigenvalues,
    kernel_second_moment,
    radial_smoother,
    random_admissible_field,
    save_trajectory,
    spacetime_integral,
)
from .maxprinciple import (
    SpaceTimeGridReal,
    contact_set,
    lieberman_form_check,
    sample_space_time,
)
from .stepping import FlowParams

__all__ = ["RunConfig", "run", "sweep", "main"]


TIME_PROFILES = {
    "one": lambda t: 1.0,
    "sin": np.sin,
    "cos": np.cos,
    "decay": lambda t: np.exp(-t),
}


@dataclass
class GridConfig:
    n_complex: int = 1
    points_per_axis: int = 64
    period: float = 1.0
    derivative_mode: str = "spectral"


@dataclass
class FlowConfig:
    equation: str = "ma"        # "ma" or "hessian"
    symbol: str = "ma"          # hessian symbol config key
    k: int = 1
    l: int = 1
    T: float = 1.0
    dt: float = 0.01
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    admissibility_floor: float = 1e-8
    initial_condition: str = "zero"   # zero | cos_mode | random_band
    ic_amplitude: float = 0.05
    ic_margin: float = 0.2


@dataclass
class RhsConfig:
    kind: str = "zero"
    profile: str = "one"
    time_curvature: float = 1.0
    spatial_mode: int = 1
    spatial_amplitude: float = 0.5
    center: list = field(default_factory=list)
    strength: float = 0.5
    moll_radius: float = 0.1
    p0: float = 2.0
    scale: float = 1.0


@dataclass
class EstimatesConfig:
    entropy: bool = True
    entropy_p: float = 2.0
    entropy_weight: float = 1.0
    i_series: bool = True
    level_stats: bool = True
    s_count: int = 17
    moser_trudinger: bool = True
    beta: float = 0.25
    mt_base: str = "n_plus_2"
    exp_alpha: bool = True
    alpha0: float = 1.0
    holder: bool = True
    stability: bool = True
    stability_eps: float = 0.125
    stability_alpha: float = 0.0   # 0 means derive from q0


def _as_field_type(default, value, name: str):
    """`value` as an int where the field's default is one (a sweep passes
    every value as a float); a non-integral value for such a field is
    refused.  bool, a subclass of int, is left alone."""
    if (isinstance(default, int) and not isinstance(default, bool)
            and isinstance(value, float)):
        if not value.is_integer():
            raise ValueError(f"config field {name!r} takes an integer, got {value!r}")
        return int(value)
    return value


@dataclass
class RunConfig:
    """Everything one run needs; round-trips losslessly through JSON."""

    grid: GridConfig = field(default_factory=GridConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    rhs: RhsConfig = field(default_factory=RhsConfig)
    estimates: EstimatesConfig = field(default_factory=EstimatesConfig)
    seed: int = 0
    label: str = "run"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        out = cls()
        sections = {"grid": GridConfig, "flow": FlowConfig, "rhs": RhsConfig,
                    "estimates": EstimatesConfig}
        for key, value in data.items():
            if key in sections:
                names = {f.name for f in fields(sections[key])}
                unknown = set(value) - names
                if unknown:
                    raise ValueError(
                        f"unknown config fields {sorted(unknown)} under '{key}'")
                defaults = getattr(out, key)
                setattr(out, key, sections[key](**{
                    name: _as_field_type(getattr(defaults, name), v, f"{key}.{name}")
                    for name, v in value.items()}))
            elif key in ("seed", "label"):
                setattr(out, key, _as_field_type(getattr(out, key), value, key))
            else:
                raise ValueError(f"unknown config section '{key}'")
        out.validate()
        return out

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def validate(self) -> None:
        """Refuse a config that cannot run, before any directory or step is
        made: the grid, right-hand side, symbol and FlowParams are built
        here, so their own checks run up front."""
        if self.flow.equation not in ("ma", "hessian"):
            raise ValueError("flow.equation must be 'ma' or 'hessian'")
        for name, value, table in (
                ("rhs.kind", self.rhs.kind, RHS_KINDS),
                ("rhs.profile", self.rhs.profile, TIME_PROFILES),
                ("flow.initial_condition", self.flow.initial_condition,
                 INITIAL_CONDITIONS)):
            if value not in table:
                raise ValueError(f"unknown {name} {value!r}")
        real_dim = 2 * self.grid.n_complex
        if self.rhs.center and len(self.rhs.center) != real_dim:
            raise ValueError(f"rhs.center must be empty or hold 2n = {real_dim} "
                             f"coordinates, got {self.rhs.center}")
        _build(self)
        if self.rhs.kind == "manufactured":
            if self.rhs.scale != 1.0:
                raise ValueError(
                    "rhs.scale must be 1 for rhs.kind 'manufactured': its F is "
                    "fixed by the closed-form solution")
            horizon = admissible_horizon(self.grid.period, self.rhs.time_curvature)
            if self.flow.T >= horizon:
                raise ValueError(
                    f"flow.T = {self.flow.T:g} reaches the manufactured solution's "
                    f"admissible horizon {horizon:.6g}, where it leaves the cone")
        if self.estimates.stability_alpha:
            q0 = self.rhs.p0 / (self.rhs.p0 - 1.0)
            if self.estimates.stability_alpha >= 1.0 / (1.0 + q0 * (self.grid.n_complex + 1)):
                raise ValueError("stability_alpha must stay below 1/(1+q0(n+1))")
        if self.estimates.entropy_p <= 0:
            raise ValueError("estimates.entropy_p must be positive")
        if self.estimates.alpha0 <= 0:
            raise ValueError("estimates.alpha0 must be positive")
        if self.estimates.beta <= 0:
            raise ValueError("estimates.beta must be positive")
        if self.estimates.mt_base not in ("n_plus_1", "n_plus_2"):
            raise ValueError("estimates.mt_base must be n_plus_1 or n_plus_2")
        if self.estimates.s_count < 1:
            raise ValueError("estimates.s_count must be at least 1")
        if self.estimates.stability_eps <= 0:
            raise ValueError("estimates.stability_eps must be positive")


# ---------------------------------------------------------------------------
# config -> objects


def _smooth_product(r: RhsConfig, grid: TorusGrid) -> RhsSpec:
    mode = 2.0 * np.pi * r.spatial_mode / grid.period
    return RhsSpec.smooth_product(lambda *xs: r.spatial_amplitude * np.cos(mode * xs[0]),
                                  TIME_PROFILES[r.profile], p0=r.p0, scale=r.scale)


# rhs.kind -> the right-hand side, built from (rhs config, grid)
RHS_KINDS = {
    "zero": lambda r, grid: RhsSpec.zero(r.p0),
    "time_only": lambda r, grid: RhsSpec.time_only(TIME_PROFILES[r.profile],
                                                   p0=r.p0, scale=r.scale),
    "smooth_product": _smooth_product,
    "mollified_log_singularity": lambda r, grid: RhsSpec.mollified_log_singularity(
        tuple(r.center) or (grid.period / 2.0,) * grid.real_dim, r.strength,
        r.moll_radius, p0=r.p0, scale=r.scale),
    "manufactured": lambda r, grid: ManufacturedSolution(
        grid, curvature=r.time_curvature, p0=r.p0),
}

# flow.initial_condition -> phi_0, built from (run config, grid)
INITIAL_CONDITIONS = {
    "zero": lambda cfg, grid: grid.constant_field(0.0),
    "cos_mode": lambda cfg, grid: grid.scalar_field(
        cfg.flow.ic_amplitude * np.cos(2.0 * np.pi * grid.meshgrid()[0] / grid.period)),
    "random_band": lambda cfg, grid: random_admissible_field(
        grid, np.random.default_rng(cfg.seed), margin=cfg.flow.ic_margin,
        amplitude=cfg.flow.ic_amplitude),
}


def _flow_params(cfg: RunConfig) -> FlowParams:
    f = cfg.flow
    return FlowParams(T=f.T, dt=f.dt, newton_tol=f.newton_tol,
                      newton_max_iter=f.newton_max_iter,
                      admissibility_floor=f.admissibility_floor)


def _build(cfg: RunConfig) -> tuple:
    """(grid, rhs, symbol, params) of a config; the symbol is None for
    `equation: "ma"`, the Monge-Ampere flow, and `flow.symbol` otherwise."""
    grid = TorusGrid(**asdict(cfg.grid))
    f = cfg.flow
    symbol = (symbol_from_config(f.symbol, grid.n_complex, f.k, f.l)
              if f.equation == "hessian" else None)
    return grid, RHS_KINDS[cfg.rhs.kind](cfg.rhs, grid), symbol, _flow_params(cfg)


def _solve(cfg: RunConfig) -> tuple[Trajectory, object, FlowParams]:
    """Build the configured flow and solve it: (trajectory, rhs, params)."""
    grid, rhs, symbol, params = _build(cfg)
    phi0 = INITIAL_CONDITIONS[cfg.flow.initial_condition](cfg, grid)
    if symbol is None:   # the Monge-Ampere entry point, which perfbench's tracer times
        return solve_flow(phi0, rhs, params), rhs, params
    return solve_hessian_flow(phi0, rhs, symbol, params), rhs, params


# ---------------------------------------------------------------------------
# invariant checks


def _trajectory_checks(traj: Trajectory, params: FlowParams,
                       i_values: list | None = None) -> dict:
    """Flow invariants of a solved trajectory.

    Takes each slice's Hessian once, one slice at a time; when `i_values`
    is a list, I(phi) of every slice is appended to it from the
    eigenvalues of that Hessian, and "I_variation_residual" is the max
    over interior times of |centred dI/dt - int (centred phi_t) det(I + H)|,
    the first variation dI = int dphi det(I + H[phi]) that holds along any
    trajectory, with det(I + H) = sigma_n(lambda) from the same eigenvalues.
    """
    slack = 10.0 * params.newton_tol
    mono = float(np.diff(traj.values, axis=0).max()) if traj.n_times > 1 else 0.0
    sup0 = float(traj.values[0].max())
    sup_excess = float(traj.values.max() - sup0)
    min_eig = np.inf
    t, flux = traj.times, []
    for k in range(traj.n_times):
        phi = traj.field_at(k).require_finite("field")
        slots = identity_plus_eigenvalues(hessian_parts(phi.values, traj.grid))
        min_eig = min(min_eig, float(slots[0].min()))
        if i_values is not None:
            i_values.append(est.i_functional(phi, slots))
            if 0 < k < traj.n_times - 1:
                flux.append(float(np.vdot(traj.values[k + 1] - traj.values[k - 1],
                                          math.prod(slots)))
                            * traj.grid.cell_volume / (t[k + 1] - t[k - 1]))
    checks = {
        "monotone": mono <= slack,
        "sup_bound": sup_excess <= slack,
        "admissible": min_eig >= params.admissibility_floor * (1.0 - 1e-6),
        "max_step_increase": mono,
        "sup_excess": sup_excess,
        "min_eigenvalue": min_eig,
    }
    if i_values is not None:
        series = np.array(i_values)
        centred = (series[2:] - series[:-2]) / (t[2:] - t[:-2])
        checks["I_variation_residual"] = (float(np.abs(centred - flux).max())
                                          if flux else float("nan"))
    return checks


# ---------------------------------------------------------------------------
# plot emission (gnuplot-compatible text)


def _write_plot(out_dir: Path, name: str, csv_name: str, title: str,
                xlabel: str, ylabel: str, columns: str, logscale: bool = False):
    lines = [
        "set terminal svg size 800,500",
        f"set output '{name}.svg'",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set datafile separator ','",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(f"plot '{csv_name}' using {columns} with linespoints title '{ylabel}'")
    (out_dir / f"{name}.gp").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """A header and rows of floats (written .17g), None (empty) or strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["" if v is None else v if isinstance(v, str) else f"{v:.17g}"
                     for v in row] for row in rows)


# ---------------------------------------------------------------------------
# the run pipeline


def run(config: RunConfig, out_dir) -> tuple[est.EstimateReport, dict]:
    """Execute one configured run; writes artifacts and returns (report, checks)."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plots = out_dir / "plots"
    plots.mkdir(exist_ok=True)

    traj, rhs, params = _solve(config)
    grid = traj.grid
    save_trajectory(traj, out_dir / "trajectory.bin")

    eF, F = rhs.sample(grid, traj.times)
    e = config.estimates
    i_values = [] if e.i_series else None
    checks = _trajectory_checks(traj, params, i_values)

    report = est.EstimateReport()
    report.extra["label"] = config.label
    report.extra["seed"] = config.seed
    report.extra["config"] = config.to_dict()
    q0 = config.rhs.p0 / (config.rhs.p0 - 1.0)
    report.extra["q0"] = q0
    if config.rhs.kind == "mollified_log_singularity":
        report.extra["lp0_norm"] = rhs.lp0_norm(grid, traj.times)
    if config.rhs.kind == "manufactured":
        report.extra["manufactured_sup_error"] = rhs.sup_error(traj)

    if e.entropy:
        report.entropy_p = est.entropy(eF, F, e.entropy_p, e.entropy_weight)

    if e.i_series:
        series, resid = est.i_series(traj, eF, i_values)
        variation = checks.pop("I_variation_residual")
        report.I_series = [float(v) for v in series]
        report.I_derivative_residual = resid
        report.extra["I_variation_residual"] = variation
        _write_csv(out_dir / "i_series.csv", ["t", "I"], zip(traj.times, series))
        _write_plot(plots, "i_functional", "../i_series.csv",
                    "energy along the flow", "t", "I(phi)", "1:2")
        # dI/dt = -int e^F holds for the Monge-Ampere flow only; the first
        # variation holds for every symbol and does not involve F
        identity = resid if config.flow.equation == "ma" else variation
        if np.isfinite(identity):
            mass_scale = max(float(eF.values.mean() * grid.volume), 1.0)
            tol = 5.0 * (traj.dt + grid.spacing**2) * mass_scale
            checks["i_identity"] = bool(identity <= tol)
        checks["i_nonincreasing"] = bool(np.all(np.diff(series) <= 1e-10))

    stats = None
    if e.level_stats:
        sup_excursion = float((-traj.values).max())
        s_grid = np.linspace(0.0, max(sup_excursion * 1.2, 1e-6), e.s_count)
        stats = est.level_stats(traj, eF, s_grid)
        ladders = (stats.s_grid, stats.A_s, stats.phi_of_s, stats.omega_vol,
                   stats.A_s_delta)
        _write_csv(out_dir / "levelstats.csv",
                   ["s", "A_s", "phi_s", "vol_omega", "A_s_delta"],
                   zip(*([None] * len(s_grid) if c is None else c for c in ladders)))
        _write_plot(plots, "level_ladders", "../levelstats.csv",
                    "level-set ladders", "s", "A_s", "1:2")
        checks["level_monotone"] = bool(
            np.all(np.diff(stats.A_s) <= 1e-12)
            and np.all(np.diff(stats.phi_of_s) <= 1e-12))

    if e.moser_trudinger and stats is not None:
        s_anchor = float(stats.s_grid[min(1, len(stats.s_grid) - 1)])
        # both exponent normalizations are measured; neither is adjudicated
        mt = {base: est.moser_trudinger(traj, stats, s_anchor, e.beta, base)
              for base in ("n_plus_1", "n_plus_2")}
        for base, vals in mt.items():
            report.extra[f"mt_sup_{base}"] = float(np.max(vals))
        report.mt_integrals = [float(v) for v in mt[e.mt_base]]
        report.extra["mt_sup"] = float(np.max(mt[e.mt_base]))

    if e.exp_alpha:
        ea = est.exp_alpha_integral(traj, e.alpha0)
        report.exp_alpha0 = [float(v) for v in ea]
        report.extra["exp_alpha0_sup"] = float(np.max(ea))

    if e.holder and traj.n_times >= 8:
        fits = est.holder_moduli(traj)
        report.holder_time = tuple(map(float, fits["time"]))
        report.holder_space = tuple(map(float, fits["space"]))
        _write_csv(out_dir / "holder.csv", ["kind", "separation", "sup_quotient"],
                   [(kind, sep, quot) for kind in ("time", "space")
                    for sep, quot in zip(*fits[f"{kind}_points"])])
        _write_plot(plots, "holder_fits", "../holder.csv",
                    "Holder modulus fits", "separation", "sup quotient",
                    "2:3", logscale=True)

    if e.stability:
        alpha = e.stability_alpha or 0.9 / (1.0 + q0 * (grid.n_complex + 1))
        v = reg.time_average(traj, e.stability_eps)
        sr = est.stability_ratio(v, traj, alpha)
        report.stability_ratio = float(sr["ratio"])
        report.extra["stability"] = {k: float(val) for k, val in sr.items()}
        report.extra["stability_alpha"] = alpha

    report.extra["checks"] = {k: v for k, v in checks.items()
                              if isinstance(v, bool)}
    report.extra["check_values"] = {k: float(v) for k, v in checks.items()
                                    if isinstance(v, float)}
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    return report, checks


# ---------------------------------------------------------------------------
# sweeps


def _set_by_path(config_dict: dict, path: str, value):
    keys = path.split(".")
    node = config_dict
    for k in keys[:-1]:
        node = node[k]
    if keys[-1] not in node:
        raise KeyError(f"config has no field {path!r}")
    node[keys[-1]] = value


def sweep(base_config: RunConfig, axis: str, values, out_dir,
          max_workers: int = 4) -> list[dict]:
    """One independent run per value of the named scalar config field.

    Per-run failures are recorded and the sweep continues; each run writes
    into its own subdirectory, so a crash cannot corrupt its siblings.
    """
    if max_workers < 1:
        raise ValueError(f"--workers must be at least 1, got {max_workers}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []

    def one(idx_value):
        idx, value = idx_value
        sub = out_dir / f"{axis.replace('.', '_')}_{idx:03d}"
        cfg_dict = base_config.to_dict()
        _set_by_path(cfg_dict, axis, value)
        try:
            cfg = RunConfig.from_dict(cfg_dict)
            report, checks = run(cfg, sub)
            row = {"axis": axis, "value": value, "status": "ok",
                   "dir": sub.name,
                   "entropy": report.entropy_p,
                   "I_final": report.I_series[-1] if report.I_series else float("nan"),
                   "I_residual": report.I_derivative_residual,
                   "holder_time_exp": report.holder_time[0],
                   "stability_ratio": report.stability_ratio,
                   "stability_l1": report.extra.get("stability", {}).get("l1", ""),
                   "sup_error": report.extra.get("manufactured_sup_error", ""),
                   "checks_passed": all(v for v in checks.values()
                                        if isinstance(v, bool))}
        except Exception as exc:  # recorded, sweep continues
            row = {"axis": axis, "value": value, "status": "error",
                   "dir": sub.name, "error": f"{type(exc).__name__}: {exc}"}
        return idx, row

    values = list(values)
    if values:
        with ThreadPoolExecutor(
                max_workers=min(max_workers, max(len(values), 1))) as pool:
            for idx, row in pool.map(one, enumerate(values)):
                rows.append((idx, row))
    rows = [r for _, r in sorted(rows, key=lambda p: p[0])]

    combined = out_dir / "sweep.csv"
    headers = ["axis", "value", "status", "dir", "entropy", "I_final",
               "I_residual", "holder_time_exp", "stability_ratio",
               "stability_l1", "sup_error", "checks_passed", "error"]
    with open(combined, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=headers)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in headers})
    return rows


# ---------------------------------------------------------------------------
# regularize / maxprinciple batteries for the CLI


def _regularize_battery(traj_path, epsilon: float, gamma: float) -> dict:
    from .grid import load_trajectory

    traj = load_trajectory(traj_path)
    params = reg.RegularizationParams(epsilon=epsilon, gamma=gamma)
    K = kernel_second_moment(traj.grid.real_dim)
    worst_low = np.inf
    worst_high = -np.inf
    gap = -np.inf
    for k in range(traj.n_times):
        f = traj.field_at(k)
        smooth = radial_smoother(f)
        trans = reg.kiselman_legendre(f, params, smooth)
        upper = smooth(epsilon)
        worst_low = min(worst_low,
                        float((trans.values - (f.values - K * epsilon**2)).min()))
        worst_high = max(worst_high, float((trans.values - upper).max()))
        gap = max(gap, float((trans.values - f.values).max()))
    theta = reg.theta_scale_bound(traj, params, gap)
    # ball-mass exponent of the final slice, recorded next to the spatial
    # Holder fit target 2n - 2 + alpha for offline comparison
    grid = traj.grid
    h = grid.spacing
    r_lo = 4.0 * h
    r_hi = min(max(grid.period / 8.0, 2.0 * r_lo), 0.9 * grid.period / 2.0)
    # at N <= 8 the cap 0.45 L is below r_lo = 4h: every radius sits at the
    # cap, and ball_mass_profile returns its no-fit sentinel
    radii = list(np.geomspace(min(r_lo, r_hi), r_hi, 4))
    centers = [(0.0,) * grid.real_dim, (grid.period / 2.0,) * grid.real_dim]
    profile = reg.ball_mass_profile(traj.field_at(traj.n_times - 1),
                                    centers, radii)
    avg = reg.time_average(traj, epsilon)
    l1 = spacetime_integral(Trajectory(grid, traj.times,
                                       np.maximum(avg.values - traj.values, 0.0)))
    return {
        "epsilon": epsilon, "gamma": gamma, "K": K,
        "sandwich_lower_margin": worst_low,
        "sandwich_upper_excess": worst_high,
        "transform_gap": gap,
        "theta": theta,
        "ball_mass_exponent": profile["fitted_exponent"],
        "time_average_l1": l1,
        "checks": {
            "sandwich_lower": bool(worst_low >= -1e-10),
            "sandwich_upper": bool(worst_high <= 1e-10),
            "theta_contract": bool(theta["sup_gap"]
                                   <= theta["contract_bound"] + 1e-10),
        },
    }


def _maxprinciple_battery(m: int) -> dict:
    stg = SpaceTimeGridReal(m=m, n_points=41, T=0.4, n_steps=16,
                            domain="ball", ball_radius=0.45)
    center = (0.5,) * m
    # |x - c|^2 does not change with t or the cap: compute it once
    r2 = sum((x - c) ** 2 for x, c in zip(stg.meshgrid(sparse=True), center))

    def cap(a):
        return sample_space_time(stg, lambda t, *xs: t - a * r2)

    rep = contact_set(stg, cap(1.0))
    exact = 2.0**m * stg.T * rep.domain_volume
    implied = []
    shape = (stg.n_steps + 1,) + (stg.n_points,) * m
    a_field = np.broadcast_to(np.eye(m), shape + (m, m))
    for a in (2.0, 3.0, 4.0):
        f_field = np.broadcast_to(-(1.0 + 2.0 * a * m), shape)
        lr = lieberman_form_check(stg, cap(a), a_field, f_field)
        implied.append(lr.implied_constant)
    spread = max(implied) / min(implied)
    return {
        "m": m,
        "paraboloid_integral": rep.integral_value,
        "paraboloid_exact": exact,
        "sup_interior": rep.sup_interior,
        "sup_parabolic_boundary": rep.sup_parabolic_boundary,
        "implied_constants": implied,
        "implied_spread": spread,
        "checks": {
            "paraboloid_exact": bool(abs(rep.integral_value - exact)
                                     <= 1e-8 * max(exact, 1.0)),
            "spread_bounded": bool(spread <= 3.0),
        },
    }


# ---------------------------------------------------------------------------
# entry point


def _load_config(path) -> RunConfig:
    return RunConfig.from_json(Path(path).read_text())


def _checks_exit(checks: dict) -> int:
    return 0 if all(v for v in checks.values() if isinstance(v, bool)) else 2


def _write_result(out_dir, name: str, result: dict, checks: dict) -> int:
    """Write `result` as sorted, indented JSON to out_dir/name; the exit
    code of its checks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(
        json.dumps(result, sort_keys=True, indent=2, default=float) + "\n")
    return _checks_exit(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmaflow",
        description="parabolic Monge-Ampere / Hessian flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a flow and checkpoint it")
    p_solve.add_argument("--config", help="run config JSON (optional with flags)")
    p_solve.add_argument("--T", type=float, help="final time override")
    p_solve.add_argument("--dt", type=float, help="time step override")
    p_solve.add_argument("--grid-N", type=int, dest="grid_n",
                         help="points per axis override")
    p_solve.add_argument("--rhs", dest="rhs_file",
                         help="JSON file holding the rhs section")
    p_solve.add_argument("--out", required=True)

    p_run = sub.add_parser("estimate", help="solve + full estimate pipeline")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_reg = sub.add_parser("regularize", help="regularization battery on a checkpoint")
    p_reg.add_argument("--traj", required=True)
    p_reg.add_argument("--epsilon", type=float, default=0.125)
    p_reg.add_argument("--gamma", type=float, default=0.5)
    p_reg.add_argument("--out", required=True)

    p_mp = sub.add_parser("maxprinciple", help="contact-set battery on real domains")
    p_mp.add_argument("--dim", type=int, default=2)
    p_mp.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a family along one config axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--workers", type=int, default=4)

    p_rep = sub.add_parser("report", help="summarize a run directory")
    p_rep.add_argument("--dir", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = _load_config(args.config) if args.config else RunConfig()
            if args.T is not None:
                cfg.flow.T = args.T
            if args.dt is not None:
                cfg.flow.dt = args.dt
            if args.grid_n is not None:
                cfg.grid.points_per_axis = args.grid_n
            if args.rhs_file is not None:
                cfg = RunConfig.from_dict({**cfg.to_dict(),
                                           "rhs": json.loads(
                                               Path(args.rhs_file).read_text())})
            cfg.validate()
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            traj, _, params = _solve(cfg)
            save_trajectory(traj, out / "trajectory.bin")
            checks = _trajectory_checks(traj, params)
            return _write_result(out, "solve.json", checks, checks)

        if args.command == "estimate":
            cfg = _load_config(args.config)
            _, checks = run(cfg, args.out)
            return _checks_exit(checks)

        if args.command == "regularize":
            result = _regularize_battery(args.traj, args.epsilon, args.gamma)
            return _write_result(args.out, "regularize.json", result,
                                 result["checks"])

        if args.command == "maxprinciple":
            result = _maxprinciple_battery(args.dim)
            return _write_result(args.out, "maxprinciple.json", result,
                                 result["checks"])

        if args.command == "sweep":
            cfg = _load_config(args.config)
            values = [float(v) for v in args.values.split(",") if v]
            rows = sweep(cfg, args.axis, values, args.out, args.workers)
            bad = [r for r in rows if r["status"] != "ok"
                   or not r.get("checks_passed", False)]
            return 0 if not bad else 2

        if args.command == "report":
            report_path = Path(args.dir) / "report.json"
            report = est.EstimateReport.from_json(report_path.read_text())
            checks = report.extra.get("checks", {})
            print(f"label: {report.extra.get('label')}")
            print(f"entropy: {report.entropy_p:.6g}")
            if report.I_series:
                print(f"I(0) = {report.I_series[0]:.6g}, "
                      f"I(T) = {report.I_series[-1]:.6g}, "
                      f"identity residual = {report.I_derivative_residual:.3e}")
            print(f"holder time fit: exponent {report.holder_time[0]:.4g}, "
                  f"constant {report.holder_time[1]:.4g}")
            print(f"holder space fit: exponent {report.holder_space[0]:.4g}, "
                  f"constant {report.holder_space[1]:.4g}")
            print(f"stability ratio: {report.stability_ratio:.6g}")
            for name, ok in sorted(checks.items()):
                print(f"check {name}: {'PASS' if ok else 'FAIL'}")
            return 0 if all(checks.values()) else 2
    except Exception:
        traceback.print_exc()
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
