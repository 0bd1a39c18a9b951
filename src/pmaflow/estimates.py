"""Integral and measure-theoretic quantities controlling the flow estimates.

Everything here consumes trajectories produced by the flow solvers (or
synthetic stand-ins) and produces numbers: weighted entropies, the
energy functional I(phi) and its dissipation identity, level-set ladders
A_s / phi(s) / Omega_{s,delta}, the De Giorgi extinction threshold, the
elementary-inequality battery, Moser-Trudinger and exponential integrals,
stability ratios, Holder moduli, and the level bound s_*(delta).

Space-time integrals use trapezoid weights in time and the exact periodic
quadrature in space.  Indicator-type integrals (phi(s), volumes) therefore
carry an O(dt) discretization error, which the tests account for.
Dimensional constants from the a priori theory are never asserted in
absolute form; every check is exact-identity, oracle-equivalence, or
family-boundedness based.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .grid import (
    ScalarField,
    Trajectory,
    hessian_parts,
    integrate,
    min_admissibility_eigenvalue,
    spacetime_integral,
)

__all__ = [
    "LevelStats",
    "DeGiorgiParams",
    "EstimateReport",
    "entropy",
    "i_functional",
    "i_series",
    "mean_minus_sup_gap",
    "level_stats",
    "de_giorgi_extinction",
    "de_giorgi_ladder_check",
    "inequality_oracles",
    "power_exp_split_constant",
    "moser_trudinger",
    "exp_alpha_integral",
    "stability_ratio",
    "holder_moduli",
    "s_star_bound",
]


# ---------------------------------------------------------------------------
# containers


@dataclass
class LevelStats:
    """Level-set ladders over the space-time slab.

    A_s       = int ((-phi - s)^+) e^F
    phi_of_s  = int_{phi < -s} e^F
    omega_vol = vol{(1-delta) v - phi - s > 0}        (when v, delta given)
    A_s_delta = int (((1-delta) v - phi - s)^+) e^F   (when v, delta given)

    All four are nonincreasing in s, and A_s >= r * phi_of_s(s + r) holds
    for every positive gap r (discrete Chebyshev).
    """

    s_grid: np.ndarray
    A_s: np.ndarray
    phi_of_s: np.ndarray
    omega_vol: np.ndarray | None = None
    A_s_delta: np.ndarray | None = None
    delta: float | None = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "A_s", "phi_s", "vol_omega", "A_s_delta"])
            for i, s in enumerate(self.s_grid):
                row = [f"{s:.17g}", f"{self.A_s[i]:.17g}", f"{self.phi_of_s[i]:.17g}"]
                row.append("" if self.omega_vol is None else f"{self.omega_vol[i]:.17g}")
                row.append("" if self.A_s_delta is None else f"{self.A_s_delta[i]:.17g}")
                writer.writerow(row)


@dataclass
class DeGiorgiParams:
    """Data of the iteration lemma: r phi(s + r) <= B0 phi(s)^(1+delta)."""

    B0: float
    delta: float
    s0: float
    phi_s0: float

    def __post_init__(self):
        if self.B0 <= 0 or self.delta <= 0 or self.phi_s0 < 0:
            raise ValueError("need B0 > 0, delta > 0, phi_s0 >= 0")


@dataclass
class EstimateReport:
    """Bundle of measured quantities for one run; serializes to JSON."""

    entropy_p: float = float("nan")
    I_series: list = field(default_factory=list)
    I_derivative_residual: float = float("nan")
    mt_integrals: list = field(default_factory=list)
    exp_alpha0: list = field(default_factory=list)
    holder_time: tuple = (float("nan"), float("nan"))
    holder_space: tuple = (float("nan"), float("nan"))
    stability_ratio: float = float("nan")
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["holder_time"] = list(payload["holder_time"])
        payload["holder_space"] = list(payload["holder_space"])
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        data = json.loads(text)
        data["holder_time"] = tuple(data["holder_time"])
        data["holder_space"] = tuple(data["holder_space"])
        return cls(**data)


# ---------------------------------------------------------------------------
# entropies


def entropy(eF: Trajectory, F: Trajectory, p: float, weight_power: float = 1.0,
            integrand: str = "quadratic") -> float:
    """Space-time entropy of the data.

    integrand "quadratic": e^{w F} (F^2 + 1)^{p/2};
    integrand "power_plus_one": e^{w F} (|F|^p + 1).
    weight_power w is 1 for the Monge-Ampere flow and n + 1 for the
    Hessian-flow variant.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if integrand == "quadratic":
        g = (F.values**2 + 1.0) ** (p / 2.0)
    elif integrand == "power_plus_one":
        g = np.abs(F.values) ** p + 1.0
    else:
        raise ValueError(f"unknown integrand variant {integrand!r}")
    weighted = np.exp(weight_power * F.values) * g
    traj = Trajectory(eF.grid, eF.times.copy(), weighted, dt=eF.dt)
    return spacetime_integral(traj)


# ---------------------------------------------------------------------------
# the I functional and its dissipation identity


def i_functional(phi: ScalarField) -> float:
    """Energy I(phi) = 1/(n+1) int phi sum_j w0^{n-j} ^ w_phi^j.

    Flat-coordinate expansion: n = 1 gives (1/2) int phi (2 + H);
    n = 2 gives (1/3) int phi (1 + tr(I+H)/2 + det(I+H)).
    """
    grid = phi.grid
    n = grid.n_complex
    parts = hessian_parts(phi.values, grid)
    if n == 1:
        dens = phi.values * (2.0 + parts[0])
        return 0.5 * float(dens.mean() * grid.volume)
    h11, h22, re, im = parts
    a = 1.0 + h11
    b = 1.0 + h22
    det = a * b - np.hypot(re, im) ** 2
    dens = phi.values * (1.0 + 0.5 * (a + b) + det)
    return float(dens.mean() * grid.volume) / 3.0


def i_series(traj: Trajectory, eF: Trajectory) -> tuple[np.ndarray, float]:
    """I(phi) along the trajectory plus the dissipation-identity residual.

    Returns (I values, max over interior times of
    |centered dI/dt + int_M e^F|); the residual is O(dt + h^2) for smooth
    data since dI/dt = -int e^F along the flow.
    """
    series = np.array([i_functional(traj.field_at(k)) for k in range(traj.n_times)])
    if traj.n_times < 3:
        return series, float("nan")
    mass = np.array([integrate(eF.field_at(k)) for k in range(eF.n_times)])
    t = traj.times
    centered = (series[2:] - series[:-2]) / (t[2:] - t[:-2])
    resid = np.abs(centered + mass[1:-1])
    return series, float(resid.max())


def mean_minus_sup_gap(phi: ScalarField) -> float:
    """sup phi - mean phi (nonnegative for any field; bounded for admissible)."""
    mean = phi.values.mean()
    return float(phi.values.max() - mean)


# ---------------------------------------------------------------------------
# level-set ladders


def level_stats(phi: Trajectory, eF: Trajectory, s_grid,
                comparator: Trajectory | None = None,
                delta: float | None = None) -> LevelStats:
    """Level ladders by space-time quadrature; monotonicity is checked."""
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) > 1 and not np.all(np.diff(s_grid) > 0):
        raise ValueError("s_grid must be increasing")
    w_t = phi.time_weights()
    cellw = phi.grid.cell_volume
    u = -phi.values  # (K+1, ...)
    ef = eF.values
    flat_w = (w_t.reshape((-1,) + (1,) * phi.grid.real_dim)) * cellw

    A_s = np.empty(len(s_grid))
    phi_of_s = np.empty(len(s_grid))
    for i, s in enumerate(s_grid):
        excess = u - s
        A_s[i] = float((np.maximum(excess, 0.0) * ef * flat_w).sum())
        phi_of_s[i] = float(((excess > 0.0) * ef * flat_w).sum())

    omega_vol = None
    a_s_delta = None
    if comparator is not None:
        if delta is None:
            raise ValueError("delta is required with a comparator")
        gap = (1.0 - delta) * comparator.values - phi.values
        omega_vol = np.empty(len(s_grid))
        a_s_delta = np.empty(len(s_grid))
        for i, s in enumerate(s_grid):
            excess = gap - s
            omega_vol[i] = float(((excess > 0.0) * flat_w).sum())
            a_s_delta[i] = float((np.maximum(excess, 0.0) * ef * flat_w).sum())

    stats = LevelStats(s_grid, A_s, phi_of_s, omega_vol, a_s_delta, delta)
    for name, arr in (("A_s", A_s), ("phi_of_s", phi_of_s),
                      ("omega_vol", omega_vol), ("A_s_delta", a_s_delta)):
        if arr is not None and np.any(np.diff(arr) > 1e-12 * max(1.0, arr.max())):
            raise AssertionError(f"level ladder {name} is not nonincreasing")
    return stats


# ---------------------------------------------------------------------------
# De Giorgi iteration


def de_giorgi_extinction(p: DeGiorgiParams) -> float:
    """Extinction threshold s0 + 2 B0 phi(s0)^delta / (1 - 2^-delta)."""
    if p.phi_s0 == 0.0:
        return p.s0
    return p.s0 + 2.0 * p.B0 * p.phi_s0**p.delta / (1.0 - 2.0 ** (-p.delta))


def de_giorgi_ladder_check(s_grid, ladder, p: DeGiorgiParams,
                           rtol: float = 1e-9) -> dict:
    """Verify an empirical ladder against the iteration hypothesis.

    Checks r * ladder(s + r) <= B0 * ladder(s)^(1+delta) on all grid pairs
    with s >= s0, and that the ladder vanishes at the extinction threshold.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    ladder = np.asarray(ladder, dtype=float)
    scale = max(ladder.max(), 1e-300)
    hypothesis_ok = True
    worst = 0.0
    for i, s in enumerate(s_grid):
        if s < p.s0:
            continue
        r = s_grid[i + 1:] - s
        lhs = r * ladder[i + 1:]
        rhs = p.B0 * ladder[i] ** (1.0 + p.delta)
        if lhs.size:
            ratio = float((lhs / max(rhs, 1e-300)).max())
            worst = max(worst, ratio)
            if ratio > 1.0 + rtol:
                hypothesis_ok = False
    threshold = de_giorgi_extinction(p)
    beyond = ladder[s_grid >= threshold]
    extinct = bool(beyond.size == 0 or np.all(beyond <= rtol * scale))
    return {"hypothesis_ok": hypothesis_ok, "worst_hypothesis_ratio": worst,
            "threshold": threshold, "extinct_at_threshold": extinct}


# ---------------------------------------------------------------------------
# elementary inequality battery


def power_exp_split_constant(p: float, x_max: float = 60.0, samples: int = 200001) -> float:
    """C(p) = sup_x p e^{x-1} x^p e^{-2x}, evaluated numerically.

    The supremum of p e^{x-1} x^p e^{-2x} is attained at x = p; a dense
    scan keeps this independent of the calculus.
    """
    x = np.linspace(1e-9, x_max, samples)
    vals = p * np.exp(x - 1.0 + p * np.log(x) - 2.0 * x)
    return float(vals.max())


def inequality_oracles(n_points_per_axis: int = 10,
                       dims=(1, 2)) -> dict:
    """Evaluate the four elementary inequalities over log-spaced grids.

    Returns per-inequality dicts with the worst margin (min of RHS - LHS)
    and the number of violations; a violation is a test failure upstream,
    not a runtime error here.
    """
    m = n_points_per_axis
    logs = np.geomspace(1e-2, 1e2, m)
    results = {}

    # x^p e^y <= e^y (1 + y)^p + C(p) e^{2x}
    worst = np.inf
    violations = 0
    count = 0
    for p in (1.5, 2.0, 3.0):
        cp = power_exp_split_constant(p)
        x, y = np.meshgrid(logs, logs, indexing="ij")
        lhs = x**p * np.exp(y)
        rhs = np.exp(y) * (1.0 + y) ** p + cp * np.exp(2.0 * x)
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["power_exp_split"] = {"worst_relative_margin": worst,
                                  "violations": violations, "count": count}

    # (B A^{1/n})^{n/(n+1)} x <= A y + B x^{1+1/n} / y^{1/n}
    worst = np.inf
    violations = 0
    count = 0
    for n in dims:
        A, B, x, y = np.meshgrid(logs[::3], logs[::3], logs[::3], logs[::3],
                                 indexing="ij")
        lhs = (B * A ** (1.0 / n)) ** (n / (n + 1.0)) * x
        rhs = A * y + B * x ** (1.0 + 1.0 / n) / y ** (1.0 / n)
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["young_split"] = {"worst_relative_margin": worst,
                              "violations": violations, "count": count}

    # A y^n + B y^{-1} >= n^{-n/(n+1)} A^{1/(n+1)} B^{n/(n+1)}
    worst = np.inf
    violations = 0
    count = 0
    for n in dims:
        A, B, y = np.meshgrid(logs, logs, logs, indexing="ij")
        lhs = n ** (-n / (n + 1.0)) * A ** (1.0 / (n + 1.0)) * B ** (n / (n + 1.0))
        rhs = A * y**n + B / y
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["power_mean_lower"] = {"worst_relative_margin": worst,
                                   "violations": violations, "count": count}

    # x y <= x log x + e^{y-1}
    x, y = np.meshgrid(np.geomspace(1e-2, 1e2, m * m), np.geomspace(1e-2, 1e2, m * m),
                       indexing="ij")
    lhs = x * y
    rhs = x * np.log(x) + np.exp(y - 1.0)
    margin = rhs - lhs
    scale = np.maximum(np.abs(rhs), np.abs(lhs)) + 1e-300
    results["xlogx_dual"] = {
        "worst_relative_margin": float((margin / scale).min()),
        "violations": int((margin < -1e-9 * scale).sum()),
        "count": margin.size,
    }
    return results


# ---------------------------------------------------------------------------
# Moser-Trudinger and exponential integrals


def moser_trudinger(phi: Trajectory, stats: LevelStats, s: float, beta: float,
                    exponent_base: str = "n_plus_2") -> np.ndarray:
    """Per-time integrals int exp(beta A_s^{-1/base} ((-phi-s)^+)^{(n+2)/(n+1)}).

    exponent_base selects A_s^{-1/(n+1)} or A_s^{-1/(n+2)} (both normalizations
    appear in the theory; the harness measures both).  When A_s = 0 the
    integrand is 1 by continuity and the result is vol(M) at every time.
    """
    n = phi.grid.n_complex
    base = {"n_plus_1": n + 1, "n_plus_2": n + 2}[exponent_base]
    idx = int(np.argmin(np.abs(stats.s_grid - s)))
    if not np.isclose(stats.s_grid[idx], s, rtol=1e-12, atol=1e-12):
        raise ValueError("s must be one of the LevelStats grid values")
    a_s = stats.A_s[idx]
    vol = phi.grid.volume
    if a_s <= 0.0:
        return np.full(phi.n_times, vol)
    excess = np.maximum(-phi.values - s, 0.0)
    arg = beta * a_s ** (-1.0 / base) * excess ** ((n + 2.0) / (n + 1.0))
    per_time = np.exp(arg).reshape(phi.n_times, -1).mean(axis=1) * vol
    return per_time


def exp_alpha_integral(phi: Trajectory, alpha0: float) -> np.ndarray:
    """Per-time integrals int_M e^{-alpha0 phi}."""
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    vol = phi.grid.volume
    return np.exp(-alpha0 * phi.values).reshape(phi.n_times, -1).mean(axis=1) * vol


# ---------------------------------------------------------------------------
# stability and Holder moduli


def _check_comparator(v: Trajectory) -> None:
    if v.n_times > 1 and np.any(np.diff(v.values, axis=0) > 1e-9):
        warnings.warn("comparator is not nonincreasing in time", stacklevel=3)
    stride = max(1, v.n_times // 8)
    for k in range(0, v.n_times, stride):
        if min_admissibility_eigenvalue(v.field_at(k)) < -1e-7:
            warnings.warn("comparator slice is not admissible", stacklevel=3)
            break


def stability_ratio(v: Trajectory, phi: Trajectory, alpha: float) -> dict:
    """Two sides of the stability bound and their empirical quotient.

    lhs = sup (v - phi); rhs = max(sup (v0 - phi0)^+, ||(v - phi)^+||_1^alpha).
    The constant relating them is only meaningful across families, so the
    quotient is returned, not asserted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _check_comparator(v)
    diff = v.values - phi.values
    lhs = float(diff.max())
    sup0 = float(np.maximum(diff[0], 0.0).max())
    l1 = spacetime_integral(Trajectory(phi.grid, phi.times.copy(),
                                       np.maximum(diff, 0.0), dt=phi.dt))
    rhs = max(sup0, l1**alpha)
    ratio = 0.0 if lhs <= 0.0 else (float("inf") if rhs == 0.0 else lhs / rhs)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio,
            "sup0": sup0, "l1": float(l1)}


def _loglog_fit(seps: np.ndarray, quots: np.ndarray) -> tuple[float, float]:
    mask = quots > 1e-14
    if mask.sum() < 2:
        return float("inf"), 0.0
    x = np.log(seps[mask])
    y = np.log(quots[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(np.exp(intercept))


def holder_moduli(phi: Trajectory, min_space_cells: int = 4,
                  max_space_fraction: float = 1.0 / 16.0) -> dict:
    """Fitted Holder exponents and constants in time and space.

    Sup-quotients over dyadic separations, least squares in log-log.
    Spatial separations below `min_space_cells` grid cells are excluded
    (discretization noise); constant-in-time or flat trajectories return the
    +inf exponent sentinel with constant 0.
    """
    if phi.n_times < 8:
        raise ValueError("need at least 8 time levels for the fit")
    K = phi.n_times - 1
    seps, quots = [], []
    m = 1
    while m <= K // 2:
        gap = np.abs(phi.values[m:] - phi.values[:-m]).max()
        seps.append(phi.times[m] - phi.times[0])
        quots.append(gap)
        m *= 2
    time_fit = _loglog_fit(np.array(seps), np.array(quots))

    grid = phi.grid
    N = grid.points_per_axis
    j = min_space_cells
    j_max = max(int(N * max_space_fraction), 2 * min_space_cells)
    sseps, squots = [], []
    while j <= min(j_max, N // 2):
        gap = 0.0
        for axis in range(grid.real_dim):
            rolled = np.roll(phi.values, -j, axis=axis + 1)
            gap = max(gap, float(np.abs(rolled - phi.values).max()))
        sseps.append(j * grid.spacing)
        squots.append(gap)
        j *= 2
    space_fit = _loglog_fit(np.array(sseps), np.array(squots))
    return {"time": time_fit, "space": space_fit,
            "time_points": (np.array(seps), np.array(quots)),
            "space_points": (np.array(sseps), np.array(squots))}


def s_star_bound(v: Trajectory, phi: Trajectory, delta: float, beta: float,
                 stats: LevelStats, q0: float, c1: float = 1.0) -> dict:
    """Three-term bound on the admissible level threshold s_*(delta).

    bound = max(2 sup (v0-phi0)^+, 2 delta sup|v|,
                c1 delta^{-q0(n+1)/(1-1/beta)} ||(v-phi)^+||_1)
    with c1 a supplied calibration constant.  The companion scan finds the
    smallest stats grid level satisfying the three admissibility conditions
    (initial-slice domination, A_{s,delta} <= delta^{n+2}, s >= 2 delta
    sup|v|) and reports the margin bound - scan; the margin is calibration
    information, not an assertion.
    """
    if not (0.0 < delta < 1.0 and beta > 1.0):
        raise ValueError("need 0 < delta < 1 and beta > 1")
    if stats.A_s_delta is None:
        raise ValueError("stats must carry the comparator ladders")
    n = phi.grid.n_complex
    diff0 = np.maximum(v.values[0] - phi.values[0], 0.0)
    term1 = 2.0 * float(diff0.max())
    sup_v = float(np.abs(v.values).max())
    term2 = 2.0 * delta * sup_v
    l1 = spacetime_integral(Trajectory(
        phi.grid, phi.times.copy(), np.maximum(v.values - phi.values, 0.0),
        dt=phi.dt))
    term3 = c1 * delta ** (-q0 * (n + 1) / (1.0 - 1.0 / beta)) * l1
    bound = max(term1, term2, term3)

    init_gap = float(np.maximum((1.0 - delta) * v.values[0] - phi.values[0],
                                0.0).max())
    scan = None
    for i, s in enumerate(stats.s_grid):
        if s >= init_gap and stats.A_s_delta[i] <= delta ** (n + 2) and s >= term2:
            scan = float(s)
            break
    return {"bound": float(bound), "terms": (term1, term2, float(term3)),
            "scan_s_star": scan,
            "margin": None if scan is None else float(bound) - scan}
