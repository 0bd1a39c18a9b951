"""Integral and measure-theoretic quantities controlling the flow estimates.

Everything here consumes trajectories produced by the flow solvers (or
synthetic stand-ins) and produces numbers: weighted entropies, the
energy functional I(phi) and its dissipation identity, level-set ladders
A_s / phi(s) / Omega_{s,delta}, the De Giorgi extinction threshold,
Moser-Trudinger and exponential integrals, stability ratios, Holder moduli,
and the level bound s_*(delta).

Space-time integrals use trapezoid weights in time and the exact periodic
quadrature in space.  Indicator-type integrals (phi(s), volumes) therefore
carry an O(dt) discretization error, which the tests account for.
Dimensional constants from the a priori theory are never asserted in
absolute form; every check is exact-identity, oracle-equivalence, or
family-boundedness based.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .grid import (
    ScalarField,
    Trajectory,
    elementary_symmetric,
    hessian_parts,
    identity_plus_eigenvalues,
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
    "level_stats",
    "de_giorgi_extinction",
    "de_giorgi_ladder_check",
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


def entropy(eF: Trajectory, F: Trajectory, p: float,
            weight_power: float = 1.0) -> float:
    """Space-time entropy of the data: the integral of e^{w F} (F^2 + 1)^{p/2}.

    weight_power w is 1 for the Monge-Ampere flow and n + 1 for the
    Hessian-flow variant.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    # one slab-size array; (F^2 + 1)^{p/2} is built a time slice at a time
    weighted = np.multiply(weight_power, F.values)
    np.exp(weighted, out=weighted)
    for f, out in zip(F.values, weighted):
        g = np.square(f)
        g += 1.0
        g **= p / 2.0
        out *= g
    traj = Trajectory(eF.grid, eF.times.copy(), weighted)
    return spacetime_integral(traj)


# ---------------------------------------------------------------------------
# the I functional and its dissipation identity


def i_functional(phi: ScalarField, slots: tuple | None = None) -> float:
    """Energy I(phi) = 1/(n+1) int phi sum_j w0^{n-j} ^ w_phi^j.

    In flat coordinates w0^{n-j} ^ w_phi^j / w0^n = sigma_j(lambda) / C(n, j)
    for the eigenvalues lambda of I + H, so the density is
    phi sum_{j=0..n} sigma_j(lambda) / C(n, j).  `slots` are those
    eigenvalues (`identity_plus_eigenvalues`) when the caller already has
    them.
    """
    grid = phi.grid
    n = grid.n_complex
    if slots is None:
        slots = identity_plus_eigenvalues(hessian_parts(phi.values, grid))
    e = elementary_symmetric(slots, n)
    dens = phi.values * sum(e[j] / math.comb(n, j) for j in range(n + 1))
    return float(dens.mean() * grid.volume) / (n + 1)


def i_series(traj: Trajectory, eF: Trajectory,
             series=None) -> tuple[np.ndarray, float]:
    """I(phi) along the trajectory plus the dissipation-identity residual.

    Returns (I values, max over interior times of
    |centered dI/dt + int_M e^F|); the residual is O(dt + h^2) for smooth
    data since dI/dt = -int e^F along the flow.  `series` gives the I
    values when the caller computed them in its own pass over the slices.
    """
    if series is None:
        series = [i_functional(traj.field_at(k)) for k in range(traj.n_times)]
    series = np.array(series)
    if traj.n_times < 3:
        return series, float("nan")
    mass = np.array([integrate(eF.field_at(k)) for k in range(eF.n_times)])
    t = traj.times
    centered = (series[2:] - series[:-2]) / (t[2:] - t[:-2])
    resid = np.abs(centered + mass[1:-1])
    return series, float(resid.max())


# ---------------------------------------------------------------------------
# level-set ladders


_LADDER_BLOCK = 256  # points per partial bin sum; the blocks add pairwise


def _binned_ladders(xs, densities, weights, s_grid):
    """Ladders of x over the slab at every level s of the increasing s_grid.

    Returns (vol{x > s}, int_{x > s} e, int (x - s)^+ e), integrated with
    the per-slice `weights` over the slices `xs` and `densities` e.  One
    pass: `np.searchsorted(..., side="left")` bins each point by the number
    of levels strictly below it, so x > s_i exactly when its bin exceeds i,
    and `np.bincount` accumulates each bin's volume, its mass sum w e and
    its first moment sum w e (x - lower edge).  `np.bincount` adds a bin's
    terms one by one, so the weighted sums run over blocks of
    `_LADDER_BLOCK` points whose partial sums add pairwise: their rounding
    stays near that of numpy's pairwise `sum`.  Reverse cumulative sums of
    nonnegative terms then give mass[i] = sum_{j > i} mass_j and
    A[i] = A[i+1] + moment_{i+1} + (s_{i+1} - s_i) mass[i+1].
    """
    bins_total = len(s_grid) + 1
    lower = np.concatenate((s_grid[:1], s_grid))  # bin 0's edge is never read
    points = densities[0].size
    block_keys = bins_total * (np.arange(points) // _LADDER_BLOCK)
    length = bins_total * -(-points // _LADDER_BLOCK)

    def per_bin(keys, values):
        blocks = np.bincount(keys, values, minlength=length).reshape(-1, bins_total)
        return np.ascontiguousarray(blocks.T).sum(axis=1)

    sums = np.zeros((3, bins_total))  # volume, mass, first moment per bin
    for x, e, w in zip(xs, densities, weights):
        x = x.ravel()
        e = e.ravel()
        bins = np.searchsorted(s_grid, x, side="left")
        sums[0] += w * np.bincount(bins, minlength=bins_total)
        moment = x - lower[bins]
        moment *= e
        bins += block_keys
        sums[1] += w * per_bin(bins, e)
        sums[2] += w * per_bin(bins, moment)
    vol, mass = np.cumsum(sums[:2, :0:-1], axis=1)[:, ::-1]
    steps = sums[2, 1:]
    steps[:-1] += np.diff(s_grid) * mass[1:]
    return vol, mass, np.cumsum(steps[::-1])[::-1]


def level_stats(phi: Trajectory, eF: Trajectory, s_grid,
                comparator: Trajectory | None = None,
                delta: float | None = None) -> LevelStats:
    """Level ladders by space-time quadrature; monotonicity is checked.

    Each ladder takes one binned pass over the slab, a time slice at a time
    (`_binned_ladders`): O(M log S + S) work for M space-time points and S
    levels, with slice-sized temporaries only.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if len(s_grid) > 1 and not np.all(np.diff(s_grid) > 0):
        raise ValueError("s_grid must be increasing")
    weights = phi.time_weights() * phi.grid.cell_volume
    _, phi_of_s, A_s = _binned_ladders((-f for f in phi.values), eF.values,
                                       weights, s_grid)

    omega_vol = None
    a_s_delta = None
    if comparator is not None:
        if delta is None:
            raise ValueError("delta is required with a comparator")
        gaps = ((1.0 - delta) * v - f
                for v, f in zip(comparator.values, phi.values))
        omega_vol, _, a_s_delta = _binned_ladders(gaps, eF.values, weights,
                                                  s_grid)

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
    # exp(beta A_s^{-1/base} excess^{(n+2)/(n+1)}) in one slab-size array
    arg = np.negative(phi.values)
    arg -= s
    np.maximum(arg, 0.0, out=arg)
    arg **= (n + 2.0) / (n + 1.0)
    arg *= beta * a_s ** (-1.0 / base)
    np.exp(arg, out=arg)
    return arg.reshape(phi.n_times, -1).mean(axis=1) * vol


def exp_alpha_integral(phi: Trajectory, alpha0: float) -> np.ndarray:
    """Per-time integrals int_M e^{-alpha0 phi}."""
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    weight = np.multiply(phi.values, -alpha0)   # one slab-size array, exp in place
    np.exp(weight, out=weight)
    return weight.reshape(phi.n_times, -1).mean(axis=1) * phi.grid.volume


# ---------------------------------------------------------------------------
# stability and Holder moduli


def _check_comparator(v: Trajectory) -> None:
    # slice by slice: no slab-size difference or mask
    if any(np.any(v.values[k] - v.values[k - 1] > 1e-9) for k in range(1, v.n_times)):
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
    np.maximum(diff, 0.0, out=diff)
    l1 = spacetime_integral(Trajectory(phi.grid, phi.times.copy(), diff))
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


def holder_moduli(phi: Trajectory) -> dict:
    """Fitted Holder exponents and constants in time and space.

    Sup-quotients over dyadic separations, least squares in log-log.
    Spatial separations run from 4 grid cells (below that is discretization
    noise; 2 cells when N < 16, which has room for no second separation
    above 4) to max(N/16, 8) cells; constant-in-time or flat trajectories
    return the +inf exponent sentinel with constant 0.
    """
    if phi.n_times < 8:
        raise ValueError("need at least 8 time levels for the fit")
    values = phi.values
    buf = np.empty(values.size)

    def sup_gap(a, b):
        """max |a - b|, computed in the one slab-size buffer buf."""
        diff = np.subtract(a, b, out=buf[:a.size].reshape(a.shape))
        return float(np.abs(diff, out=diff).max())

    K = phi.n_times - 1
    seps, quots = [], []
    m = 1
    while m <= K // 2:
        gap = sup_gap(values[m:], values[:-m])
        seps.append(phi.times[m] - phi.times[0])
        quots.append(gap)
        m *= 2
    time_fit = _loglog_fit(np.array(seps), np.array(quots))

    grid = phi.grid
    N = grid.points_per_axis
    j = 2 if N < 16 else 4
    j_max = max(N // 16, 8)
    sseps, squots = [], []
    while j <= min(j_max, N // 2):
        gap = 0.0
        for axis in range(grid.real_dim):
            # np.roll(values, -j, axis) - values, in its two periodic pieces
            lead = (slice(None),) * (axis + 1)
            gap = max(gap,
                      sup_gap(values[lead + (slice(j, None),)],
                              values[lead + (slice(None, N - j),)]),
                      sup_gap(values[lead + (slice(None, j),)],
                              values[lead + (slice(N - j, None),)]))
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
        phi.grid, phi.times.copy(), np.maximum(v.values - phi.values, 0.0)))
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
