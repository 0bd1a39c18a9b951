"""Approximation machinery on the flat torus.

The Kiselman-Legendre transform, built on the radial-kernel smoothing
rho_s phi of `grid.radial_smoother` (translation replaces the exp map on a
flat torus),

    phi_eps(x) = inf_{0 < s <= eps} (rho_s phi(x) + K s^2 - K eps^2
                                      - eps^gamma log(s / eps)),

trailing time averages with constant extension before t = 0, the
decreasing-function Holder lemma, and ball-mass profiles of the complex
Laplacian feeding the spatial Holder criterion.

The infimum is discretized on a log-spaced ladder of _S_SAMPLES scales on
[eps _LADDER_FLOOR, eps]; _REFINE_ROUNDS rounds of local ladder refinement
around the per-point argmin follow, so the reported infimum resolves the
continuous one on smooth fields well below the ladder spacing.  The
compensator K is the mollifier's second moment
`grid.kernel_second_moment`, d / (d + 8) in real dimension d, the exact
flat-torus constant making s -> rho_s phi + K s^2 nondecreasing for
admissible phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    ScalarField,
    Trajectory,
    complex_laplacian,
    convolve_radial,
    kernel_second_moment,
    radial_smoother,
)

__all__ = [
    "RegularizationParams",
    "kiselman_legendre",
    "theta_scale_bound",
    "time_average",
    "decreasing_holder_from_averages",
    "ball_mass_profile",
]


# The s-ladder of `kiselman_legendre`: _S_SAMPLES log-spaced scales on
# [eps _LADDER_FLOOR, eps], then _REFINE_ROUNDS local refinement rounds.
_S_SAMPLES = 32
_LADDER_FLOOR = 2.0**-8
_REFINE_ROUNDS = 6
# Largest inner fraction theta that `theta_scale_bound` uses.
_THETA_CAP = 0.5
# Scratch of `_trailing_average`: its rows go in blocks of this many bytes.
_AVERAGE_BLOCK_BYTES = 1 << 18


@dataclass
class RegularizationParams:
    """Scale eps and barrier exponent gamma of the Kiselman-Legendre transform.

    The logarithmic barrier weight is eps^gamma and the compensator K is
    the kernel's second moment for the grid dimension.
    """

    epsilon: float
    gamma: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


def _fold_scales(smooth, scales, K: float, eps: float, log_weight: float,
                 best: np.ndarray, s_best: np.ndarray) -> None:
    """Fold the transform objective at each scale into a running minimum.

    Updates best and s_best in place, scale by scale in the given order; the
    strict < keeps the first minimum, as argmin over the stacked scales would.
    """
    for s in scales:
        obj = smooth(float(s))
        obj += K * s * s
        obj -= K * eps * eps
        obj -= log_weight * np.log(s / eps)
        better = obj < best
        np.copyto(best, obj, where=better)
        s_best[better] = s


def kiselman_legendre(field: ScalarField, params: RegularizationParams,
                      smooth=None) -> ScalarField:
    """Pointwise infimum of the Kiselman-Legendre objective over the s-ladder.

    Satisfies the sandwich phi - K eps^2 <= output <= rho_eps phi for
    admissible phi (the upper bound is the s = eps ladder term, always
    included exactly).  smooth, if given, is `radial_smoother(field)`, so a
    caller that also needs rho_s phi at other scales shares its forward
    transform.
    """
    grid = field.grid
    eps = params.epsilon
    if eps >= grid.period / 2.0:
        raise ValueError("epsilon must stay below half the period")
    K = kernel_second_moment(grid.real_dim)
    log_weight = eps**params.gamma

    ladder = np.geomspace(eps * _LADDER_FLOOR, eps, _S_SAMPLES)
    if smooth is None:
        smooth = radial_smoother(field)
    best = np.full(grid.shape, np.inf)
    s_best = np.full(grid.shape, ladder[0])
    _fold_scales(smooth, ladder, K, eps, log_weight, best, s_best)
    log_gap = np.log(ladder[1] / ladder[0])

    for _ in range(_REFINE_ROUNDS):
        uniq, counts = np.unique(s_best, return_counts=True)
        if len(uniq) > 16:
            uniq = uniq[np.argsort(counts)[-16:]]
        children = []
        for s0 in uniq:
            for m in (-2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0):
                s_new = s0 * np.exp(m * log_gap)
                if eps * _LADDER_FLOOR * 0.5 <= s_new <= eps:
                    children.append(s_new)
        if not children:
            break
        # np.unique's values in its order, without importing numpy.ma
        children = sorted(set(children))
        _fold_scales(smooth, children, K, eps, log_weight, best, s_best)
        log_gap /= 3.0
    return ScalarField(grid, best)


def theta_scale_bound(phi: Trajectory, params: RegularizationParams,
                      measured_gap: float) -> dict:
    """Inner-scale mollification bound derived from the transform gap.

    Picks theta with log(1/theta) > K + gap/eps^gamma and reports
    sup over the trajectory of rho_{theta eps} phi - phi, together with the
    bound (gap/eps^gamma + K) eps^gamma + K eps^2 it must not exceed.
    """
    grid = phi.grid
    eps = params.epsilon
    K = kernel_second_moment(grid.real_dim)
    rate = K + max(measured_gap, 0.0) / eps**params.gamma
    # shrinking theta only strengthens the selection condition
    # log(1/theta) > rate
    theta = min(float(np.exp(-rate) * (1.0 - 1e-9)), _THETA_CAP)
    sup_gap = -np.inf
    for k in range(phi.n_times):
        f = phi.field_at(k)
        smoothed = convolve_radial(f, theta * eps).values
        sup_gap = max(sup_gap, float((smoothed - f.values).max()))
    bound = (max(measured_gap, 0.0) / eps**params.gamma + K) * eps**params.gamma \
        + K * eps * eps
    return {"theta_used": theta, "sup_gap": sup_gap, "contract_bound": bound}


# ---------------------------------------------------------------------------
# time averaging


def _trailing_average(times: np.ndarray, values: np.ndarray,
                      eps: float) -> np.ndarray:
    """Trailing averages of the piecewise-linear interpolant in time.

    values has shape (K+1, ...); the interpolant is constant (= values[0])
    before t = 0, so output[0] = values[0] exactly.  Each window integral
    is a difference of prefix integrals of the interpolant, taken at t and
    at t - eps, in place over blocks of output times; the only allocations
    are the result and one block of scratch (`_AVERAGE_BLOCK_BYTES`).
    """
    if len(times) < 2:
        return values.copy()
    flat = values.reshape(len(times), -1)
    span = np.diff(times)
    # out[k] = integral of the interpolant from times[0] to times[k]
    out = np.zeros_like(flat)
    np.add(flat[:-1], flat[1:], out=out[1:])
    out[1:] *= 0.5 * span[:, None]
    np.cumsum(out, axis=0, out=out)
    # minus the integral up to max(t - eps, 0), which is interpolated
    # within the segment holding that point
    start = np.maximum(times - eps, 0.0)
    k = np.clip(np.searchsorted(times, start, side="right") - 1, 0, len(span) - 1)
    dx = start - times[k]
    c = 0.5 * dx * dx / span[k]
    weight = dx - c
    # plus the constant extension over the part of the window before 0
    before = np.maximum(eps - times, 0.0)
    # blocks of rows from the last, with one block of scratch: row j reads
    # the prefix integral at k[j] <= j, which no later block has changed,
    # and each block gathers what it reads before it writes
    size = max(1, _AVERAGE_BLOCK_BYTES // out[0].nbytes)
    scratch = np.empty((min(size, len(times)),) + out.shape[1:], dtype=out.dtype)
    for hi in range(len(times), 0, -size):
        lo = max(hi - size, 0)
        block, term, rows = out[lo:hi], scratch[:hi - lo], k[lo:hi]
        np.take(out, rows, axis=0, out=term, mode="clip")   # unbuffered
        block -= term
        for at, w in ((rows, weight[lo:hi]), (rows + 1, c[lo:hi])):
            np.take(flat, at, axis=0, out=term, mode="clip")
            term *= w[:, None]
            block -= term
        np.multiply(before[lo:hi, None], flat[0], out=term)
        block += term
        block /= eps
    out[times <= 0.0] = flat[0]
    return out.reshape(values.shape)


def time_average(phi: Trajectory, eps: float) -> Trajectory:
    """Trailing time average with the constant extension before t = 0.

    Output(0) = phi_0 exactly; the output dominates phi pointwise and stays
    nonincreasing in time whenever phi is.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    avg = _trailing_average(phi.times, phi.values, eps)
    return Trajectory(phi.grid, phi.times.copy(), avg, dt=phi.dt)


def decreasing_holder_from_averages(times, f_samples, c0: float,
                                    alpha: float) -> dict:
    """Check the averaged-gap hypothesis and its Holder conclusion.

    Hypothesis: (1/eps) int_{t-eps}^t f - f(t) <= c0 eps^alpha over all grid
    (t, eps) pairs (constant extension before 0).  Conclusion:
    |f(t) - f(s)| <= 4 c0 |t - s|^alpha over all pairs (the factor 4 tracks
    eps = 2(t-s) and the half-window step of the proof).
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f_samples, dtype=float)
    if np.any(np.diff(f) > 1e-12 * max(1.0, np.abs(f).max())):
        raise ValueError("f_samples must be nonincreasing")
    vals = f.reshape(len(times), 1)

    worst_hyp = 0.0
    for m in range(1, len(times)):
        eps = float(times[m] - times[0])
        if eps <= 0:
            continue
        avg = _trailing_average(times, vals, eps).ravel()
        gap = float((avg - f).max())
        worst_hyp = max(worst_hyp, gap / (c0 * eps**alpha))
    hypothesis_ok = worst_hyp <= 1.0 + 1e-9

    worst_conc = 0.0
    for i in range(len(times)):
        dt = times[i + 1:] - times[i]
        df = np.abs(f[i + 1:] - f[i])
        if dt.size:
            worst_conc = max(worst_conc, float(
                (df / (4.0 * c0 * dt**alpha)).max()))
    conclusion_ok = worst_conc <= 1.0 + 1e-9
    return {"hypothesis_ok": hypothesis_ok, "conclusion_ok": conclusion_ok,
            "worst_hypothesis_ratio": worst_hyp,
            "worst_conclusion_ratio": worst_conc,
            "passed": hypothesis_ok and conclusion_ok}


# ---------------------------------------------------------------------------
# ball-mass profiles of the Laplacian


def ball_mass_profile(field: ScalarField, centers, radii) -> dict:
    """Masses int_{B(z, r)} |Laplacian u| dV with a log-log exponent fit.

    The Laplacian is the complex trace sum_i u_{i ibar} computed spectrally;
    balls use sharp periodic masks with the radius snapped to the grid.
    Radii under 4 grid cells are excluded from the fit.
    Returns rows (center index, radius, mass) and the fitted exponent, which
    approaches 2n for smooth densities.
    """
    grid = field.grid
    radii = np.asarray(radii, dtype=float)
    if np.any(radii >= grid.period / 2.0):
        raise ValueError("radii must stay below half the period")
    lap = np.abs(complex_laplacian(field))
    rows = []
    h = grid.spacing
    for ci, center in enumerate(centers):
        d2 = grid.periodic_distance_sq(center)
        for r in radii:
            r_snap = max(round(r / h), 1) * h
            mask = d2 <= r_snap**2 + 1e-12
            mass = float(lap[mask].sum() * grid.cell_volume)
            rows.append((ci, float(r_snap), mass))
    fit_rows = [(r, m) for (_, r, m) in rows
                if r >= 4 * h - 1e-12 and m > 1e-14]
    distinct = len({round(r / h) for r, _ in fit_rows})
    if len(fit_rows) >= 2 and distinct >= 2:
        rr = np.log([r for r, _ in fit_rows])
        mm = np.log([m for _, m in fit_rows])
        slope, intercept = np.polyfit(rr, mm, 1)
        fitted = (float(slope), float(np.exp(intercept)))
    else:
        fitted = (float("inf"), 0.0)
    return {"rows": rows, "fitted_exponent": fitted[0],
            "fitted_constant": fitted[1]}

