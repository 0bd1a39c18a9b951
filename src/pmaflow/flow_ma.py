"""The parabolic complex Monge-Ampere flow and its data.

The flow is (-d_t phi) det(I + H[phi]) = e^F with phi(0) = phi_0, solved in
the admissible class d_t phi <= 0, I + H[phi] >= 0 by backward Euler with a
full Newton solve per step.  It is the product symbol `det` of the Hessian
flows, so `solve_flow` runs the shared stepper of `flow_hessian` (one step
is `backward_euler_step` with `HessianSymbol.det(n)`).  The module also
carries the right-hand sides (`RhsSpec` and its generators, among them
`RhsSpec.tabulated` for sampled data) and the auxiliary normalized
right-hand sides eta_j(-phi - s) e^F / A_{j,s} of the comparison argument.
"""

from __future__ import annotations

import functools

import numpy as np

from .flow_hessian import HessianSymbol, solve_hessian_flow
from .grid import ScalarField, TorusGrid, Trajectory, spacetime_integral
from .stepping import FlowParams

__all__ = [
    "RhsSpec",
    "SLevelTooSmall",
    "solve_flow",
    "build_auxiliary_rhs",
    "eta_smooth_plus",
]


class SLevelTooSmall(ValueError):
    """Level threshold below sup|phi_0|; the maximum-principle range is violated."""


# ---------------------------------------------------------------------------
# right-hand sides


def _once_per_grid(build):
    """build(grid) for a factor of F that does not depend on t, evaluated
    once for the last grid seen and returned read-only thereafter."""

    @functools.lru_cache(maxsize=1)
    def cached(grid: TorusGrid) -> np.ndarray:
        values = build(grid)
        values.flags.writeable = False
        return values

    return cached


class RhsSpec:
    """Data F = scale * raw_F(grid, t), with e^F > 0 everywhere.

    The constructors build raw_F for the generators: `zero`, `time_only`
    (F = g(t)), `smooth_product` (F = spatial(x) * profile(t)) and
    `mollified_log_singularity` (e^F = (r_moll^2 + dist^2(x, center))^-q,
    constant in t).  The last two evaluate their spatial factor once per
    grid and keep it read-only.  `tabulated` takes sampled data instead:
    e^F interpolated linearly in time from a trajectory.

    `scale` multiplies F; `p0` is the claimed integrability exponent of e^F
    (the conjugate q0 = p0/(p0-1) drives the Holder exponents downstream).
    """

    def __init__(self, raw_F, p0: float = 2.0, scale: float = 1.0):
        if p0 <= 1.0:
            raise ValueError("p0 must exceed 1")
        self.raw_F = raw_F
        self.p0 = float(p0)
        self.scale = float(scale)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, p0: float = 2.0) -> "RhsSpec":
        return cls(lambda grid, t: np.zeros(grid.shape), p0)

    @classmethod
    def time_only(cls, g, p0: float = 2.0, scale: float = 1.0) -> "RhsSpec":
        return cls(lambda grid, t: np.full(grid.shape, float(g(t))), p0, scale)

    @classmethod
    def smooth_product(cls, spatial, profile, p0: float = 2.0,
                       scale: float = 1.0) -> "RhsSpec":
        @_once_per_grid
        def spatial_values(grid):
            values = spatial(*grid.meshgrid()) if callable(spatial) else spatial
            return np.broadcast_to(np.asarray(values, dtype=float), grid.shape)

        def raw_F(grid, t):
            return spatial_values(grid) * float(profile(t))

        return cls(raw_F, p0, scale)

    @classmethod
    def mollified_log_singularity(cls, center, strength: float,
                                  moll_radius: float, p0: float = 2.0,
                                  scale: float = 1.0) -> "RhsSpec":
        if moll_radius <= 0:
            raise ValueError(f"moll_radius must be positive, got {moll_radius}")
        strength, moll_radius = float(strength), float(moll_radius)

        @_once_per_grid
        def values(grid):
            c = center if center is not None else (0.0,) * grid.real_dim
            return -strength * np.log(moll_radius**2 + grid.periodic_distance_sq(c))

        return cls(lambda grid, t: values(grid), p0, scale)

    @classmethod
    def tabulated(cls, eF_traj: Trajectory, p0: float = 2.0) -> "RhsSpec":
        """F = log of e^F interpolated linearly in time between the samples
        of `eF_traj`, held at the end values outside them.  The samples
        carry their own grid; the one passed at evaluation is not read.
        """
        times, values = eF_traj.times, eF_traj.values

        def raw_F(grid, t):
            if len(times) == 1:
                return np.log(values[0])
            t = float(np.clip(t, times[0], times[-1]))
            k = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
            w = (t - times[k]) / (times[k + 1] - times[k])
            return np.log((1.0 - w) * values[k] + w * values[k + 1])

        return cls(raw_F, p0)

    # -- evaluation --------------------------------------------------------
    def F_field(self, grid: TorusGrid, t: float) -> ScalarField:
        return ScalarField(grid, self.scale * self.raw_F(grid, t))

    def sample(self, grid: TorusGrid, times) -> tuple[Trajectory, Trajectory]:
        """Trajectories of e^F and F at the given times."""
        times = np.asarray(times, dtype=float)
        F = np.stack([self.F_field(grid, t).values for t in times])
        return (Trajectory(grid, times, np.exp(F)), Trajectory(grid, times, F))

    def lp0_norm(self, grid: TorusGrid, times) -> float:
        """Space-time L^{p0} norm of e^F, recorded for the generator."""
        eF, _ = self.sample(grid, times)
        val = spacetime_integral(eF.map_values(lambda v: np.abs(v) ** self.p0))
        return float(val ** (1.0 / self.p0))


# ---------------------------------------------------------------------------
# solve


def solve_flow(phi0: ScalarField, rhs, params: FlowParams) -> Trajectory:
    """Integrate the flow on [0, T]; the trajectory is monotone and admissible.

    Raises ConeViolation if phi_0 lies outside the positive cone.
    """
    return solve_hessian_flow(phi0, rhs, HessianSymbol.det(phi0.grid.n_complex),
                              params)


# ---------------------------------------------------------------------------
# auxiliary right-hand sides


def eta_smooth_plus(x, j: int):
    """Smooth positive approximation of max(x, 0): (x + sqrt(x^2 + 1/j)) / 2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (x + np.sqrt(x * x + 1.0 / j))


def build_auxiliary_rhs(phi: Trajectory, eF: Trajectory, s: float,
                        j: int) -> tuple[Trajectory, float]:
    """Normalized density eta_j(-phi - s) e^F / A_{j,s} and the mass A_{j,s}.

    The returned trajectory integrates to exactly 1 over [0, T] x M under
    the trapezoid space-time quadrature.  Requires s >= sup|phi_0| so the
    auxiliary flow comparison holds from t = 0.
    """
    if phi.grid != eF.grid or phi.n_times != eF.n_times:
        raise ValueError("phi and eF must share grid and times")
    sup_phi0 = float(np.abs(phi.values[0]).max())
    if s < sup_phi0:
        raise SLevelTooSmall(
            f"level s={s:.6g} below sup|phi_0|={sup_phi0:.6g}; "
            "the comparison argument needs s >= sup|phi_0|")
    weighted = eta_smooth_plus(-phi.values - s, j) * eF.values
    traj = Trajectory(phi.grid, phi.times.copy(), weighted, dt=phi.dt)
    a_js = spacetime_integral(traj)
    return traj.map_values(lambda v: v / a_js), float(a_js)
