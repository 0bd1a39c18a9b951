"""Manufactured solutions for convergence studies of the flow solvers.

The family is psi(t, x) = -tau(t) (2 + cos(2 pi x / L)) / 2 on the n = 1
torus with tau(t) = t + c t^2, c >= 0.  Feeding the solver

    F := log((-d_t psi) (1 + psi_{z zbar}))

makes psi the exact solution.  With c = 0 the solution is linear in t, and
backward Euler reproduces it exactly (the backward difference quotient of a
linear function is its derivative); any c > 0 produces a genuine O(dt)
temporal error, which is what convergence-order measurements need.

Admissibility requires tau(T) < 2 L^2 / pi^2 (the spatial Hessian of psi
crosses the cone boundary beyond that time).
"""

from __future__ import annotations

import numpy as np

from .flow_ma import RhsSpec
from .grid import TorusGrid, Trajectory

__all__ = ["ManufacturedSolution", "admissible_horizon"]


def admissible_horizon(period: float, curvature: float) -> float:
    """Largest T with 1 + psi_zzbar > 0 on [0, T]: tau(T) = 2 L^2 / pi^2."""
    bound = 2.0 * period**2 / np.pi**2
    if curvature == 0.0:
        return bound
    c = curvature
    return (-1.0 + np.sqrt(1.0 + 4.0 * c * bound)) / (2.0 * c)


class ManufacturedSolution(RhsSpec):
    """Closed-form flow solution; as an RhsSpec, its generating data F."""

    def __init__(self, grid: TorusGrid, curvature: float = 1.0, p0: float = 2.0):
        if grid.n_complex != 1:
            raise ValueError("manufactured family is defined on n = 1 grids, "
                             f"got n_complex = {grid.n_complex}")
        super().__init__(self._F, p0)
        self.grid = grid
        self.curvature = float(curvature)
        self._two_pi = 2.0 * np.pi / grid.period
        self._cosx = np.cos(self._two_pi * grid.meshgrid()[0])

    def _tau(self, t: float) -> float:
        return t + self.curvature * t * t

    def _tau_prime(self, t: float) -> float:
        return 1.0 + 2.0 * self.curvature * t

    def exact_values(self, t: float) -> np.ndarray:
        return -self._tau(t) * (2.0 + self._cosx) / 2.0

    def exact_trajectory(self, times) -> Trajectory:
        times = np.asarray(times, dtype=float)
        vals = np.stack([self.exact_values(float(t)) for t in times])
        return Trajectory(self.grid, times, vals)

    def _F(self, grid: TorusGrid, t: float) -> np.ndarray:
        if grid is not self.grid and grid != self.grid:
            raise ValueError("manufactured rhs is bound to its grid")
        neg_dt = self._tau_prime(t) * (2.0 + self._cosx) / 2.0
        one_plus_h = 1.0 + self._tau(t) * (self._two_pi**2 / 8.0) * self._cosx
        if np.any(one_plus_h <= 0.0):
            raise ValueError(
                f"manufactured solution leaves the admissible cone at t={t}")
        return np.log(neg_dt * one_plus_h)

    def sup_error(self, traj: Trajectory) -> float:
        exact = self.exact_trajectory(traj.times)
        return float(np.abs(traj.values - exact.values).max())
