"""Backward-Euler Newton driver shared by the flow solvers.

Each time step solves the pointwise nonlinear system R(phi_next) = 0 by a
damped Newton iteration.  The Jacobian is applied matrix-free: every flow
supplies the per-iterate coefficient fields of the linearized operator

    A u = zeroth(x) * u - tr(B(x) . H[u]),

where H[u] is the complex Hessian of the update.  The linearized flow
operator is uniformly parabolic on admissible iterates, so A is solved with
BiCGStab preconditioned by the constant-coefficient symbol in Fourier space.
Line search halves the step until the residual drops and the iterate stays
inside the admissible cone (no projection; steps that cross the cone are
rejected wholesale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab, gmres

from .grid import TorusGrid, hessian_parts

__all__ = ["FlowParams", "NewtonDiverged", "AdmissibilityLost", "newton_step"]


@dataclass
class FlowParams:
    """Time-stepping and Newton controls for the implicit flow solvers."""

    T: float = 1.0
    dt: float = 0.01
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    damping: float = 1.0
    admissibility_floor: float = 1e-8
    linear_rtol: float = 1e-8
    linear_max_iter: int = 400
    initial_guess: str = "predictor"  # or "constant"

    def __post_init__(self):
        if not (0 < self.dt <= self.T):
            raise ValueError("require 0 < dt <= T")
        if self.newton_tol <= 0 or self.admissibility_floor <= 0:
            raise ValueError("tolerances must be positive")
        if self.initial_guess not in ("predictor", "constant"):
            raise ValueError(f"unknown initial_guess {self.initial_guess!r}")


class NewtonDiverged(RuntimeError):
    """Newton failed to reduce the residual within the damping ladder."""

    def __init__(self, message, t=None):
        if t is not None:
            message = f"{message} (at flow time t={t:.6g})"
        super().__init__(message)
        self.t = t


class AdmissibilityLost(RuntimeError):
    """Eigenvalue floor of I + H violated; usually signals dt too large."""

    def __init__(self, message, t=None):
        if t is not None:
            message = f"{message} (at flow time t={t:.6g})"
        super().__init__(message)
        self.t = t


def _hessian_trace(u: np.ndarray, grid: TorusGrid, weights: tuple) -> np.ndarray:
    """tr(B . H[u]) = sum_j w_j part_j(u) over the components of `hessian_parts`.

    The real weights of a Hermitian B are (b11,) for n = 1 and
    (b11, b22, 2 Re b12, 2 Im b12) for n = 2.
    """
    parts = hessian_parts(u, grid)
    out = weights[0] * parts[0]
    for w, part in zip(weights[1:], parts[1:]):
        out += w * part
    return out


def _fourier_preconditioner(grid: TorusGrid, zeroth_mean: float, b_mean: float):
    """Inverse of the constant-coefficient symbol zeroth + b * |k|^2 / 4."""
    denom = np.maximum(zeroth_mean - b_mean * grid.quarter_laplacian_symbol, 1e-300)

    def apply(v: np.ndarray) -> np.ndarray:
        vhat = np.fft.rfftn(v.reshape(grid.shape))
        return np.fft.irfftn(vhat / denom, s=grid.shape, axes=grid.axes).ravel()

    return apply


def _solve_linearized(grid: TorusGrid, zeroth: np.ndarray, weights: tuple,
                      rhs: np.ndarray, rtol: float, maxiter: int) -> np.ndarray:
    """Solve zeroth * u - tr(B H[u]) = rhs, B given by its real weights."""
    size = rhs.size

    def matvec(v):
        u = v.reshape(grid.shape)
        return (zeroth * u - _hessian_trace(u, grid, weights)).ravel()

    n = grid.n_complex
    b_mean = float(sum(weights[:n]).mean()) / n
    prec = _fourier_preconditioner(grid, float(zeroth.mean()), max(b_mean, 0.0))

    A = LinearOperator((size, size), matvec=matvec, dtype=float)
    M = LinearOperator((size, size), matvec=prec, dtype=float)
    x0 = prec(rhs.ravel())
    sol, info = bicgstab(A, rhs.ravel(), x0=x0, rtol=rtol, atol=0.0,
                         maxiter=maxiter, M=M)
    if info != 0:
        sol, info = gmres(A, rhs.ravel(), x0=sol, rtol=rtol, atol=0.0,
                          maxiter=maxiter, M=M)
        if info != 0:
            raise NewtonDiverged(f"linearized solve stalled (info={info})")
    return sol.reshape(grid.shape)


def newton_step(grid: TorusGrid, guess: np.ndarray, residual_fn, linearization_fn,
                admissible_fn, params: FlowParams, t: float | None = None) -> np.ndarray:
    """Damped Newton iteration for one backward-Euler step.

    residual_fn(values) -> residual array;
    linearization_fn(values) -> (zeroth, weights): zeroth and the real
        weights of B (see `_hessian_trace`);
    admissible_fn(values) -> True iff the iterate respects the cone floor.

    Iterates are fresh arrays that are never modified in place (the first
    is `guess` itself), so the callbacks may cache per-iterate state keyed
    on the array's identity.
    """
    phi = np.asarray(guess, dtype=float)
    if not admissible_fn(phi):
        raise AdmissibilityLost("initial Newton guess violates the cone floor", t)
    res = residual_fn(phi)
    res_norm = float(np.abs(res).max())

    for _ in range(params.newton_max_iter):
        if res_norm <= params.newton_tol:
            break
        zeroth, weights = linearization_fn(phi)
        delta = _solve_linearized(grid, zeroth, weights, res,
                                  params.linear_rtol, params.linear_max_iter)
        frac = params.damping
        accepted = False
        for _ in range(25):
            trial = phi + frac * delta
            if admissible_fn(trial):
                trial_res = residual_fn(trial)
                trial_norm = float(np.abs(trial_res).max())
                if trial_norm <= res_norm * (1.0 - 0.1 * frac) or trial_norm <= params.newton_tol:
                    phi, res, res_norm = trial, trial_res, trial_norm
                    accepted = True
                    break
            frac *= 0.5
        if not accepted:
            raise NewtonDiverged(
                f"residual not reduced below {res_norm:.3e} with full damping ladder", t)
    if res_norm > params.newton_tol:
        raise NewtonDiverged(
            f"residual {res_norm:.3e} above tolerance after "
            f"{params.newton_max_iter} iterations", t)
    if not admissible_fn(phi):
        raise AdmissibilityLost("converged iterate violates the eigenvalue floor", t)
    return phi


def step_times(T: float, dt: float) -> np.ndarray:
    """Times 0 = t_0 < ... < t_K = T with ceil(T/dt) steps (last one clipped)."""
    n_steps = int(np.ceil(T / dt - 1e-12))
    times = np.minimum(np.arange(n_steps + 1) * dt, T)
    times[-1] = T
    return times
