"""Backward-Euler Newton driver shared by the flow solvers.

Each time step solves the pointwise nonlinear system R(phi_next) = 0 by a
damped Newton iteration.  The Jacobian is applied matrix-free: every flow
supplies the per-iterate coefficient fields of the linearized operator

    A u = zeroth(x) * u - tr(B(x) . H[u]),

where H[u] is the complex Hessian of the update.  The linearized flow
operator is uniformly parabolic on admissible iterates, so A is solved by
BiCGStab with right preconditioning: the solver works on the one operator
A M^{-1}, M the constant-coefficient operator, whose symbol is diagonal in
Fourier space.  One forward real FFT per application gives the spectrum of
u = M^{-1} y, and u and every Hessian component of u are inverse transforms
of it (real transforms from `scipy.fft`).

The Newton iteration is inexact: iteration k solves its linear system only to
the relative tolerance eta_k = 0.9 (|F_k| / |F_{k-1}|)^2 of Eisenstat and
Walker's choice 2 (`_forcing_term`), in the residual max-norm the stopping
test uses, capped at 0.1 and never below FlowParams.linear_rtol.  Early
iterates take cheap, loose solves; eta_k falls with the residual.

Line search halves the step until the residual drops and the iterate stays
inside the admissible cone (no projection; steps that cross the cone are
rejected wholesale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, bicgstab, gmres

from .grid import TorusGrid

__all__ = ["FlowParams", "NewtonDiverged", "AdmissibilityLost", "newton_step"]


@dataclass
class FlowParams:
    """Time-stepping and Newton controls for the implicit flow solvers."""

    T: float = 1.0
    dt: float = 0.01
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    admissibility_floor: float = 1e-8
    linear_rtol: float = 1e-8       # floor of the Krylov forcing term eta_k
    linear_max_iter: int = 400
    initial_guess: str = "predictor"  # or "constant"

    def __post_init__(self):
        if not (0 < self.dt <= self.T):
            raise ValueError("require 0 < dt <= T")
        if self.newton_tol <= 0 or self.admissibility_floor <= 0:
            raise ValueError("tolerances must be positive")
        if self.linear_max_iter < 1:
            raise ValueError("linear_max_iter must be at least 1")
        if self.initial_guess not in ("predictor", "constant"):
            raise ValueError(f"unknown initial_guess {self.initial_guess!r}")


class NewtonDiverged(RuntimeError):
    """Newton failed to reduce the residual within the line-search ladder."""

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


def _preconditioned_operator(grid: TorusGrid, zeroth: np.ndarray, weights: tuple):
    """The right-preconditioned operator y -> A M^{-1} y, and M^{-1}.

    A u = zeroth * u - sum_j w_j part_j(u) over the components of
    `hessian_parts`, with the real weights of a Hermitian B: (b11,) for
    n = 1 and (b11, b22, 2 Re b12, 2 Im b12) for n = 2.  M is the
    constant-coefficient operator with symbol mean(zeroth) + mean(tr B)/n
    |k|^2/4 (in the grid's derivative mode).  One rfftn of y gives the
    spectrum of u = M^{-1} y, from which u and every Hessian component of u
    are inverse transforms.
    """
    n = grid.n_complex
    b_mean = max(float(sum(weights[:n]).mean()) / n, 0.0)
    denom = np.maximum(float(zeroth.mean()) - b_mean * grid.quarter_laplacian_symbol,
                       1e-300)

    def spectrum(y: np.ndarray) -> np.ndarray:
        uhat = scipy.fft.rfftn(y.reshape(grid.shape))
        uhat /= denom
        return uhat

    def inverse(vhat: np.ndarray) -> np.ndarray:
        return scipy.fft.irfftn(vhat, s=grid.shape, axes=grid.axes, overwrite_x=True)

    def apply(y: np.ndarray) -> np.ndarray:
        uhat = spectrum(y)
        trace = sum(w * inverse(sym * uhat)
                    for w, sym in zip(weights, grid.hessian_symbols))
        return (zeroth * inverse(uhat) - trace).ravel()

    def precondition(y: np.ndarray) -> np.ndarray:
        return inverse(spectrum(y)).ravel()

    return apply, precondition


# Eisenstat-Walker choice 2: eta_k = _EW_GAMMA (|F_k| / |F_{k-1}|)^2, at
# most _ETA_MAX; the first Newton iteration of a step uses _ETA_0.
_ETA_0 = 0.1
_ETA_MAX = 0.1
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1


def _forcing_term(res_norm: float, prev_norm: float | None, eta_prev: float,
                  floor: float) -> float:
    """Krylov tolerance of the next Newton iteration (Eisenstat-Walker 2).

    prev_norm is the residual norm one iteration earlier, None on the first
    iteration, which takes _ETA_0.  The safeguard keeps eta >= 0.9
    eta_prev^2 while that exceeds 0.1; the result is capped at _ETA_MAX and
    never below floor.
    """
    if prev_norm is None:
        eta = _ETA_0
    else:
        eta = _EW_GAMMA * (res_norm / prev_norm) ** 2
        guard = _EW_GAMMA * eta_prev * eta_prev
        if guard > _EW_SAFEGUARD:
            eta = max(eta, guard)
    return max(min(eta, _ETA_MAX), floor)


def _solve_linearized(grid: TorusGrid, zeroth: np.ndarray, weights: tuple,
                      rhs: np.ndarray, rtol: float, maxiter: int) -> tuple:
    """Solve zeroth * u - tr(B H[u]) = rhs, B given by its real weights.

    BiCGStab, and the GMRES fallback, solve (A M^{-1}) y = rhs from
    y_0 = rhs (so u_0 = M^{-1} rhs) with the one operator of
    `_preconditioned_operator`; u = M^{-1} y.  Returns (u, info) with
    scipy's info: 0 when BiCGStab or the fallback reached rtol, nonzero when
    both stalled.
    """
    apply, precondition = _preconditioned_operator(grid, zeroth, weights)
    A = LinearOperator((rhs.size, rhs.size), matvec=apply, dtype=float)
    b = rhs.ravel()
    y, info = bicgstab(A, b, x0=b, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        # scipy counts gmres's maxiter in restart cycles: cap the inner
        # iterations, not the cycles, at maxiter
        restart = min(20, maxiter)
        y, info = gmres(A, b, x0=y, rtol=rtol, atol=0.0, restart=restart,
                        maxiter=max(1, maxiter // restart))
    return precondition(y).reshape(grid.shape), info


def newton_step(grid: TorusGrid, guess: np.ndarray, residual_fn, linearization_fn,
                admissible_fn, params: FlowParams, t: float | None = None) -> np.ndarray:
    """Damped inexact Newton iteration for one backward-Euler step.

    Stops when the max-norm of the residual is at most params.newton_tol;
    iteration k solves its linear system to the forcing term eta_k.

    residual_fn(values) -> residual array;
    linearization_fn(values) -> (zeroth, weights): zeroth and the real
        weights of B (see `_preconditioned_operator`);
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
    prev_norm, eta = None, _ETA_0

    for it in range(params.newton_max_iter):
        if res_norm <= params.newton_tol:
            break
        eta = _forcing_term(res_norm, prev_norm, eta, params.linear_rtol)
        prev_norm = res_norm
        zeroth, weights = linearization_fn(phi)
        delta, info = _solve_linearized(grid, zeroth, weights, res,
                                        eta, params.linear_max_iter)
        if info != 0:
            raise NewtonDiverged(
                f"linearized solve stalled (info={info}) at Newton iteration "
                f"{it} with forcing term eta={eta:.3g} and "
                f"linear_max_iter={params.linear_max_iter}", t)
        frac = 1.0
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
            raise NewtonDiverged(f"residual not reduced below {res_norm:.3e} "
                                 "after the full line-search ladder", t)
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
