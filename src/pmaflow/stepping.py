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
u = M^{-1} y.  Since M u = y, the trace of H[u] is known without a
transform, so only u and n^2 - 1 Hessian components of u (all but h_nn) are
inverse transforms of it: n^2 per application (real transforms from
`scipy.fft`).

With the preconditioner inside the operator, the Krylov method is plain
BiCGStab (van der Vorst 1992), written here as a port of scipy's
(`bicgstab`), so the module imports numpy and `scipy.fft` only.  A solve
that stops short of its tolerance (a rho or omega breakdown, or
_LINEAR_MAX_ITER iterations) raises NewtonDiverged with BiCGStab's reason.

The Newton iteration is inexact: iteration k solves its linear system only to
the relative tolerance eta_k = 0.9 (|F_k| / |F_{k-1}|)^2 of Eisenstat and
Walker's choice 2 (`_forcing_term`), in the residual max-norm the stopping
test uses, capped at 0.1 and never below the floor max(_LINEAR_RTOL,
newton_tol / (2 |F_k|_2)).  Choice 2 needs a previous residual, so the
first iteration of each step takes eta_0 = |F_0|, the initial residual
itself (Dembo, Eisenstat & Steihaug 1982: eta = O(|F|) converges
quadratically), under the same cap and floor: a step the predictor starts
close to the solution gets a tight first solve and needs fewer Newton
iterations.  Early iterates take cheap, loose solves; eta_k falls with the
residual, but not below the level at which the linear residual,
|r|_inf <= |r|_2 <= eta_k |F_k|_2, is half the Newton tolerance.  Since
eta_k bounds the linear residual in the 2-norm while the line search asks
for a decrease of the max-norm, a loose step can fail the whole ladder; that
iteration is then solved once more at the floor before Newton gives up.

Solves with eta_k >= 1e-4 (`_SINGLE_PRECISION_RTOL`) apply the operator,
and the final M^{-1}, in single precision (Kelley, SIAM Review 64, 2022;
Carson & Higham, SIAM J. Sci. Comput. 40, 2018): the transforms, the symbol
division and the weighted sum run in float32, whose ~1e-7 relative error is
1000x below such a tolerance.  The BiCGStab vectors, the returned update,
the Newton residual, the iterates' Hessians, the line search and the
stopping test stay float64: they decide convergence to newton_tol, far
below what float32 resolves.  Tighter solves, the floor among them, run in
float64 throughout.

Line search halves the step until the residual drops and the iterate stays
inside the admissible cone (no projection; steps that cross the cone are
rejected wholesale).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import TorusGrid

__all__ = ["FlowParams", "FlowError", "NewtonDiverged", "AdmissibilityLost",
           "newton_step"]


@dataclass
class FlowParams:
    """Time-stepping and Newton controls for the implicit flow solvers."""

    T: float = 1.0
    dt: float = 0.01
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    admissibility_floor: float = 1e-8

    def __post_init__(self):
        if not (0 < self.dt <= self.T):
            raise ValueError("require 0 < dt <= T")
        if self.newton_tol <= 0 or self.admissibility_floor <= 0:
            raise ValueError("tolerances must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be at least 1")


class FlowError(Exception):
    """A flow failure that names where it happened: the message ends with
    the grid location and the flow time, where they are known."""

    def __init__(self, message, t=None, location=None):
        if location is not None:
            message = f"{message} (grid location {location})"
        if t is not None:
            message = f"{message} (at flow time t={t:.6g})"
        super().__init__(message)
        self.t = t
        self.location = location


class NewtonDiverged(FlowError, RuntimeError):
    """Newton failed to reduce the residual within the line-search ladder."""


class AdmissibilityLost(FlowError, RuntimeError):
    """Eigenvalue floor of I + H violated; usually signals dt too large."""


def _preconditioned_operator(grid: TorusGrid, zeroth: np.ndarray, weights: tuple,
                             dtype=np.float64):
    """The right-preconditioned operator y -> A M^{-1} y, and M^{-1}.

    A u = zeroth * u - sum_j w_j part_j(u) over the components of
    `hessian_parts`, with the real weights of a Hermitian B: (b11,) for
    n = 1 and (b11, b22, 2 Re b12, 2 Im b12) for n = 2.  M is the
    constant-coefficient operator zbar u - bbar tr H[u], with zbar =
    mean(zeroth) and bbar = mean(tr B)/n, whose symbol is zbar + bbar
    |k|^2/4 (in the grid's derivative mode).

    Since M u = y, tr H[u] = (zbar u - y)/bbar needs no transform.  The
    last diagonal weight w_nn carries the trace,
    sum_j w_jj h_jj = w_nn tr H + sum_{j<n} (w_jj - w_nn) h_jj, so

        A M^{-1} y = c_u u + c_y y - sum_j w'_j part'_j(u),
        c_y = w_nn/bbar,  c_u = zeroth - zbar c_y,

    summed over the n^2 - 1 components other than h_nn: none at n = 1;
    h11 with weight b11 - b22, Re h12 and Im h12 at n = 2.  One rfftn of y
    gives the spectrum of u = M^{-1} y, from which u and those components
    are inverse transforms: n^2 irfftn per application.  Raises ValueError
    when zbar or bbar is not positive: M is then not invertible, nor A
    parabolic.

    dtype is the precision of the transforms: with np.float32, y is cast to
    single precision and the rfftn, the division by M's symbol, the irfftn
    and the weighted sum run in float32/complex64 against single-precision
    copies of the coefficients and symbols, and the result is cast back to
    float64 (relative error ~1e-7).  `_solve_linearized` asks for it only
    at loose Krylov tolerances; the Krylov vectors stay float64, and so does
    everything the Newton stopping test reads.
    """
    n = grid.n_complex
    z_mean = float(zeroth.mean())
    b_mean = sum(float(w.mean()) for w in weights[:n]) / n
    if not (b_mean > 0.0 and z_mean > 0.0):
        raise ValueError(f"linearized operator not parabolic: mean tr B = "
                         f"{n * b_mean:.6g}, mean zeroth = {z_mean:.6g}")

    def cast(a):
        # no copy in double precision; a float64 field is dropped once cast
        return np.asarray(a, dtype=dtype)

    denom = cast(z_mean - b_mean * grid.quarter_laplacian_symbol)
    c_y = weights[n - 1] / b_mean
    c_u = cast(zeroth - z_mean * c_y)
    c_y = cast(c_y)
    symbols = grid.hessian_symbols
    rest = [(cast(weights[j] - weights[n - 1]), cast(symbols[j])) for j in range(n - 1)]
    rest += [(cast(w), cast(sym)) for w, sym in zip(weights[n:], symbols[n:])]

    def spectrum(y: np.ndarray) -> np.ndarray:
        uhat = scipy.fft.rfftn(y)
        uhat /= denom
        return uhat

    def inverse(vhat: np.ndarray) -> np.ndarray:
        return scipy.fft.irfftn(vhat, s=grid.shape, axes=grid.axes, overwrite_x=True)

    def apply(y: np.ndarray) -> np.ndarray:
        y = cast(y.reshape(grid.shape))
        uhat = spectrum(y)
        others = sum(w * inverse(sym * uhat) for w, sym in rest)
        return np.asarray(c_u * inverse(uhat) + c_y * y - others, dtype=float).ravel()

    def precondition(y: np.ndarray) -> np.ndarray:
        u = inverse(spectrum(cast(y.reshape(grid.shape))))
        return np.asarray(u, dtype=float).ravel()

    return apply, precondition


# Eisenstat-Walker choice 2: eta_k = _EW_GAMMA (|F_k| / |F_{k-1}|)^2, at
# most _ETA_MAX; the first Newton iteration of a step uses eta_0 = |F_0|.
_ETA_MAX = 0.1
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1
# the least floor of eta_k; the floor rises to newton_tol / (2 |F_k|_2)
_LINEAR_RTOL = 1e-8
# BiCGStab iterations per linearized solve
_LINEAR_MAX_ITER = 400
# Krylov solves with eta_k at least this apply the operator in single
# precision: its ~1e-7 relative error is 1000x below the tolerance.
_SINGLE_PRECISION_RTOL = 1e-4


def _forcing_term(res_norm: float, prev_norm: float | None,
                  eta_prev: float | None, floor: float) -> float:
    """Krylov tolerance of the next Newton iteration (Eisenstat-Walker 2).

    prev_norm is the residual norm one iteration earlier, None on the first
    iteration, which takes the residual norm itself, so eta_0 = |F_0| and
    eta_prev is not read.  The safeguard keeps eta >= 0.9 eta_prev^2 while
    that exceeds 0.1; the result is capped at _ETA_MAX and never below
    floor.
    """
    if prev_norm is None:
        eta = res_norm
    else:
        eta = _EW_GAMMA * (res_norm / prev_norm) ** 2
        guard = _EW_GAMMA * eta_prev * eta_prev
        if guard > _EW_SAFEGUARD:
            eta = max(eta, guard)
    return max(min(eta, _ETA_MAX), floor)


# A linear operator as `bicgstab` reads it (its matvec); scipy's
# aslinearoperator accepts it as well.
_Operator = namedtuple("_Operator", "shape dtype matvec")


def bicgstab(A, b, x0=None, *, rtol=1e-5, atol=0.0, maxiter=None):
    """Solve A x = b by unpreconditioned BiCGStab; returns (x, info).

    A port of `scipy.sparse.linalg.bicgstab` (scipy 1.17) with M=None for
    real operators: the same numpy operations in the same order, so x is
    bit-identical to scipy's, and its info codes: 0 once |r|_2 < max(atol,
    rtol |b|_2), -10 on a rho breakdown, -11 on an omega breakdown, maxiter
    when the iterations run out.  A needs only `matvec`.  x0 (zero when
    None) is copied and b is never written, nor returned.
    """
    b = np.asarray(b, dtype=float).ravel()
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float).ravel()
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b.copy(), 0
    if maxiter is None:
        maxiter = len(b) * 10
    matvec = A.matvec
    # scipy's breakdown tolerances, eps^2 (kept from the original Fortran)
    rhotol = omegatol = np.finfo(float).eps ** 2

    r = b - matvec(x) if x.any() else b.copy()
    rtilde = r.copy()

    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(rtilde, r)
        if np.abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if np.abs(omega) < omegatol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            s = np.empty_like(r)
            p = r.copy()
        v = matvec(p)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        s[:] = r
        if np.linalg.norm(s) < atol:
            x += alpha * p
            return x, 0
        t = matvec(s)
        omega = np.dot(t, s) / np.dot(t, t)
        x += alpha * p
        x += omega * s
        r -= omega * t
        rho_prev = rho
    return x, maxiter


def _solve_linearized(grid: TorusGrid, zeroth: np.ndarray, weights: tuple,
                      rhs: np.ndarray, rtol: float, maxiter: int) -> tuple:
    """Solve zeroth * u - tr(B H[u]) = rhs, B given by its real weights.

    BiCGStab solves (A M^{-1}) y = rhs from y_0 = rhs (so u_0 = M^{-1} rhs)
    with the one operator of `_preconditioned_operator`; u = M^{-1} y.
    Returns (u, info), info BiCGStab's code: 0 once it reached rtol.

    At rtol >= _SINGLE_PRECISION_RTOL the operator, and the final M^{-1},
    run their transforms in float32; the Krylov vectors and u stay float64.
    """
    dtype = np.float32 if rtol >= _SINGLE_PRECISION_RTOL else np.float64
    apply, precondition = _preconditioned_operator(grid, zeroth, weights, dtype)
    b = rhs.ravel()
    y, info = bicgstab(_Operator((b.size, b.size), np.dtype(float), apply), b,
                       x0=b, rtol=rtol, atol=0.0, maxiter=maxiter)
    return precondition(y).reshape(grid.shape), info


def _line_search(phi: np.ndarray, delta: np.ndarray, res_norm: float,
                 residual_fn, admissible_fn, newton_tol: float):
    """Halve the step phi + frac delta, at most 25 times, until the trial is
    admissible and its residual max-norm falls by the fraction 0.1 frac (or
    to newton_tol).  Returns (trial, residual, max-norm), or None."""
    frac = 1.0
    for _ in range(25):
        trial = phi + frac * delta
        if admissible_fn(trial):
            trial_res = residual_fn(trial)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm <= res_norm * (1.0 - 0.1 * frac) or trial_norm <= newton_tol:
                return trial, trial_res, trial_norm
        frac *= 0.5
    return None


def newton_step(grid: TorusGrid, guess: np.ndarray, residual_fn, linearization_fn,
                admissible_fn, params: FlowParams, t: float | None = None) -> np.ndarray:
    """Damped inexact Newton iteration for one backward-Euler step.

    Stops when the max-norm of the residual is at most params.newton_tol;
    iteration k solves its linear system to the forcing term eta_k, and no
    tighter than a linear residual of newton_tol / 2 needs.  When the line
    search rejects a step solved above that floor, the iteration is solved
    once more at the floor before NewtonDiverged is raised.

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
    prev_norm = eta = None

    for it in range(params.newton_max_iter):
        if res_norm <= params.newton_tol:
            break
        # at eta = newton_tol / (2 |F|_2) the linear residual is at most
        # newton_tol / 2 already; a tighter solve cannot help the stopping test
        floor = max(_LINEAR_RTOL,
                    0.5 * params.newton_tol / float(np.linalg.norm(res)))
        eta = _forcing_term(res_norm, prev_norm, eta, floor)
        prev_norm = res_norm
        # a loose step the line search rejects is solved once more at the floor
        for rtol in (eta, floor) if eta > floor else (eta,):
            # the coefficient fields live only for the solve and the step only
            # for the line search, so neither is held while the next
            # linearization, each iteration's memory peak, runs
            delta, info = _solve_linearized(grid, *linearization_fn(phi), res,
                                            rtol, _LINEAR_MAX_ITER)
            if info != 0:
                why = {-10: "rho breakdown", -11: "omega breakdown"}.get(
                    info, "iteration cap")
                raise NewtonDiverged(
                    f"linearized solve stalled (BiCGStab {why}, info={info}) at "
                    f"Newton iteration {it} with forcing term eta={rtol:.3g} and "
                    f"iteration cap {_LINEAR_MAX_ITER}", t)
            accepted = _line_search(phi, delta, res_norm, residual_fn,
                                    admissible_fn, params.newton_tol)
            del delta
            if accepted is not None:
                break
        else:
            resolved = (f", also after a re-solve at the floor eta={floor:.3g}"
                        if eta > floor else "")
            raise NewtonDiverged(f"residual not reduced below {res_norm:.3e} after "
                                 f"the full line-search ladder{resolved}", t)
        phi, res, res_norm = accepted
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
