"""General parabolic Hessian flows f(-d_t phi, lambda[h_phi]) = e^F.

The nonlinearity f is a symmetric monotone function of the extended
eigenvalue vector (lambda_0, lambda_1, ..., lambda_n) where lambda_0 is the
time slot -d_t phi and lambda_1..lambda_n are the eigenvalues of
I + H[phi].  Three symbol kinds:

    det                   f = lambda_0 lambda_1 ... lambda_n  (Monge-Ampere)
    full_sigma_k          f = sigma_k(lambda_0..lambda_n)^{1/k},  1 <= k <= n+1
    sigma_quotient_power  g = (lambda_0 (sigma_k/sigma_l)^{1/(k-l)}(lambda'))^{n/(n+1)},
                          0 <= l < k <= n

`HessianSymbol.ma_power(n)` is full_sigma_k with k = n+1, the root
(prod_i lambda_i)^{1/(n+1)} of det, and `HessianSymbol.lambda0_sigma_k(n, k)`
is sigma_quotient_power with l = 0.  Raised to a power q, each symbol is
affine in the time slot, f^q = a(lambda') + lambda_0 b(lambda')
(`_rate_affine_form`, the one place a symbol's formula is written).

sigma_k is the unnormalized elementary symmetric polynomial
(`grid.elementary_symmetric`).  Gradients use the closed forms
d sigma_k / d lambda_i = sigma_{k-1}(lambda without i), which stay smooth
across eigenvalue multiplicities; eigenvalues are never differentiated
directly.  Every flow, Monge-Ampere included, is stepped by
`backward_euler_step`, which restricts iterates to the positive cone (all
slots >= floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    ScalarField,
    TorusGrid,
    Trajectory,
    elementary_symmetric,
    hessian_parts,
    identity_plus_eigenvalues,
)
from .stepping import (
    AdmissibilityLost,
    FlowError,
    FlowParams,
    NewtonDiverged,
    newton_step,
    step_times,
)

__all__ = [
    "HessianSymbol",
    "ConeViolation",
    "f_eval_grad_arrays",
    "hessian_residual",
    "backward_euler_step",
    "solve_hessian_flow",
    "symbol_from_config",
]


class ConeViolation(FlowError, ValueError):
    """Point outside the symbol's admissible cone, or data it cannot reach."""


@dataclass(frozen=True)
class HessianSymbol:
    """One of the example nonlinearities, with its integer parameters.

    `degree` records the homogeneity: n+1 for det, 1 for full_sigma_k,
    2n/(n+1) for the lambda_0-split sigma_quotient_power (each factor
    contributes degree n/(n+1) out of the (1+1)-homogeneous product).
    """

    kind: str
    n: int
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.kind not in ("det", "full_sigma_k", "sigma_quotient_power"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if self.kind == "sigma_quotient_power" and not 0 <= self.l < self.k <= self.n:
            raise ValueError(f"need 0 <= l < k <= n, got k={self.k}, l={self.l}, n={self.n}")
        if self.kind == "full_sigma_k" and not 1 <= self.k <= self.n + 1:
            raise ValueError(f"need 1 <= k <= n + 1, got k={self.k}, n={self.n}")

    @property
    def degree(self) -> float:
        if self.kind == "det":
            return self.n + 1.0
        if self.kind == "full_sigma_k":
            return 1.0
        return 2.0 * self.n / (self.n + 1.0)

    # -- constructors --
    @classmethod
    def det(cls, n: int) -> "HessianSymbol":
        return cls("det", n)

    @classmethod
    def ma_power(cls, n: int) -> "HessianSymbol":
        return cls.full_sigma_k(n, n + 1)

    @classmethod
    def lambda0_sigma_k(cls, n: int, k: int) -> "HessianSymbol":
        return cls.sigma_quotient(n, k, 0)

    @classmethod
    def sigma_quotient(cls, n: int, k: int, l: int) -> "HessianSymbol":
        return cls("sigma_quotient_power", n, k=k, l=l)

    @classmethod
    def full_sigma_k(cls, n: int, k: int) -> "HessianSymbol":
        return cls("full_sigma_k", n, k=k)


def symbol_from_config(name: str, n: int, k: int = 0, l: int = 0) -> HessianSymbol:
    """Config-key selection: ma | l0_sigma_k | sigma_quotient | full_sigma_k."""
    table = {
        "ma": lambda: HessianSymbol.ma_power(n),
        "l0_sigma_k": lambda: HessianSymbol.lambda0_sigma_k(n, k),
        "sigma_quotient": lambda: HessianSymbol.sigma_quotient(n, k, l),
        "full_sigma_k": lambda: HessianSymbol.full_sigma_k(n, k),
    }
    if name not in table:
        raise ValueError(f"unknown symbol name {name!r}")
    return table[name]()


def _sigma_gradient(slots: list, k: int):
    """d sigma_k / d lambda_i = sigma_{k-1} of the other slots, stacked on a
    trailing axis; the scalar 0.0 where sigma_k is constant (k = 0, or k
    above the number of slots)."""
    if not 0 < k <= len(slots):
        return 0.0
    out = np.empty(np.broadcast(*slots).shape + (len(slots),))
    for i in range(len(slots)):
        out[..., i] = elementary_symmetric(slots[:i] + slots[i + 1:], k - 1)[k - 1]
    return out


# ---------------------------------------------------------------------------
# symbol evaluation


def f_eval_grad_arrays(symbol: HessianSymbol, lam0: np.ndarray,
                       lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (value, gradient) of the symbol.

    lam0 has any shape, lams the same shape plus a trailing axis of length n.
    Gradient is stacked on a trailing axis of length n + 1.  With
    f^q = a + lambda_0 b (`_rate_affine_form`), f = (a + lambda_0 b)^{1/q}
    and grad f = f / (q f^q) (b, da + lambda_0 db).  Assumes the points lie
    in the symbol's cone; no membership test is done here.
    """
    lam0 = np.asarray(lam0, dtype=float)
    q, a, b, da, db = _rate_affine_form(symbol, np.asarray(lams, dtype=float),
                                        derivatives=True)
    fq = a + lam0 * b
    grad = np.empty(lam0.shape + (symbol.n + 1,))
    grad[..., 0] = b
    spatial = grad[..., 1:]   # da + lam0 db, without temporaries
    np.multiply(lam0[..., None], db, out=spatial)
    spatial += da
    if q == 1.0:
        return fq, grad
    val = fq ** (1.0 / q)
    grad *= (val / (q * fq))[..., None]
    return val, grad


# ---------------------------------------------------------------------------
# flow residual and solver


def _cone_arrays(grid: TorusGrid, phi_prev_vals, vals, dt):
    lam0 = (phi_prev_vals - vals) / dt
    parts = hessian_parts(vals, grid)
    return lam0, parts, identity_plus_eigenvalues(parts)


def hessian_residual(phi_prev: ScalarField, phi_next: ScalarField, dt: float,
                     f_next: ScalarField, symbol: HessianSymbol) -> ScalarField:
    """Pointwise f(lambda_0, lambda[I+H]) - e^F for a backward-Euler pair."""
    grid = phi_prev.grid
    if symbol.n != grid.n_complex:
        raise ValueError("symbol dimension does not match the grid")
    lam0, _, eigs = _cone_arrays(grid, phi_prev.values, phi_next.values, dt)
    bad = (lam0 <= 0.0) | (eigs.min(axis=-1) <= 0.0)
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ConeViolation("backward-Euler pair leaves the positive cone",
                            location=loc)
    val = _symbol_value(symbol, lam0, eigs)
    return ScalarField(grid, val - np.exp(f_next.values))


def _trace_weights(parts: tuple, eigs: np.ndarray, grad: np.ndarray) -> tuple:
    """Real weights of tr(B . H[u]) for B = sum_a grad_a q_a q_a^*.

    q_a are the eigenvectors of A = I + H (the `hessian_parts` of the
    iterate), so B is built from the spectral projectors
    P_plus = (A - lam_minus I) / gap and P_minus = (lam_plus I - A) / gap;
    the weights pair with `hessian_parts(u)` as (b11, b22, 2 Re b12,
    2 Im b12) for n = 2 and (b11,) for n = 1.
    """
    if len(parts) == 1:
        return (grad[..., 0],)
    h11, h22, re, im = parts
    lam_minus = eigs[..., 0]
    lam_plus = eigs[..., 1]
    gap = lam_plus - lam_minus
    scale = np.maximum(np.abs(lam_plus), np.abs(lam_minus)) + 1e-30
    degenerate = gap <= 1e-12 * scale
    safe_gap = np.where(degenerate, 1.0, gap)
    w_minus = grad[..., 0]
    w_plus = grad[..., 1]
    mean_w = 0.5 * (w_plus + w_minus)

    def diagonal(h):
        a = 1.0 + h
        return np.where(degenerate, mean_w,
                        (w_plus * (a - lam_minus) + w_minus * (lam_plus - a)) / safe_gap)

    off = np.where(degenerate, 0.0, 2.0 * (w_plus - w_minus) / safe_gap)
    return diagonal(h11), diagonal(h22), off * re, off * im


def _hessian_callbacks(grid: TorusGrid, phi_prev_vals: np.ndarray, dt: float,
                       ef_next: np.ndarray, symbol: HessianSymbol, floor: float):
    """Newton callbacks that share one cone state per distinct iterate.

    The state (lambda_0, hessian_parts, eigenvalues of I + H) of the last
    iterate seen is kept together with a reference to that array, so the
    admissibility check, residual and linearization of one iterate compute
    its Hessian once; `state` itself is returned last.  The Newton driver
    never modifies an iterate in place, which makes the array's identity a
    safe key.
    """
    last = [None, None]   # [iterate, its cone state]

    def state(vals: np.ndarray):
        if last[0] is not vals:
            last[:] = [vals, _cone_arrays(grid, phi_prev_vals, vals, dt)]
        return last[1]

    def residual(vals: np.ndarray) -> np.ndarray:
        lam0, _, eigs = state(vals)
        return _symbol_value(symbol, lam0, eigs) - ef_next

    def linearization(vals: np.ndarray):
        lam0, parts, eigs = state(vals)
        _, grad = f_eval_grad_arrays(symbol, lam0, eigs)
        return grad[..., 0] / dt, _trace_weights(parts, eigs, grad[..., 1:])

    def admissible(vals: np.ndarray) -> bool:
        lam0, _, eigs = state(vals)
        return bool(lam0.min() >= floor and eigs.min() >= floor)

    return residual, linearization, admissible, state


def _rate_affine_form(symbol: HessianSymbol, eigs: np.ndarray,
                      derivatives: bool = False) -> tuple:
    """(q, a, b) with f(r, eigs)^q = a(eigs) + r b(eigs), pointwise.

    Raised to the power q, every symbol is affine in the time slot r, with
    b > 0 on the positive cone; for det and sigma_quotient_power a = 0.
    With `derivatives`, (q, a, b, da, db) adds the gradients of a and b in
    eigs, stacked on a trailing axis; only the linearization needs them.
    """
    n = symbol.n
    k = n + 1 if symbol.kind == "det" else symbol.k
    slots = [eigs[..., i] for i in range(n)]
    e = elementary_symmetric(slots, k)
    if symbol.kind != "sigma_quotient_power":
        # sigma_k(r, eigs) = sigma_k(eigs) + r sigma_{k-1}(eigs); det is
        # sigma_{n+1} without the root
        out = (1.0 if symbol.kind == "det" else k), e[k], e[k - 1]
        if derivatives:
            out += _sigma_gradient(slots, k), _sigma_gradient(slots, k - 1)
        return out
    # g^{(n+1)/n} = r (sigma_k / sigma_l)^{1/(k-l)}(eigs)
    l = symbol.l
    b = (e[k] / e[l]) ** (1.0 / (k - l))
    if not derivatives:
        return (n + 1.0) / n, 0.0, b
    dlog_b = _sigma_gradient(slots, k) / e[k][..., None]
    if l:
        dlog_b -= _sigma_gradient(slots, l) / e[l][..., None]
    dlog_b *= (b / (k - l))[..., None]
    return (n + 1.0) / n, 0.0, b, 0.0, dlog_b


def _symbol_value(symbol: HessianSymbol, lam0: np.ndarray,
                  eigs: np.ndarray) -> np.ndarray:
    """The value of `f_eval_grad_arrays` without its gradient:
    f = (a + lambda_0 b)^{1/q} from `_rate_affine_form`."""
    q, a, b = _rate_affine_form(symbol, eigs)
    val = a + lam0 * b
    return val if q == 1.0 else val ** (1.0 / q)


def _scalar_rate(symbol: HessianSymbol, target: np.ndarray, eigs: np.ndarray,
                 t: float | None = None) -> np.ndarray:
    """Solve f(r, eigs) = target for r > 0 pointwise, in closed form.

    With f^q = a + r b (`_rate_affine_form`), r = (target^q - a) / b.  A
    root r > 0 exists exactly where target^q > a; ConeViolation names the
    first point where it does not.  Where a = 0 that test never trips.
    """
    q, a, b = _rate_affine_form(symbol, eigs)
    target_q = target ** q
    bad = target_q <= a
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        f_zero = float(np.broadcast_to(a, bad.shape)[loc]) ** (1.0 / q)
        raise ConeViolation(
            f"e^F = {target[loc]:.6g} <= f(0+, lambda) = {f_zero:.6g}: "
            f"no rate lambda_0 > 0 solves the {symbol.kind} step",
            location=loc, t=t)
    return (target_q - a) / b


def _euler_step(grid: TorusGrid, prev: np.ndarray, eigs: np.ndarray, dt: float,
                ef_next: np.ndarray, symbol: HessianSymbol, params: FlowParams,
                t: float | None):
    """`backward_euler_step` on raw arrays, given the eigenvalues of I + H[prev].

    Returns the new values and the eigenvalues of I + H at them, which the
    converged Newton state already holds, so a time loop computes the
    Hessian of each slice once.
    """
    if symbol.n != grid.n_complex:
        raise ValueError("symbol dimension does not match the grid")
    floor = params.admissibility_floor
    if eigs.min() < floor:
        raise AdmissibilityLost("phi_prev violates the eigenvalue floor", t)
    rate = _scalar_rate(symbol, ef_next, eigs, t)
    residual, linearization, admissible, state = _hessian_callbacks(
        grid, prev, dt, ef_next, symbol, floor)
    guess = prev - dt * rate
    if not admissible(guess):
        guess = prev - dt * float(rate.mean())
    vals = newton_step(grid, guess, residual, linearization, admissible,
                       params, t=t)
    overshoot = float((vals - prev).max())
    if overshoot > 10.0 * params.newton_tol:
        raise NewtonDiverged(
            f"monotonicity violated by {overshoot:.3e} at a converged step", t)
    return vals, state(vals)[2]


def backward_euler_step(phi_prev: ScalarField, dt: float, f_next: ScalarField,
                        symbol: HessianSymbol, params: FlowParams,
                        t: float | None = None) -> ScalarField:
    """One backward-Euler step f((phi_prev - phi)/dt, lambda[I + H[phi]]) = e^F.

    The predictor solves the equation pointwise for the rate, in closed
    form, with the eigenvalues of phi_prev frozen, falling back to the mean
    rate when that guess leaves the cone; Newton (`stepping.newton_step`)
    then solves the coupled step.  Raises AdmissibilityLost if phi_prev
    violates the eigenvalue floor, ConeViolation if e^F lies below the
    symbol's range at some point, and NewtonDiverged if a BiCGStab solve
    stalls, if the residual cannot be reduced (also after a re-solve at the
    forcing floor) or if the step is not monotone.
    """
    grid = phi_prev.grid
    prev = phi_prev.require_finite("phi_prev").values
    eigs = identity_plus_eigenvalues(hessian_parts(prev, grid))
    vals, _ = _euler_step(grid, prev, eigs, dt, np.exp(f_next.values), symbol,
                          params, t)
    return ScalarField(grid, vals)


def solve_hessian_flow(phi0: ScalarField, rhs, symbol: HessianSymbol,
                       params: FlowParams) -> Trajectory:
    """Backward-Euler trajectory of the Hessian flow; cone-respecting Newton.

    Raises ConeViolation if phi_0 lies outside the positive cone.
    """
    grid = phi0.grid
    vals = phi0.require_finite("phi_0").values
    eigs = identity_plus_eigenvalues(hessian_parts(vals, grid))
    if eigs.min() <= 0.0:
        raise ConeViolation("phi_0 is not admissible for the positive cone")
    times = step_times(params.T, params.dt)
    values = np.empty((len(times),) + grid.shape)
    values[0] = vals
    for k in range(1, len(times)):
        t_k = float(times[k])
        dt_k = float(times[k] - times[k - 1])
        ef_next = np.exp(rhs.F_field(grid, t_k).values)
        vals, eigs = _euler_step(grid, vals, eigs, dt_k, ef_next, symbol,
                                 params, t_k)
        values[k] = vals
    return Trajectory(grid, times, values, dt=params.dt)
