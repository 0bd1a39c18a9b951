"""General parabolic Hessian flows f(-d_t phi, lambda[h_phi]) = e^F.

The nonlinearity f is a symmetric monotone function of the extended
eigenvalue vector (lambda_0, lambda_1, ..., lambda_n) where lambda_0 is the
time slot -d_t phi and lambda_1..lambda_n are the eigenvalues of
I + H[phi].  Supported symbols:

    det               f = lambda_0 lambda_1 ... lambda_n  (Monge-Ampere)
    ma_power          f = (prod_i lambda_i)^{1/(n+1)}
    lambda0_sigma_k   g = (lambda_0 sigma_k^{1/k}(lambda'))^{n/(n+1)}
    sigma_quotient    g = (lambda_0 (sigma_k/sigma_l)^{1/(k-l)}(lambda'))^{n/(n+1)}
    full_sigma_k      f = sigma_k(lambda_0..lambda_n)^{1/k},  1 <= k <= n+1

sigma_k is the unnormalized elementary symmetric polynomial.  Gradients use
the closed forms d sigma_k / d lambda_i = sigma_{k-1}(lambda without i),
which stay smooth across eigenvalue multiplicities; eigenvalues are never
differentiated directly.  Every flow, Monge-Ampere included, is stepped by
`backward_euler_step`, which restricts iterates to the positive cone (all
slots >= floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .grid import (
    ScalarField,
    TorusGrid,
    Trajectory,
    hessian_parts,
    identity_plus_eigenvalues,
)
from .stepping import (
    AdmissibilityLost,
    FlowParams,
    NewtonDiverged,
    newton_step,
    step_times,
)

__all__ = [
    "HessianSymbol",
    "ConePoint",
    "ConeViolation",
    "StructuralReport",
    "f_eval_grad",
    "f_eval_grad_arrays",
    "structural_check",
    "hessian_residual",
    "backward_euler_step",
    "solve_hessian_flow",
    "symbol_from_config",
]


class ConeViolation(ValueError):
    """Point outside the symbol's admissible cone, or data it cannot reach."""

    def __init__(self, message, location=None, t=None):
        if location is not None:
            message = f"{message} (grid location {location})"
        if t is not None:
            message = f"{message} (at flow time t={t:.6g})"
        super().__init__(message)
        self.location = location
        self.t = t


@dataclass(frozen=True)
class HessianSymbol:
    """One of the example nonlinearities, with its integer parameters.

    `degree` records the homogeneity: n+1 for det, 1 for ma_power and
    full_sigma_k, 2n/(n+1) for the lambda_0-split symbols (each factor
    contributes degree n/(n+1) out of the (1+1)-homogeneous product).
    """

    kind: str
    n: int
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.kind not in ("det", "ma_power", "lambda0_sigma_k_power",
                             "sigma_quotient_power", "full_sigma_k"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if self.kind == "lambda0_sigma_k_power" and not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.kind == "sigma_quotient_power" and not 1 <= self.l < self.k <= self.n:
            raise ValueError("need 1 <= l < k <= n")
        if self.kind == "full_sigma_k" and not 1 <= self.k <= self.n + 1:
            raise ValueError("need 1 <= k <= n + 1")

    @property
    def degree(self) -> float:
        if self.kind == "det":
            return self.n + 1.0
        if self.kind in ("ma_power", "full_sigma_k"):
            return 1.0
        return 2.0 * self.n / (self.n + 1.0)

    # -- constructors --
    @classmethod
    def det(cls, n: int) -> "HessianSymbol":
        return cls("det", n)

    @classmethod
    def ma_power(cls, n: int) -> "HessianSymbol":
        return cls("ma_power", n)

    @classmethod
    def lambda0_sigma_k(cls, n: int, k: int) -> "HessianSymbol":
        return cls("lambda0_sigma_k_power", n, k=k)

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


@dataclass(frozen=True)
class ConePoint:
    """A point (lambda_0, lambda_1..lambda_n) of the extended eigenvalue cone."""

    lambda0: float
    lambdas: tuple

    def as_array(self) -> np.ndarray:
        return np.array((self.lambda0,) + tuple(self.lambdas), dtype=float)

    def in_positive_cone(self, floor: float = 0.0) -> bool:
        return bool(self.as_array().min() > floor)

    def in_gamma_k(self, k: int, include_lambda0: bool = True) -> bool:
        """sigma_j > 0 for j = 1..k on the relevant argument list."""
        lam = self.as_array() if include_lambda0 else np.asarray(self.lambdas)
        return all(_sigma(lam, j) > 0.0 for j in range(1, k + 1))


# ---------------------------------------------------------------------------
# elementary symmetric polynomials (few variables; direct sums)


def _sigma(lam: np.ndarray, k: int) -> float:
    if k == 0:
        return 1.0
    return float(sum(np.prod(c) for c in combinations(lam, k)))


def _sigma_arrays(lams: np.ndarray, k: int) -> np.ndarray:
    """sigma_k over the last axis of a stacked eigenvalue array."""
    m = lams.shape[-1]
    if k == 0:
        return np.ones(lams.shape[:-1])
    out = np.zeros(lams.shape[:-1])
    for c in combinations(range(m), k):
        term = np.ones(lams.shape[:-1])
        for i in c:
            term = term * lams[..., i]
        out += term
    return out


def _sigma_gradient_arrays(lams: np.ndarray, k: int) -> np.ndarray:
    """d sigma_k / d lambda_i = sigma_{k-1} with slot i removed; stacked."""
    m = lams.shape[-1]
    out = np.empty_like(lams)
    for i in range(m):
        rest = np.delete(lams, i, axis=-1)
        out[..., i] = _sigma_arrays(rest, k - 1)
    return out


# ---------------------------------------------------------------------------
# symbol evaluation


def f_eval_grad_arrays(symbol: HessianSymbol, lam0: np.ndarray,
                       lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (value, gradient) of the symbol.

    lam0 has any shape, lams the same shape plus a trailing axis of length n.
    Gradient is stacked on a trailing axis of length n + 1.  Assumes the
    points lie in the positive cone; no membership test is done here.
    """
    n = symbol.n
    lam0 = np.asarray(lam0, dtype=float)
    lams = np.asarray(lams, dtype=float)
    grad = np.empty(lam0.shape + (n + 1,))

    if symbol.kind == "ma_power":
        full = np.concatenate([lam0[..., None], lams], axis=-1)
        val = np.prod(full, axis=-1) ** (1.0 /(n + 1))
        for i in range(n + 1):
            grad[..., i] = val / ((n + 1) * full[..., i])
        return val, grad

    if symbol.kind in ("det", "full_sigma_k"):
        # det is sigma_{n+1} of the extended eigenvalues, without the root
        k = n + 1 if symbol.kind == "det" else symbol.k
        full = np.concatenate([lam0[..., None], lams], axis=-1)
        sk = _sigma_arrays(full, k)
        dsk = _sigma_gradient_arrays(full, k)
        if symbol.kind == "det":
            return sk, dsk
        val = sk ** (1.0 / k)
        grad[...] = (val / (k * sk))[..., None] * dsk
        return val, grad

    # the lambda_0-split examples: g = (lambda_0 * base(lambda'))^{n/(n+1)}
    p = n / (n + 1.0)
    if symbol.kind == "lambda0_sigma_k_power":
        k = symbol.k
        sk = _sigma_arrays(lams, k)
        base = sk ** (1.0 / k)
        dlog_base = _sigma_gradient_arrays(lams, k) / (k * sk[..., None])
    else:  # sigma_quotient_power
        k, l = symbol.k, symbol.l
        sk = _sigma_arrays(lams, k)
        sl = _sigma_arrays(lams, l)
        base = (sk / sl) ** (1.0 / (k - l))
        dlog_base = (_sigma_gradient_arrays(lams, k) / sk[..., None]
                     - _sigma_gradient_arrays(lams, l) / sl[..., None]) / (k - l)
    val = (lam0 * base) ** p
    grad[..., 0] = p * val / lam0
    grad[..., 1:] = (p * val)[..., None] * dlog_base
    return val, grad


def f_eval_grad(symbol: HessianSymbol, point: ConePoint) -> tuple[float, np.ndarray]:
    """Symbol value and gradient at a single cone point.

    Raises ConeViolation if the membership predicate fails (positive cone,
    or Gamma_k for the sigma-type symbols).
    """
    if symbol.kind == "full_sigma_k":
        ok = point.in_gamma_k(symbol.k, include_lambda0=True)
    elif symbol.kind in ("lambda0_sigma_k_power", "sigma_quotient_power"):
        lam = np.asarray(point.lambdas)
        ok = point.lambda0 > 0 and all(
            _sigma(lam, j) > 0.0 for j in range(1, symbol.k + 1))
    else:
        ok = point.in_positive_cone()
    if not ok:
        raise ConeViolation(f"point {point} outside the cone of {symbol.kind}")
    lam0 = np.array(point.lambda0)
    lams = np.asarray(point.lambdas, dtype=float)
    val, grad = f_eval_grad_arrays(symbol, lam0, lams)
    return float(val), grad.reshape(symbol.n + 1)


@dataclass
class StructuralReport:
    """Sampled verification of the structural conditions on a symbol."""

    monotone: bool
    symmetric: bool
    c0_min: float
    C0_max: float


def structural_check(symbol: HessianSymbol, samples) -> StructuralReport:
    """Check monotonicity, symmetry, and the two structural constants.

    c0_min realizes det(df/dh) in the diagonal frame as the product of the
    spatial gradient entries times the time slot; C0_max is the Euler
    quotient sum_i lambda_i d_i f / f.
    """
    monotone = True
    symmetric = True
    c0_min = np.inf
    c0_max_euler = -np.inf
    for point in samples:
        val, grad = f_eval_grad(symbol, point)
        if grad.min() <= 0.0:
            monotone = False
        c0 = grad[0] * float(np.prod(grad[1:]))
        c0_min = min(c0_min, c0)
        euler = float(np.dot(point.as_array(), grad)) / val
        c0_max_euler = max(c0_max_euler, euler)
        for perm in permutations(point.lambdas):
            v_perm, _ = f_eval_grad(symbol, ConePoint(point.lambda0, tuple(perm)))
            if not np.isclose(v_perm, val, rtol=1e-12, atol=1e-13):
                symmetric = False
    return StructuralReport(monotone, symmetric, float(c0_min), float(c0_max_euler))


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
    val, _ = f_eval_grad_arrays(symbol, lam0, eigs)
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
        val, _ = f_eval_grad_arrays(symbol, lam0, eigs)
        return val - ef_next

    def linearization(vals: np.ndarray):
        lam0, parts, eigs = state(vals)
        _, grad = f_eval_grad_arrays(symbol, lam0, eigs)
        return grad[..., 0] / dt, _trace_weights(parts, eigs, grad[..., 1:])

    def admissible(vals: np.ndarray) -> bool:
        lam0, _, eigs = state(vals)
        return bool(lam0.min() >= floor and eigs.min() >= floor)

    return residual, linearization, admissible, state


def _scalar_rate(symbol: HessianSymbol, target: np.ndarray, eigs: np.ndarray,
                 t: float | None = None) -> np.ndarray:
    """Solve f(r, eigs) = target for r > 0 pointwise (monotone Newton).

    f increases in r, so a root exists exactly where target > f(0+, eigs);
    ConeViolation names the first point where it does not.  For det and the
    lambda_0-split symbols f(0, eigs) = 0, so that test never trips.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f_zero, _ = f_eval_grad_arrays(symbol, np.zeros_like(target), eigs)
    bad = target <= f_zero
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ConeViolation(
            f"e^F = {target[loc]:.6g} <= f(0+, lambda) = {f_zero[loc]:.6g}: "
            f"no rate lambda_0 > 0 solves the {symbol.kind} step",
            location=loc, t=t)
    r = np.ones_like(target)
    for _ in range(60):
        val, grad = f_eval_grad_arrays(symbol, r, eigs)
        step = (val - target) / np.maximum(grad[..., 0], 1e-300)
        r_new = np.maximum(r - step, 0.5 * r)
        if np.max(np.abs(r_new - r)) <= 1e-14 * np.max(np.abs(r_new)):
            r = r_new
            break
        r = r_new
    return r


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
    if params.initial_guess == "constant" or not admissible(guess):
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

    The predictor solves the equation pointwise for the rate with the
    eigenvalues of phi_prev frozen, falling back to the mean rate when that
    guess leaves the cone (or when params.initial_guess is "constant");
    Newton then solves the coupled step.  Raises AdmissibilityLost if
    phi_prev violates the eigenvalue floor, ConeViolation if e^F lies
    below the symbol's range at some point, and NewtonDiverged if the
    residual cannot be reduced or the step is not monotone.
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
