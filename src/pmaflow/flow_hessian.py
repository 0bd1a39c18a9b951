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
    """One of the example nonlinearities, with its integer parameters."""

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


def _sigma_gradient(slots: tuple, k: int):
    """d sigma_k / d lambda_i = sigma_{k-1} of the other slots, one entry per
    slot (the scalar 1.0 at k = 1); None where sigma_k is constant (k = 0,
    or k above the number of slots)."""
    if not 0 < k <= len(slots):
        return None
    return tuple(elementary_symmetric(slots[:i] + slots[i + 1:], k - 1)[k - 1]
                 for i in range(len(slots)))


def _field(x, shape: tuple) -> np.ndarray:
    """x as a fresh field of `shape`: fresh arrays of that shape pass through,
    scalars are filled in."""
    return x if np.shape(x) == shape else np.full(shape, x, dtype=float)


# ---------------------------------------------------------------------------
# symbol evaluation


def f_eval_grad_arrays(symbol: HessianSymbol, lam0: np.ndarray,
                       lams: tuple) -> tuple[np.ndarray, tuple]:
    """Vectorized (value, gradient) of the symbol.

    lam0 has any shape and lams holds the n eigenvalue slots, each of
    lam0's shape (`grid.identity_plus_eigenvalues`).  The gradient is one
    field per slot of the extended vector, (df/dlambda_0, ..., df/dlambda_n).
    With f^q = a + lambda_0 b (`_rate_affine_form`), f = (a + lambda_0 b)^{1/q}
    and grad f = f / (q f^q) (b, da + lambda_0 db).  Assumes the points lie
    in the symbol's cone; no membership test is done here.
    """
    lam0 = np.asarray(lam0, dtype=float)
    slots = tuple(np.asarray(lam, dtype=float) for lam in lams)
    if lam0.ndim == 0:   # one point, evaluated as a field of one
        val, grad = f_eval_grad_arrays(symbol, lam0[None], [s[None] for s in slots])
        return val[0], tuple(g[0] for g in grad)
    q, a, b, da, db = _rate_affine_form(symbol, slots, derivatives=True)
    fq = lam0 * b
    if a is not None:
        fq += a
    shape = np.shape(fq)
    grad = [_field(b, shape)]
    for i in range(symbol.n):
        if db is None:
            grad.append(_field(da[i], shape))
            continue
        g = lam0 * db[i]
        if da is not None:
            g += da[i]
        grad.append(g)
    if q == 1.0:
        return fq, tuple(grad)
    val = fq ** (1.0 / q)
    fq *= q
    np.divide(val, fq, out=fq)   # f / (q f^q)
    for g in grad:
        g *= fq
    return val, tuple(grad)


# ---------------------------------------------------------------------------
# flow residual and solver


def _cone_arrays(grid: TorusGrid, phi_prev_vals, vals, dt):
    """(lambda_0, hessian_parts, eigenvalue slots of I + H) of an iterate."""
    lam0 = (phi_prev_vals - vals) / dt
    parts = hessian_parts(vals, grid)
    return lam0, parts, identity_plus_eigenvalues(parts)


def hessian_residual(phi_prev: ScalarField, phi_next: ScalarField, dt: float,
                     f_next: ScalarField, symbol: HessianSymbol) -> ScalarField:
    """Pointwise f(lambda_0, lambda[I+H]) - e^F for a backward-Euler pair."""
    grid = phi_prev.grid
    if symbol.n != grid.n_complex:
        raise ValueError("symbol dimension does not match the grid")
    lam0, _, slots = _cone_arrays(grid, phi_prev.values, phi_next.values, dt)
    bad = (lam0 <= 0.0) | (slots[0] <= 0.0)
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ConeViolation("backward-Euler pair leaves the positive cone",
                            location=loc)
    val = _symbol_value(symbol, lam0, slots)
    return ScalarField(grid, val - np.exp(f_next.values))


def _trace_weights(parts: tuple, slots: tuple, grad: tuple) -> tuple:
    """Real weights of tr(B . H[u]) for B = sum_a grad_a q_a q_a^*.

    q_a are the eigenvectors of A = I + H (the `hessian_parts` of the
    iterate), so B is built from the spectral projectors
    P_plus = (A - lam_minus I) / gap and P_minus = (lam_plus I - A) / gap;
    the weights pair with `hessian_parts(u)` as (b11, b22, 2 Re b12,
    2 Im b12) for n = 2 and (b11,) for n = 1.  Where the gap is degenerate,
    gap <= 1e-12 max(|lam_plus|, |lam_minus|), B is mean(grad) I; those
    points are found, and overwritten, only when the smallest gap is that
    small against the largest eigenvalue modulus.  grad holds the spatial
    slots of the gradient and is not written.
    """
    if len(parts) == 1:
        return (grad[0],)
    h11, h22, re, im = parts
    lam_minus, lam_plus = slots
    w_minus, w_plus = grad
    gap = lam_plus - lam_minus
    degenerate = None
    # fl(1e-12 (s + 1e-30)) is nondecreasing in s, and since
    # lam_minus <= lam_plus the largest max(|lam_plus|, |lam_minus|) is
    # max(lam_plus) or -min(lam_minus)
    top = max(float(lam_plus.max()), -float(lam_minus.min()))
    if not float(gap.min()) > 1e-12 * (top + 1e-30):
        scale = np.maximum(np.abs(lam_plus), np.abs(lam_minus)) + 1e-30
        degenerate = gap <= 1e-12 * scale
        gap[degenerate] = 1.0

    def diagonal(h):
        # (w_plus (a - lam_minus) + w_minus (lam_plus - a)) / gap, a = 1 + h
        a = 1.0 + h
        t = np.subtract(lam_plus, a)
        t *= w_minus
        a -= lam_minus
        a *= w_plus
        a += t
        a /= gap
        return a

    b11, b22 = diagonal(h11), diagonal(h22)
    off = np.subtract(w_plus, w_minus)
    off *= 2.0
    off /= gap
    if degenerate is not None:
        mean_w = 0.5 * (w_plus[degenerate] + w_minus[degenerate])
        b11[degenerate] = mean_w
        b22[degenerate] = mean_w
        off[degenerate] = 0.0
    b12_re = off * re
    off *= im
    return b11, b22, b12_re, off


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
        lam0, _, slots = state(vals)
        val = _symbol_value(symbol, lam0, slots)
        val -= ef_next
        return val

    def linearization(vals: np.ndarray):
        lam0, parts, slots = state(vals)
        _, grad = f_eval_grad_arrays(symbol, lam0, slots)
        zeroth = grad[0]
        zeroth /= dt
        return zeroth, _trace_weights(parts, slots, grad[1:])

    def admissible(vals: np.ndarray) -> bool:
        lam0, _, slots = state(vals)
        return bool(lam0.min() >= floor and slots[0].min() >= floor)

    return residual, linearization, admissible, state


def _rate_affine_form(symbol: HessianSymbol, slots: tuple,
                      derivatives: bool = False) -> tuple:
    """(q, a, b) with f(r, slots)^q = a(slots) + r b(slots), pointwise.

    Raised to the power q, every symbol is affine in the time slot r, with
    b > 0 on the positive cone; a is None where it is zero (det,
    full_sigma_k with k = n+1, sigma_quotient_power).  With `derivatives`,
    (q, a, b, da, db) adds the gradients of a and b in the eigenvalue
    slots, one entry per slot, or None where zero; only the linearization
    needs them.
    """
    n = symbol.n
    k = n + 1 if symbol.kind == "det" else symbol.k
    e = elementary_symmetric(slots, k)
    if symbol.kind != "sigma_quotient_power":
        # sigma_k(r, slots) = sigma_k(slots) + r sigma_{k-1}(slots); det is
        # sigma_{n+1} without the root, and sigma_{n+1} of n slots is zero
        out = (1.0 if symbol.kind == "det" else k), (e[k] if k <= n else None), e[k - 1]
        if derivatives:
            out += _sigma_gradient(slots, k), _sigma_gradient(slots, k - 1)
        return out
    # g^{(n+1)/n} = r (sigma_k / sigma_l)^{1/(k-l)}(slots)
    l = symbol.l
    b = e[k] / e[l] if l else e[k]
    if k - l > 1:
        b = b ** (1.0 / (k - l))
    if not derivatives:
        return (n + 1.0) / n, None, b
    # d b = b / (k - l) (d sigma_k / sigma_k - d sigma_l / sigma_l)
    scale = b / (k - l) if k - l > 1 else b
    minus = _sigma_gradient(slots, l) or (None,) * n
    db = []
    for grad_k, grad_l in zip(_sigma_gradient(slots, k), minus):
        d = grad_k / e[k]
        if grad_l is not None:
            d -= grad_l / e[l]
        d *= scale
        db.append(d)
    return (n + 1.0) / n, None, b, None, tuple(db)


def _symbol_value(symbol: HessianSymbol, lam0: np.ndarray,
                  slots: tuple) -> np.ndarray:
    """The value of `f_eval_grad_arrays` without its gradient:
    f = (a + lambda_0 b)^{1/q} from `_rate_affine_form`."""
    q, a, b = _rate_affine_form(symbol, slots)
    val = lam0 * b
    if a is not None:
        val += a
    if q != 1.0:
        val **= 1.0 / q
    return val


def _scalar_rate(symbol: HessianSymbol, target: np.ndarray, slots: tuple,
                 t: float | None = None) -> np.ndarray:
    """Solve f(r, slots) = target for r > 0 pointwise, in closed form.

    With f^q = a + r b (`_rate_affine_form`), r = (target^q - a) / b.  A
    root r > 0 exists exactly where target^q > a; ConeViolation names the
    first point where it does not.  Where a = 0 that test never trips.
    """
    q, a, b = _rate_affine_form(symbol, slots)
    target_q = target ** q
    bad = target_q <= (0.0 if a is None else a)
    if bad.any():
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        f_zero = 0.0 if a is None else float(a[loc]) ** (1.0 / q)
        raise ConeViolation(
            f"e^F = {target[loc]:.6g} <= f(0+, lambda) = {f_zero:.6g}: "
            f"no rate lambda_0 > 0 solves the {symbol.kind} step",
            location=loc, t=t)
    if a is not None:
        target_q -= a
    return target_q / b


def _euler_step(grid: TorusGrid, prev: np.ndarray, slots: tuple, dt: float,
                ef_next: np.ndarray, symbol: HessianSymbol, params: FlowParams,
                t: float | None):
    """`backward_euler_step` on raw arrays, given the eigenvalue slots of
    I + H[prev].

    Returns the new values and the eigenvalue slots of I + H at them, which the
    converged Newton state already holds, so a time loop computes the
    Hessian of each slice once.
    """
    if symbol.n != grid.n_complex:
        raise ValueError("symbol dimension does not match the grid")
    floor = params.admissibility_floor
    if slots[0].min() < floor:
        raise AdmissibilityLost("phi_prev violates the eigenvalue floor", t)
    rate = _scalar_rate(symbol, ef_next, slots, t)
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
    slots = identity_plus_eigenvalues(hessian_parts(prev, grid))
    vals, _ = _euler_step(grid, prev, slots, dt, np.exp(f_next.values), symbol,
                          params, t)
    return ScalarField(grid, vals)


def solve_hessian_flow(phi0: ScalarField, rhs, symbol: HessianSymbol,
                       params: FlowParams) -> Trajectory:
    """Backward-Euler trajectory of the Hessian flow; cone-respecting Newton.

    Raises ConeViolation if phi_0 lies outside the positive cone.
    """
    grid = phi0.grid
    vals = phi0.require_finite("phi_0").values
    slots = identity_plus_eigenvalues(hessian_parts(vals, grid))
    if slots[0].min() <= 0.0:
        raise ConeViolation("phi_0 is not admissible for the positive cone")
    times = step_times(params.T, params.dt)
    values = np.empty((len(times),) + grid.shape)
    values[0] = vals
    for k in range(1, len(times)):
        t_k = float(times[k])
        dt_k = float(times[k] - times[k - 1])
        ef_next = np.exp(rhs.F_field(grid, t_k).values)
        vals, slots = _euler_step(grid, vals, slots, dt_k, ef_next, symbol,
                                 params, t_k)
        values[k] = vals
    return Trajectory(grid, times, values, dt=params.dt)
