"""Reference implementations that the tests compare the package against.

None of these runs in a command; each is an independent path to something
the package computes another way, or a check only the tests make:

- the entrywise complex-Hessian tensor and, from it, the backward-Euler
  Monge-Ampere residual ((phi_prev - phi_next)/dt) det(I + H) - e^F, an
  oracle for the eigenvalue path the `det` symbol takes
- the eigenvalues of I + H and the linearization weights of
  B = sum_a w_a q_a q_a^* by `np.linalg.eigvalsh` and `np.linalg.eigh`
- adapters between the package's eigenvalue slots (one field per slot)
  and arrays with the slots on a trailing axis, and a hypothesis strategy
  of Hessian components with exactly and nearly degenerate points
- the symbol value and gradient at one cone point, with its cone-membership
  test, the sampled structural conditions (monotone, symmetric, c0, C0),
  and each symbol kind's homogeneity degree
- the elementary-inequality battery of the L-infinity argument
- the sup distance between two trajectories sampled at the same times
- the interior of a masked domain, node by node, and the contact mask
  and integrand of the contact set on it, rebuilt slice by slice from the
  package's own contact decision
- the discrete mollifier built from the radius, and the flat-torus lower
  bound of rho_eps u - u by the Laplacian's ball masses, with the kernel's
  tail mass and ball constant by adaptive quadrature

`tests/` has no `__init__.py`, so pytest puts this directory on `sys.path`
and a test module imports these with `from oracles import ...`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.fft
from hypothesis import strategies as st
from scipy.integrate import quad

from pmaflow.flow_hessian import ConeViolation, HessianSymbol, f_eval_grad_arrays
from pmaflow.grid import (
    ScalarField,
    TorusGrid,
    Trajectory,
    complex_laplacian,
    elementary_symmetric,
    hessian_parts,
    radial_smoother,
)
from pmaflow.maxprinciple import (SpaceTimeGridReal, _det, _interior_slices,
                                  _sups, _take)


# ---------------------------------------------------------------------------
# the complex-Hessian tensor and the entrywise Monge-Ampere residual


def hermitian_from_parts(parts: tuple) -> np.ndarray:
    """The Hermitian matrices (..., n, n) of `hessian_parts`-ordered
    components: (h11,) or (h11, h22, Re h12, Im h12)."""
    n = 1 if len(parts) == 1 else 2
    out = np.zeros(np.shape(parts[0]) + (n, n), dtype=complex)
    out[..., 0, 0] = parts[0]
    if n == 2:
        _, h22, re, im = parts
        out[..., 1, 1] = h22
        out[..., 0, 1] = re + 1j * im
        out[..., 1, 0] = re - 1j * im
    return out


def complex_hessian_matrices(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Hessian matrices of a raw value array, assembled from `hessian_parts`."""
    return hermitian_from_parts(hessian_parts(values, grid))


def _det_identity_plus(hmat: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return 1.0 + hmat[..., 0, 0].real
    a = 1.0 + hmat[..., 0, 0].real
    b = 1.0 + hmat[..., 1, 1].real
    return a * b - np.abs(hmat[..., 0, 1]) ** 2


def ma_residual(phi_prev: ScalarField, phi_next: ScalarField, dt: float,
                f_next: ScalarField) -> ScalarField:
    """Backward-Euler residual ((phi_prev - phi_next)/dt) det(I+H) - e^F."""
    grid = phi_prev.grid
    lam0 = (phi_prev.values - phi_next.values) / dt
    hmat = complex_hessian_matrices(phi_next.values, grid)
    det = _det_identity_plus(hmat, grid.n_complex)
    return ScalarField(grid, lam0 * det - np.exp(f_next.values))


# ---------------------------------------------------------------------------
# eigenvalue slots: layout adapters and dense-eigensolver oracles


def slot_fields(stacked) -> tuple:
    """The slot tuple of an array with the slots on its trailing axis."""
    stacked = np.asarray(stacked, dtype=float)
    return tuple(stacked[..., i] for i in range(stacked.shape[-1]))


def trailing_axis(fields, shape: tuple | None = None) -> np.ndarray:
    """Slot fields (scalars broadcast to `shape`) stacked on a trailing axis."""
    if shape is None:
        shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    return np.stack([np.broadcast_to(f, shape) for f in fields], axis=-1)


def identity_plus_matrices(parts: tuple) -> np.ndarray:
    """The Hermitian matrices I + H, (..., n, n), from `hessian_parts`-ordered
    components."""
    hmat = hermitian_from_parts(parts)
    return hmat + np.eye(hmat.shape[-1])


def hermitian_weights(b: np.ndarray) -> tuple:
    """Real weights of tr(B . H[u]) for a Hermitian field B, in
    `hessian_parts` order: (b11,) or (b11, b22, 2 Re b12, 2 Im b12)."""
    if b.shape[-1] == 1:
        return (b[..., 0, 0].real,)
    return (b[..., 0, 0].real, b[..., 1, 1].real,
            2.0 * b[..., 0, 1].real, 2.0 * b[..., 0, 1].imag)


def eigh_trace_weights(parts: tuple, grad: tuple) -> tuple:
    """The weights of B = sum_a grad_a q_a q_a^*, with the eigenvectors q_a
    of I + H (ascending eigenvalues) from `np.linalg.eigh`."""
    _, q = np.linalg.eigh(identity_plus_matrices(parts))
    b = np.einsum("...a,...ia,...ja->...ij", trailing_axis(grad), q, np.conj(q))
    return hermitian_weights(b)


def hessian_parts_points(max_points=12):
    """Strategy: n = 2 `hessian_parts` at a few points, some exactly
    degenerate (h11 = h22, h12 = 0) and some with a tiny h12."""
    @st.composite
    def build(draw):
        size = draw(st.integers(1, max_points))
        entry = st.floats(-3.0, 3.0, allow_nan=False)
        parts = [np.array(draw(st.lists(entry, min_size=size, max_size=size)))
                 for _ in range(4)]
        for i in range(size):
            kind = draw(st.sampled_from(["generic", "degenerate", "near"]))
            if kind == "degenerate":
                parts[1][i] = parts[0][i]
                parts[2][i] = parts[3][i] = 0.0
            elif kind == "near":
                parts[1][i] = parts[0][i]
                parts[2][i] *= 1e-9
                parts[3][i] *= 1e-9
        return tuple(parts)
    return build()


# ---------------------------------------------------------------------------
# scalar symbol checks


@dataclass(frozen=True)
class ConePoint:
    """A point (lambda_0, lambda_1..lambda_n) of the extended eigenvalue cone."""

    lambda0: float
    lambdas: tuple

    def as_array(self) -> np.ndarray:
        return np.array((self.lambda0,) + tuple(self.lambdas), dtype=float)

    def in_gamma_k(self, k: int, include_lambda0: bool = True) -> bool:
        """sigma_j > 0 for j = 1..k on the relevant argument list."""
        lam = self.as_array() if include_lambda0 else np.asarray(self.lambdas)
        return all(e > 0.0 for e in elementary_symmetric(list(lam), k)[1:])


def f_eval_grad(symbol: HessianSymbol, point: ConePoint) -> tuple[float, np.ndarray]:
    """Symbol value and gradient at a single cone point.

    Raises ConeViolation if the membership predicate fails (Gamma_{n+1},
    the positive cone, for det; Gamma_k for the sigma-type symbols).
    """
    if symbol.kind == "sigma_quotient_power":
        ok = point.lambda0 > 0 and point.in_gamma_k(symbol.k, include_lambda0=False)
    else:   # det is the positive cone Gamma_{n+1}
        ok = point.in_gamma_k(symbol.k if symbol.kind == "full_sigma_k"
                              else symbol.n + 1)
    if not ok:
        raise ConeViolation(f"point {point} outside the cone of {symbol.kind}")
    lam0 = np.array(point.lambda0)
    lams = np.asarray(point.lambdas, dtype=float)
    val, grad = f_eval_grad_arrays(symbol, lam0, slot_fields(lams))
    return float(val), trailing_axis(grad).reshape(symbol.n + 1)


def symbol_degree(symbol: HessianSymbol) -> float:
    """Homogeneity degree of the symbol in (lambda_0, ..., lambda_n), which
    the Euler quotient sum_i lambda_i d_i f / f equals: n + 1 for det, a
    product of n + 1 slots; 1 for full_sigma_k, sigma_k^{1/k}; 2n/(n+1) for
    sigma_quotient_power, the n/(n+1) power of lambda_0 times a ratio of
    degree 1."""
    return {"det": symbol.n + 1.0, "full_sigma_k": 1.0,
            "sigma_quotient_power": 2.0 * symbol.n / (symbol.n + 1.0)}[symbol.kind]


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
# elementary inequality battery


def power_exp_split_constant(p: float, x_max: float = 60.0, samples: int = 200001) -> float:
    """C(p) = sup_x p e^{x-1} x^p e^{-2x}, evaluated numerically.

    The supremum of p e^{x-1} x^p e^{-2x} is attained at x = p; a dense
    scan keeps this independent of the calculus.
    """
    x = np.linspace(1e-9, x_max, samples)
    vals = p * np.exp(x - 1.0 + p * np.log(x) - 2.0 * x)
    return float(vals.max())


def inequality_oracles(n_points_per_axis: int = 10,
                       dims=(1, 2)) -> dict:
    """Evaluate the four elementary inequalities over log-spaced grids.

    Returns per-inequality dicts with the worst margin (min of RHS - LHS)
    and the number of violations; a violation is a test failure upstream,
    not a runtime error here.
    """
    m = n_points_per_axis
    logs = np.geomspace(1e-2, 1e2, m)
    results = {}

    # x^p e^y <= e^y (1 + y)^p + C(p) e^{2x}
    worst = np.inf
    violations = 0
    count = 0
    for p in (1.5, 2.0, 3.0):
        cp = power_exp_split_constant(p)
        x, y = np.meshgrid(logs, logs, indexing="ij")
        lhs = x**p * np.exp(y)
        rhs = np.exp(y) * (1.0 + y) ** p + cp * np.exp(2.0 * x)
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["power_exp_split"] = {"worst_relative_margin": worst,
                                  "violations": violations, "count": count}

    # (B A^{1/n})^{n/(n+1)} x <= A y + B x^{1+1/n} / y^{1/n}
    worst = np.inf
    violations = 0
    count = 0
    for n in dims:
        A, B, x, y = np.meshgrid(logs[::3], logs[::3], logs[::3], logs[::3],
                                 indexing="ij")
        lhs = (B * A ** (1.0 / n)) ** (n / (n + 1.0)) * x
        rhs = A * y + B * x ** (1.0 + 1.0 / n) / y ** (1.0 / n)
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["young_split"] = {"worst_relative_margin": worst,
                              "violations": violations, "count": count}

    # A y^n + B y^{-1} >= n^{-n/(n+1)} A^{1/(n+1)} B^{n/(n+1)}
    worst = np.inf
    violations = 0
    count = 0
    for n in dims:
        A, B, y = np.meshgrid(logs, logs, logs, indexing="ij")
        lhs = n ** (-n / (n + 1.0)) * A ** (1.0 / (n + 1.0)) * B ** (n / (n + 1.0))
        rhs = A * y**n + B / y
        margin = rhs - lhs
        worst = min(worst, float((margin / np.maximum(rhs, 1e-300)).min()))
        violations += int((margin < -1e-9 * rhs).sum())
        count += margin.size
    results["power_mean_lower"] = {"worst_relative_margin": worst,
                                   "violations": violations, "count": count}

    # x y <= x log x + e^{y-1}
    x, y = np.meshgrid(np.geomspace(1e-2, 1e2, m * m), np.geomspace(1e-2, 1e2, m * m),
                       indexing="ij")
    lhs = x * y
    rhs = x * np.log(x) + np.exp(y - 1.0)
    margin = rhs - lhs
    scale = np.maximum(np.abs(rhs), np.abs(lhs)) + 1e-300
    results["xlogx_dual"] = {
        "worst_relative_margin": float((margin / scale).min()),
        "violations": int((margin < -1e-9 * scale).sum()),
        "count": margin.size,
    }
    return results


# ---------------------------------------------------------------------------
# trajectory comparison


def comparison_check(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """Sup of |phi_a - phi_b| over [0, T] x M for two solves of the same data."""
    if traj_a.grid != traj_b.grid:
        raise ValueError("trajectories live on different grids")
    if traj_a.n_times != traj_b.n_times or not np.allclose(traj_a.times, traj_b.times):
        raise ValueError("trajectories sample different times")
    return float(np.abs(traj_a.values - traj_b.values).max())


# ---------------------------------------------------------------------------
# the interior of a masked real domain, and the contact arrays on it


def contact_arrays(stg: SpaceTimeGridReal, u: np.ndarray,
                   clamp: bool = True) -> tuple:
    """The contact mask (True on E) and the integrand d_t u det(-D^2 u),
    zero off E, as (K+1, spatial...) arrays.

    Both are rebuilt from `maxprinciple._interior_slices` with the interior
    and eig_tol of `maxprinciple._sups`, so E is the package's own contact
    decision, point for point.  The integrand clamps det(-D^2 u) at 0 as
    `contact_set` does; clamp=False leaves the clamp out.
    """
    interior, _, tol, _, _ = _sups(stg, u)
    mask = np.zeros(u.shape, dtype=bool)
    integrand = np.zeros(u.shape)
    flat_mask = mask.reshape(len(u), -1)
    flat_integrand = integrand.reshape(len(u), -1)
    for k, idx, du, H, on_e in _interior_slices(stg, u, interior, tol):
        det_neg = (-1.0) ** stg.m * _det(_take(H, on_e))
        flat_mask[k, idx[on_e]] = True
        flat_integrand[k, idx[on_e]] = du[on_e] * (
            np.maximum(det_neg, 0.0) if clamp else det_neg)
    return mask, integrand


def interior_by_neighbours(dom: np.ndarray) -> np.ndarray:
    """Nodes of the boolean array dom whose 2m axis neighbours all lie in
    dom, decided one node at a time; a neighbour off the array is outside."""
    out = np.zeros_like(dom)
    for node in zip(*np.nonzero(dom)):
        out[node] = all(
            0 <= node[axis] + step < dom.shape[axis]
            and dom[node[:axis] + (node[axis] + step,) + node[axis + 1:]]
            for axis in range(dom.ndim) for step in (-1, 1))
    return out


# ---------------------------------------------------------------------------
# the radial mollifier (1 - r^2)^3


def kernel_profile(r):
    """The mollifier's profile (1 - r^2)^3 on [0, 1]."""
    return (1.0 - r * r) ** 3


def kernel_by_radius(grid: TorusGrid, s: float) -> np.ndarray:
    """The discrete mollifier at scale s built from the radius: r = sqrt of
    the periodic distance over s, (1 - r^2)^3 for r <= 1 and 0 beyond, then
    renormalized to unit discrete mass."""
    r = np.sqrt(grid.periodic_distance_sq((0.0,) * grid.real_dim)) / s
    k = np.where(r <= 1.0, kernel_profile(np.minimum(r, 1.0)), 0.0)
    return k / (k.sum() * grid.cell_volume)


def kernel_tail_mass(t: float, d: int) -> float:
    """Mass of the unit-scale mollifier in real dimension d outside radius t."""
    def radial(r):
        return kernel_profile(r) * r ** (d - 1)
    return quad(radial, min(t, 1.0), 1.0)[0] / quad(radial, 0.0, 1.0)[0]


def ball_lower_constant(d: int) -> float:
    """c_kernel = int_{1/2}^{1} t^{1-d} tail_mass(t) dt."""
    return quad(lambda t: t ** (1 - d) * kernel_tail_mass(t, d), 0.5, 1.0)[0]


def ball_lower_bound_check(field: ScalarField, eps: float) -> dict:
    """Flat-torus surrogate of the mollification lower bound.

    Verifies rho_eps u(z) - u(z) >= (4 c_kernel / eps^{2n-2})
    int_{B(z, eps/2)} Lap_c u dV - C eps^2 with c_kernel from the kernel
    profile and C = 2 n omega_{2n} (valid for admissible u; the factor 4
    converts the complex trace Laplacian to the real one).
    """
    grid = field.grid
    d = grid.real_dim
    n = grid.n_complex
    from math import gamma as _gamma, pi
    omega_d = pi ** (d / 2.0) / _gamma(d / 2.0 + 1.0)
    c_kernel = ball_lower_constant(d)
    smoothed = radial_smoother(field)(eps)
    lhs = smoothed - field.values
    lap = complex_laplacian(field)
    h = grid.spacing
    r_half = max(round((eps / 2.0) / h), 1) * h
    # ball masses around every grid point at radius eps/2 via convolution
    r2 = grid.periodic_distance_sq((0.0,) * d)
    mask = (r2 <= r_half**2 + 1e-12).astype(float)
    mass = scipy.fft.irfftn(scipy.fft.rfftn(lap) * scipy.fft.rfftn(mask),
                            s=grid.shape, axes=grid.axes,
                            overwrite_x=True) * grid.cell_volume
    rhs = 4.0 * c_kernel / eps ** (2 * n - 2) * mass - 2.0 * n * omega_d * eps**2
    margin = lhs - rhs
    return {"min_margin": float(margin.min()), "c_kernel": float(c_kernel),
            "holds": bool(margin.min() >= -1e-9)}
