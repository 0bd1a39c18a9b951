"""Reference implementations that the tests compare the package against.

None of these runs in a command; each is an independent path to something
the package computes another way, or a check only the tests make:

- the entrywise complex-Hessian tensor and, from it, the backward-Euler
  Monge-Ampere residual ((phi_prev - phi_next)/dt) det(I + H) - e^F, an
  oracle for the eigenvalue path the `det` symbol takes
- the symbol value and gradient at one cone point, with its cone-membership
  test, and the sampled structural conditions (monotone, symmetric, c0, C0)
- the elementary-inequality battery of the L-infinity argument
- the sup distance between two trajectories sampled at the same times
- the interior of a masked domain, node by node

`tests/` has no `__init__.py`, so pytest puts this directory on `sys.path`
and a test module imports these with `from oracles import ...`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from pmaflow.flow_hessian import ConeViolation, HessianSymbol, f_eval_grad_arrays
from pmaflow.grid import (
    ScalarField,
    TorusGrid,
    Trajectory,
    elementary_symmetric,
    hessian_parts,
)


# ---------------------------------------------------------------------------
# the complex-Hessian tensor and the entrywise Monge-Ampere residual


def complex_hessian_matrices(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Hessian matrices of a raw value array, assembled from `hessian_parts`."""
    n = grid.n_complex
    parts = hessian_parts(values, grid)
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    out[..., 0, 0] = parts[0]
    if n == 2:
        _, h22, re, im = parts
        out[..., 1, 1] = h22
        out[..., 0, 1] = re + 1j * im
        out[..., 1, 0] = re - 1j * im
    return out


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
# the interior of a masked real domain


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
