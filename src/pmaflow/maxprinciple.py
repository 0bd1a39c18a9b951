"""Parabolic Alexandrov machinery on real space-time boxes and balls.

This module is deliberately independent of the torus: it validates the
real-variable maximum principle the flow estimates import.  A space-time
field u on [0, T] x Omega is scanned for its contact set

    E = {(t, x) : d_t u >= 0 and D^2_x u <= 0},

and the principle's two sides are evaluated:

    sup u  vs  sup_{parabolic boundary} u
           + C (diam Omega)^{m/(m+1)} (int_E d_t u det(-D^2 u))^{1/(m+1)}.

The divergence-form variant (Lieberman) replaces the integrand by
(f^-)^{m+1} / det(a^{ij}) for fields satisfying -d_t u + a^{ij} d_ij u >= f.
C is never asserted in absolute form; families of test functions report the
implied constant and its spread.  The curvature test D^2 u <= 0 uses a
tolerance of `eig_tol` (default 10 h, the discrete curvature noise floor);
marginally positive determinant fuzz admitted by the tolerance is clamped
to keep the integrand nonnegative on the mask by construction.

Each time slice is differenced once into the m(m+1)/2 independent
components d_ab u (a <= b) of the centered spatial Hessian on the core
nodes.  The largest eigenvalue and the determinants, of -D^2 u and of
a^{ij}, are closed forms over those components (O. K. Smith's trigonometric
solution at m = 3), and a^{ij} d_ij u is a sum over them; no (..., m, m)
tensor is built.  Near a repeated eigenvalue the m = 3 closed form is only
accurate to about 2.4e-8 max|H_ab|, so points within a guard band of
_GUARD_BAND max|H_ab| around `eig_tol` are decided by LAPACK's eigvalsh,
and the contact mask is the one eigvalsh gives, point for point.  a_field
and f_field may be read-only broadcast views; they are read one slice at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "SpaceTimeGridReal",
    "ContactSetReport",
    "LiebermanReport",
    "HypothesisViolated",
    "sample_space_time",
    "contact_set",
    "lieberman_form_check",
    "mask_to_csv",
]


# Relative half-width, in units of max|H_ab|, of the band around eig_tol in
# which the m = 3 curvature test falls back to eigvalsh; 40x the closed
# form's worst error near a repeated eigenvalue.
_GUARD_BAND = 1e-6


class HypothesisViolated(ValueError):
    """The differential inequality fails on too many points."""


@dataclass
class SpaceTimeGridReal:
    """Uniform grid on [0, T] x Omega, Omega = [0, 1]^m or a masked ball."""

    m: int
    n_points: int          # nodes per spatial axis (N + 1 including both ends)
    T: float
    n_steps: int
    domain: str = "box"    # "box" or "ball"
    ball_center: tuple | None = None
    ball_radius: float = 0.5

    def __post_init__(self):
        if self.m not in (1, 2, 3):
            raise ValueError("spatial dimension m must be 1, 2, or 3")
        if self.n_points < 5 or self.n_steps < 2:
            raise ValueError("grid too small")
        if self.domain not in ("box", "ball"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.ball_center is None:
            self.ball_center = (0.5,) * self.m

    @property
    def h(self) -> float:
        return 1.0 / (self.n_points - 1)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_points)

    def meshgrid(self) -> tuple:
        return np.meshgrid(*([self.axis()] * self.m), indexing="ij")

    @property
    def diameter(self) -> float:
        if self.domain == "ball":
            return 2.0 * self.ball_radius
        return float(np.sqrt(self.m))

    def domain_mask(self) -> np.ndarray:
        """Nodes belonging to the closed domain."""
        if self.domain == "box":
            return np.ones((self.n_points,) * self.m, dtype=bool)
        coords = self.meshgrid()
        d2 = sum((c - c0) ** 2 for c, c0 in zip(coords, self.ball_center))
        return d2 <= self.ball_radius**2 + 1e-12

    def interior_mask(self) -> np.ndarray:
        """Domain nodes all of whose axis neighbors are domain nodes."""
        dom = self.domain_mask()
        interior = dom.copy()
        for axis in range(self.m):
            lo = np.ones_like(dom)
            hi = np.ones_like(dom)
            sl_lo = [slice(None)] * self.m
            sl_hi = [slice(None)] * self.m
            sl_lo[axis] = slice(1, None)
            sl_hi[axis] = slice(None, -1)
            lo[tuple(sl_lo)] = dom[tuple(sl_hi)]
            hi[tuple(sl_hi)] = dom[tuple(sl_lo)]
            # nodes at array edges have no neighbor: never interior
            edge_lo = [slice(None)] * self.m
            edge_lo[axis] = 0
            lo[tuple(edge_lo)] = False
            edge_hi = [slice(None)] * self.m
            edge_hi[axis] = -1
            hi[tuple(edge_hi)] = False
            interior &= lo & hi
        return interior

    def domain_volume(self) -> float:
        """Discrete volume consistent with the contact-set quadrature."""
        return float(self.interior_mask().sum() * self.h**self.m)


def sample_space_time(stg: SpaceTimeGridReal, fn) -> np.ndarray:
    """Sample fn(t, *coords) on the space-time grid; shape (K+1, N, ..., N)."""
    coords = stg.meshgrid()
    out = np.empty((stg.n_steps + 1,) + coords[0].shape)
    for k, t in enumerate(stg.times):
        out[k] = fn(t, *coords)
    return out


@dataclass
class ContactSetReport:
    contact_mask: np.ndarray       # (K+1, spatial...) True on E
    integral_value: float          # int_E d_t u det(-D^2 u)
    sup_interior: float
    sup_parabolic_boundary: float
    domain_volume: float
    eig_tol: float
    integrand: np.ndarray = field(repr=False, default=None)


def _time_derivative(u: np.ndarray, dt: float) -> np.ndarray:
    """Centered in the interior, backward at the final time; slot 0 unused."""
    du = np.zeros_like(u)
    if u.shape[0] > 2:
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * dt)
    du[-1] = (u[-1] - u[-2]) / dt
    return du


def _hessian_parts(u_slice: np.ndarray, h: float, m: int) -> list:
    """Centered second differences d_ab u on the core nodes [1:-1]^m.

    Returns the symmetric m x m nested list H with H[a][b] the difference
    field of shape (N - 2,)^m; H[b][a] is the same array as H[a][b], so only
    the m(m+1)/2 components a <= b are computed.  Edge nodes have no
    centered difference and are never interior.
    """
    def at(*steps):
        """u on the core nodes moved by (axis, step) pairs; a view."""
        offsets = [0] * m
        for axis, step in steps:
            offsets[axis] = step
        return u_slice[tuple(slice(1 + o, n - 1 + o)
                             for o, n in zip(offsets, u_slice.shape))]

    centre = at()
    H = [[None] * m for _ in range(m)]
    for a in range(m):
        H[a][a] = (at((a, 1)) - 2.0 * centre + at((a, -1))) / h**2
        for b in range(a + 1, m):
            H[a][b] = H[b][a] = (at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                                 - at((a, -1), (b, 1)) + at((a, -1), (b, -1))
                                 ) / (4.0 * h**2)
    return H


def _det(M: list) -> np.ndarray:
    """Determinant field of the m x m nested list M of arrays, m <= 3."""
    if len(M) == 1:
        return M[0][0]
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _largest_eigenvalue(H: list) -> np.ndarray:
    """Largest eigenvalue field of the symmetric nested list H, closed form.

    At m = 3 this is O. K. Smith's trigonometric solution (CACM 4(4), 1961):
    with q = tr H / 3, p = |H - qI|_F / sqrt(6) and B = (H - qI) / p, the
    eigenvalues are q + 2p cos(phi + 2 pi j / 3), phi = arccos(det(B) / 2) / 3,
    and j = 0 is the largest.  A scalar H = qI has p = 0 and B = 0.
    """
    m = len(H)
    if m == 1:
        return H[0][0]
    if m == 2:
        a, b, c = H[0][0], H[1][1], H[0][1]
        return 0.5 * (a + b) + np.sqrt(0.25 * (a - b) ** 2 + c * c)
    q = (H[0][0] + H[1][1] + H[2][2]) / 3.0
    d = [H[a][a] - q for a in range(3)]
    p = np.sqrt((d[0] ** 2 + d[1] ** 2 + d[2] ** 2
                 + 2.0 * (H[0][1] ** 2 + H[0][2] ** 2 + H[1][2] ** 2)) / 6.0)
    inv_p = 1.0 / np.where(p > 0.0, p, 1.0)
    b01, b02, b12 = H[0][1] * inv_p, H[0][2] * inv_p, H[1][2] * inv_p
    B = [[d[0] * inv_p, b01, b02],
         [b01, d[1] * inv_p, b12],
         [b02, b12, d[2] * inv_p]]
    r = np.clip(0.5 * _det(B), -1.0, 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0)


def _curvature_nonpositive(H: list, tol: float) -> np.ndarray:
    """Pointwise test max eig(H) <= tol, decided as LAPACK's eigvalsh would.

    The m = 3 closed form loses accuracy near a repeated eigenvalue (about
    2.4e-8 max|H_ab| there, 4e-14 elsewhere), so points whose closed-form
    value lies within _GUARD_BAND max|H_ab| of tol are decided by eigvalsh.
    """
    lam = _largest_eigenvalue(H)
    if len(H) == 3:
        scale = reduce(np.maximum, (np.abs(H[a][b])
                                    for a in range(3) for b in range(a, 3)))
        near = np.abs(lam - tol) <= _GUARD_BAND * scale
        if near.any():
            stack = np.stack([H[a][b][near] for a in range(3)
                              for b in range(3)], -1).reshape(-1, 3, 3)
            lam[near] = np.linalg.eigvalsh(stack)[:, -1]
    return lam <= tol


def _check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    if np.shape(arr) != shape:
        raise ValueError(f"{name} has shape {np.shape(arr)}; the space-time "
                         f"grid expects {shape}")


def _check_finite(name: str, arr: np.ndarray, k: int | None = None) -> None:
    if not np.all(np.isfinite(arr)):
        where = "" if k is None else f" at time index {k}"
        raise ValueError(f"{name} contains non-finite values{where}")


def contact_set(stg: SpaceTimeGridReal, u: np.ndarray,
                eig_tol: float | None = None) -> ContactSetReport:
    """Contact set, its integral, and the two sups of the maximum principle.

    The mask lives on interior nodes at times t_1..t_K; the parabolic
    boundary sup combines the t = 0 slice with the spatial boundary at all
    times.  Quadrature is point-mass h^m dt on masked nodes.
    """
    shape = (stg.n_steps + 1,) + (stg.n_points,) * stg.m
    _check_shape("u", u, shape)
    _check_finite("u", u)
    h, dt, m = stg.h, stg.dt, stg.m
    tol = 10.0 * h if eig_tol is None else eig_tol

    interior = stg.interior_mask()
    dom = stg.domain_mask()
    boundary = dom & ~interior
    core = (slice(1, -1),) * m
    inner = interior[core]

    du = _time_derivative(u, dt)
    mask = np.zeros(u.shape, dtype=bool)
    integrand = np.zeros(u.shape)
    for k in range(1, stg.n_steps + 1):
        H = _hessian_parts(u[k], h, m)
        du_k = du[k][core]
        on_e = inner & (du_k >= 0.0) & _curvature_nonpositive(H, tol)
        mask[k][core] = on_e
        det_neg = np.maximum((-1.0) ** m * _det(H), 0.0)
        integrand[k][core] = np.where(on_e, du_k * det_neg, 0.0)
    integral = float(integrand.sum() * h**m * dt)

    sup_interior = float(u[:, dom].max()) if dom.any() else -np.inf
    sup_pb = max(float(u[0][dom].max()),
                 float(u[:, boundary].max()) if boundary.any() else -np.inf)
    return ContactSetReport(mask, integral, sup_interior, sup_pb,
                            stg.domain_volume(), tol, integrand)


def mask_to_csv(report: ContactSetReport, path) -> None:
    """Contact-set point list: one row (k, i, j, ...) per masked node."""
    pts = np.argwhere(report.contact_mask)
    m = report.contact_mask.ndim - 1
    header = ",".join(["k"] + [f"i{a}" for a in range(m)])
    np.savetxt(path, pts, fmt="%d", delimiter=",", header=header, comments="")


@dataclass
class LiebermanReport:
    hypothesis_violations: int
    hypothesis_points: int
    integral_value: float
    sup_interior: float
    sup_parabolic_boundary: float
    implied_constant: float
    exponent: float
    diameter: float


def lieberman_form_check(stg: SpaceTimeGridReal, u: np.ndarray,
                         a_field: np.ndarray, f_field: np.ndarray,
                         exponent: float | None = None,
                         eig_tol: float | None = None,
                         hypothesis_slack: float = 1e-9) -> LiebermanReport:
    """Divergence-form maximum-principle check with a free constant.

    Verifies -d_t u + a^{ij} d_ij u >= f pointwise on interior nodes first
    (HypothesisViolated beyond 0.1% of points), then evaluates

        implied C = (sup u - sup_{par.bdry} u)
                    / (diam^{m/(m+1)} (int_E (f^-)^q / det a)^{1/q})

    with q = exponent (default m + 1; the theory's applications also use
    2n + 1, so the exponent is exposed).  a_field has shape
    (K+1, *spatial, m, m), f_field (K+1, *spatial); their slot 0 is not
    read.  A wrong shape or a non-finite value raises ValueError naming
    the argument (and the time index for a_field and f_field).
    """
    m = stg.m
    q = float(m + 1 if exponent is None else exponent)
    h, dt = stg.h, stg.dt
    tol = 10.0 * h if eig_tol is None else eig_tol
    shape = (stg.n_steps + 1,) + (stg.n_points,) * m
    _check_shape("u", u, shape)
    _check_shape("a_field", a_field, shape + (m, m))
    _check_shape("f_field", f_field, shape)
    _check_finite("u", u)
    interior = stg.interior_mask()
    dom = stg.domain_mask()
    boundary = dom & ~interior
    core = (slice(1, -1),) * m
    inner = interior[core]

    du = _time_derivative(u, dt)
    bad = 0
    total = 0
    mask_integral = 0.0
    for k in range(1, stg.n_steps + 1):
        _check_finite("a_field", a_field[k], k)
        _check_finite("f_field", f_field[k], k)
        a_k = [[a_field[k][core + (i, j)] for j in range(m)] for i in range(m)]
        f_k = f_field[k][core]
        du_k = du[k][core]
        H = _hessian_parts(u[k], h, m)
        lhs = -du_k + sum(a_k[i][j] * H[i][j]
                          for i in range(m) for j in range(m))
        scale = 1.0 + np.abs(f_k)
        viol = inner & (lhs < f_k - hypothesis_slack * scale)
        bad += int(viol.sum())
        total += int(interior.sum())
        on_e = inner & (du_k >= 0.0) & _curvature_nonpositive(H, tol)
        f_minus = np.maximum(-f_k, 0.0)
        contrib = np.where(on_e, f_minus**q / np.maximum(_det(a_k), 1e-300),
                           0.0)
        mask_integral += float(contrib.sum() * h**m * dt)

    if bad > 0.001 * total:
        raise HypothesisViolated(
            f"differential inequality fails on {bad}/{total} interior points")

    sup_interior = float(u[:, dom].max())
    sup_pb = max(float(u[0][dom].max()),
                 float(u[:, boundary].max()) if boundary.any() else -np.inf)
    numer = sup_interior - sup_pb
    denom = stg.diameter ** (m / (m + 1.0)) * mask_integral ** (1.0 / q)
    implied = 0.0
    if numer > 0.0:
        implied = numer / denom if denom > 0.0 else float("inf")
    return LiebermanReport(bad, total, mask_integral, sup_interior, sup_pb,
                           implied, q, stg.diameter)
