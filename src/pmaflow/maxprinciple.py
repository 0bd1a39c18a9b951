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
tolerance eig_tol = 10 h, the discrete curvature noise floor;
marginally positive determinant fuzz admitted by the tolerance is clamped
to keep the integrand nonnegative on E by construction.

Both checks enter through one step that checks u, builds the domain mask
once, and derives the interior and the two sups from it.  Only interior
nodes can be on E, so the work is done there alone: for each time slice
d_t u and the m(m+1)/2 independent components d_ab u (a <= b) of the
centered spatial Hessian are gathered at the interior nodes' flat indices,
and both integrals are summed one time slice at a time.  The reports hold
scalars only: no contact mask, integrand or full-size array of d_t u is
kept.  The contact test runs on the nodes with d_t u >= 0 only, and the
determinant of -D^2 u on the nodes that pass it.  The largest eigenvalue
and the determinants, of -D^2 u and of a^{ij}, are closed forms over those
components (O. K. Smith's trigonometric solution at m = 3), and
a^{ij} d_ij u is a sum over them; no (..., m, m) tensor is built.  Near a
repeated eigenvalue the m = 3 closed form is only accurate to about
2.4e-8 max|H_ab|, so points within a guard band of _GUARD_BAND max|H_ab|
around `eig_tol` are decided by LAPACK's eigvalsh, and E is the set
eigvalsh gives, point for point.

a_field and f_field may be read-only broadcast views.  They are read one
slice at a time: a slice broadcast over every spatial axis is read as its
one stored value, and det a^{ij} and the hypothesis floor are computed on
that value, then broadcast to the interior nodes; any other slice is
gathered at the interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if not self.T > 0.0:
            raise ValueError(f"T = {self.T!r} is not positive")
        if not self.ball_radius > 0.0:
            raise ValueError(f"ball_radius = {self.ball_radius!r} is not positive")
        if self.ball_center is None:
            self.ball_center = (0.5,) * self.m
        if np.shape(self.ball_center) != (self.m,):
            raise ValueError(f"ball_center = {self.ball_center!r} does not have "
                             f"m = {self.m} coordinates")

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

    def meshgrid(self, sparse: bool = False) -> tuple:
        """Coordinate arrays with 'ij' indexing; sparse gives open axes, one
        length-N array per axis that broadcasts against the others."""
        return np.meshgrid(*([self.axis()] * self.m), indexing="ij", sparse=sparse)

    @property
    def diameter(self) -> float:
        if self.domain == "ball":
            return 2.0 * self.ball_radius
        return float(np.sqrt(self.m))

    def domain_mask(self) -> np.ndarray:
        """Nodes belonging to the closed domain."""
        if self.domain == "box":
            return np.ones((self.n_points,) * self.m, dtype=bool)
        coords = self.meshgrid(sparse=True)
        d2 = sum((c - c0) ** 2 for c, c0 in zip(coords, self.ball_center))
        return d2 <= self.ball_radius**2 + 1e-12


def _interior_of(dom: np.ndarray) -> np.ndarray:
    """The domain mask dom ANDed with its +-1 shifts along each axis,
    off-array nodes counting as outside."""
    padded = np.pad(dom, 1)
    core = (slice(1, -1),) * dom.ndim
    for axis in range(dom.ndim):
        for step in (-1, 1):
            dom = dom & np.roll(padded, step, axis)[core]
    return dom


def sample_space_time(stg: SpaceTimeGridReal, fn) -> np.ndarray:
    """Sample fn(t, *coords) on the space-time grid; shape (K+1, N, ..., N)."""
    coords = stg.meshgrid()
    out = np.empty((stg.n_steps + 1,) + coords[0].shape)
    for k, t in enumerate(stg.times):
        out[k] = fn(t, *coords)
    return out


@dataclass
class ContactSetReport:
    integral_value: float          # int_E d_t u det(-D^2 u)
    sup_interior: float
    sup_parabolic_boundary: float
    domain_volume: float
    eig_tol: float


def _take(H: list, sel: np.ndarray) -> list:
    """The symmetric nested list H of point arrays at the points sel; each
    entry a <= b is gathered once, and H[b][a] is the same array."""
    m = len(H)
    out = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            out[a][b] = out[b][a] = H[a][b][sel]
    return out


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


def _interior_slices(stg: SpaceTimeGridReal, u: np.ndarray,
                     interior: np.ndarray, tol: float):
    """Yield (k, idx, du, H, on_e) for the times t_1..t_K on the interior nodes.

    idx holds the flat indices of the nodes in one slice, du the time
    derivative there (centered, backward at k = K) and H the symmetric m x m
    nested list of centered second differences d_ab u there; H[b][a] is the
    same array as H[a][b], so only the m(m+1)/2 components a <= b are
    gathered.  on_e holds the positions in idx of the nodes on E: the
    curvature test runs on the nodes with d_t u >= 0 only.  Interior nodes
    are never on the array's edge, so idx +- stride stays in the slice.
    """
    h, dt, m, K = stg.h, stg.dt, stg.m, stg.n_steps
    idx = np.flatnonzero(interior)
    strides = [stg.n_points ** (m - 1 - a) for a in range(m)]
    for k in range(1, K + 1):
        flat = u[k].ravel()
        if k < K:
            du = (u[k + 1].ravel()[idx] - u[k - 1].ravel()[idx]) / (2.0 * dt)
        else:
            du = (flat[idx] - u[k - 1].ravel()[idx]) / dt

        def at(*steps):
            """u at the nodes moved by (axis, step) pairs."""
            return flat[idx + sum(step * strides[axis] for axis, step in steps)]

        centre = flat[idx]
        H = [[None] * m for _ in range(m)]
        for a in range(m):
            H[a][a] = (at((a, 1)) - 2.0 * centre + at((a, -1))) / h**2
            for b in range(a + 1, m):
                H[a][b] = H[b][a] = (at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                                     - at((a, -1), (b, 1)) + at((a, -1), (b, -1))
                                     ) / (4.0 * h**2)
        rising = np.flatnonzero(du >= 0.0)
        yield k, idx, du, H, rising[_curvature_nonpositive(_take(H, rising), tol)]


def _check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    if np.shape(arr) != shape:
        raise ValueError(f"{name} has shape {np.shape(arr)}; the space-time "
                         f"grid expects {shape}")


def _first_nonfinite_time(arr: np.ndarray) -> int | None:
    """The least k >= 1 with a non-finite value in arr[k], or None.

    Zero-stride (broadcast) axes are collapsed to index 0 first, so a
    broadcast array's stored values are each read once, not once per view.
    """
    arr = np.asarray(arr)[1:]
    stored = arr[tuple(slice(0, 1) if step == 0 else slice(None)
                       for step in arr.strides)]
    for k, values in enumerate(stored, start=1):
        if not np.isfinite(values).all():
            return k
    return None


def _sups(stg: SpaceTimeGridReal, u: np.ndarray) -> tuple:
    """Check u's shape and finiteness, build the domain mask once, and
    return (interior mask, interior volume, eig_tol = 10 h, sup of u over
    the domain, sup of u over the parabolic boundary: the t = 0 slice and
    the non-interior domain nodes at all times).  Both sups are read off
    u's maximum over time and its t = 0 slice, single spatial arrays."""
    _check_shape("u", u, (stg.n_steps + 1,) + (stg.n_points,) * stg.m)
    if not np.isfinite(u).all():
        raise ValueError("u contains non-finite values")
    dom = stg.domain_mask()
    interior = _interior_of(dom)
    boundary = dom & ~interior
    umax = u.max(axis=0)
    sup_pb = max(float(u[0][dom].max()),
                 float(umax[boundary].max()) if boundary.any() else -np.inf)
    return (interior, float(interior.sum() * stg.h**stg.m), 10.0 * stg.h,
            float(umax[dom].max()), sup_pb)


def contact_set(stg: SpaceTimeGridReal, u: np.ndarray) -> ContactSetReport:
    """Contact set, its integral, and the two sups of the maximum principle.

    E lives on interior nodes at times t_1..t_K; the parabolic boundary sup
    combines the t = 0 slice with the spatial boundary at all times.
    Quadrature is point-mass h^m dt on E, summed one time slice at a time.
    """
    interior, volume, tol, sup_interior, sup_pb = _sups(stg, u)
    integral = 0.0
    for k, idx, du, H, on_e in _interior_slices(stg, u, interior, tol):
        det_neg = np.maximum((-1.0) ** stg.m * _det(_take(H, on_e)), 0.0)
        integral += float((du[on_e] * det_neg).sum())
    return ContactSetReport(integral * stg.h**stg.m * stg.dt, sup_interior,
                            sup_pb, volume, tol)


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
                         exponent: float | None = None) -> LiebermanReport:
    """Divergence-form maximum-principle check with a free constant.

    Verifies -d_t u + a^{ij} d_ij u >= f - 1e-9 (1 + |f|) pointwise on
    interior nodes first (HypothesisViolated beyond 0.1% of points), then
    evaluates

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
    interior, _, tol, sup_interior, sup_pb = _sups(stg, u)
    _check_shape("a_field", a_field, u.shape + (m, m))
    _check_shape("f_field", f_field, u.shape)
    # the earliest bad time index; at a tie a_field, which sorts first
    bad = [(k, name) for name, arr in (("a_field", a_field), ("f_field", f_field))
           if (k := _first_nonfinite_time(arr)) is not None]
    if bad:
        k, name = min(bad)
        raise ValueError(f"{name} contains non-finite values at time index {k}")
    # a multi-index: a_field and f_field may be broadcast views, whose
    # ravel() would copy a whole slice
    nodes = np.nonzero(interior)
    count = nodes[0].size

    def at_nodes(values, entry=()):
        """values[nodes + entry] for one time slice; a slice broadcast over
        every spatial axis gives its one stored value."""
        if any(values.strides[:m]):
            return values[nodes + entry]
        return values[(0,) * m + entry]

    def read_a(values):
        """a^{ij} and max(det a, 1e-300) at the nodes."""
        a = [[at_nodes(values, (i, j)) for j in range(m)] for i in range(m)]
        return ([[np.broadcast_to(entry, (count,)) for entry in row] for row in a],
                np.broadcast_to(np.maximum(_det(a), 1e-300), (count,)))

    def read_f(values):
        """f and the hypothesis floor f - 1e-9 (1 + |f|) at the nodes."""
        f = at_nodes(values)
        return (np.broadcast_to(f, (count,)),
                np.broadcast_to(f - 1e-9 * (1.0 + np.abs(f)), (count,)))

    bad = 0
    total = 0
    mask_integral = 0.0
    for k, idx, du, H, on_e in _interior_slices(stg, u, interior, tol):
        a_k, det_a = read_a(a_field[k])
        f_k, f_floor = read_f(f_field[k])
        lhs = -du + sum(a_k[i][j] * H[i][j]
                        for i in range(m) for j in range(m))
        bad += int((lhs < f_floor).sum())
        total += idx.size
        f_minus = np.maximum(-f_k[on_e], 0.0)
        contrib = f_minus**q / det_a[on_e]
        mask_integral += float(contrib.sum() * h**m * dt)

    if bad > 0.001 * total:
        raise HypothesisViolated(
            f"differential inequality fails on {bad}/{total} interior points")

    numer = sup_interior - sup_pb
    denom = stg.diameter ** (m / (m + 1.0)) * mask_integral ** (1.0 / q)
    implied = 0.0
    if numer > 0.0:
        implied = numer / denom if denom > 0.0 else float("inf")
    return LiebermanReport(bad, total, mask_integral, sup_interior, sup_pb,
                           implied, q, stg.diameter)
