"""Discrete flat complex torus, scalar fields, and complex-Hessian calculus.

The domain is the torus (R/LZ)^{2n} viewed as a flat complex n-torus with
coordinates z_i = x_i + sqrt(-1) y_i and the flat metric g_{ij} = delta_ij.
The volume form is the Lebesgue measure of the periodic box, so the total
volume is L^{2n} (exactly 1 for the default unit period).

Mixed complex second derivatives are computed from real partials via

    d^2/dz_i dzbar_j = 1/4 [(d_{x_i x_j} + d_{y_i y_j})
                            + i (d_{x_i y_j} - d_{y_i x_j})],

so in complex dimension one the complex Hessian is the single value
(1/4) Laplacian(phi).  Derivatives are spectral (FFT) by default, with a
second-order centered finite-difference mode kept as a cross-check; both
are applied as Fourier symbols on real FFTs.

Only n in {1, 2} is supported; axis order of the value arrays is
(x_1, y_1[, x_2, y_2]).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = [
    "TorusGrid",
    "ScalarField",
    "Trajectory",
    "DEFAULT_KERNEL",
    "integrate",
    "hessian_parts",
    "identity_plus_eigenvalues",
    "elementary_symmetric",
    "min_admissibility_eigenvalue",
    "convolve_radial",
    "radial_smoother",
    "complex_laplacian",
    "random_admissible_field",
    "save_trajectory",
    "load_trajectory",
]


@dataclass(eq=True)
class TorusGrid:
    """Uniform discretization of the flat complex torus.

    Attributes
    ----------
    n_complex : complex dimension n (1 or 2).
    points_per_axis : even number N of points per real axis.
    period : real period L of every axis.
    derivative_mode : "spectral" (default) or "finite_difference_2nd".
    """

    n_complex: int
    points_per_axis: int
    period: float = 1.0
    derivative_mode: str = "spectral"

    def __post_init__(self):
        if self.n_complex not in (1, 2):
            raise ValueError(f"n_complex must be 1 or 2, got {self.n_complex}")
        if self.points_per_axis <= 0 or self.points_per_axis % 2 != 0:
            raise ValueError("points_per_axis must be positive and even, "
                             f"got {self.points_per_axis}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.derivative_mode not in ("spectral", "finite_difference_2nd"):
            raise ValueError(f"unknown derivative_mode {self.derivative_mode!r}")

    @property
    def real_dim(self) -> int:
        return 2 * self.n_complex

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.real_dim

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def volume(self) -> float:
        return self.period ** self.real_dim

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.real_dim

    def axis(self) -> np.ndarray:
        """Grid coordinates of one axis, [0, L)."""
        return np.arange(self.points_per_axis) * self.spacing

    def meshgrid(self) -> tuple:
        """Coordinate arrays (x1, y1[, x2, y2]) with 'ij' indexing."""
        return np.meshgrid(*([self.axis()] * self.real_dim), indexing="ij")

    @cached_property
    def axes(self) -> tuple:
        """All axes, passed with `s=` to every irfftn."""
        return tuple(range(self.real_dim))

    @cached_property
    def hessian_symbols(self) -> tuple:
        """Fourier symbols of the `hessian_parts` components on the rfftn grid.

        The last axis carries only the non-negative half of the angular
        wavenumbers.  Spectral mode: pure second derivatives -k_a^2, mixed
        ones -k_a k_b with the Nyquist mode zeroed, whose sign is ambiguous.
        Finite-difference mode: the symbols of the centered stencils,
        -4 sin^2(k_a h/2)/h^2 and -sin(k_a h) sin(k_b h)/h^2.  Each symbol is
        real and even, so one irfftn of symbol * rfftn(u) is exact.

        Axes: x_i -> 2i, y_i -> 2i+1; n = 1 gives (h11,), n = 2 gives
        (h11, h22, Re h12, Im h12).
        """
        n, d, h = self.points_per_axis, self.real_dim, self.spacing
        fd = self.derivative_mode == "finite_difference_2nd"

        def k(axis: int, odd: bool) -> np.ndarray:
            freq = np.fft.rfftfreq if axis == d - 1 else np.fft.fftfreq
            w = 2.0 * np.pi * freq(n, d=h)
            if odd:
                w[n // 2] = 0.0
            return w.reshape([len(w) if a == axis else 1 for a in range(d)])

        def d2(a: int, b: int) -> np.ndarray:
            if a == b:
                w = k(a, odd=False)
                return -(2.0 / h * np.sin(0.5 * h * w)) ** 2 if fd else -w ** 2
            wa, wb = k(a, odd=True), k(b, odd=True)
            return -np.sin(h * wa) * np.sin(h * wb) / h ** 2 if fd else -(wa * wb)

        parts = [0.25 * (d2(0, 0) + d2(1, 1))]
        if self.n_complex == 2:
            parts += [0.25 * (d2(2, 2) + d2(3, 3)),
                      0.25 * (d2(0, 2) + d2(1, 3)),
                      0.25 * (d2(0, 3) - d2(1, 2))]
        return tuple(parts)

    @cached_property
    def quarter_laplacian_symbol(self) -> np.ndarray:
        """Symbol of tr H = (1/4) real Laplacian on the rfftn grid."""
        return sum(self.hessian_symbols[:self.n_complex])

    def scalar_field(self, values) -> "ScalarField":
        return ScalarField(self, np.asarray(values, dtype=float))

    def constant_field(self, c: float) -> "ScalarField":
        return ScalarField(self, np.full(self.shape, float(c)))

    def periodic_distance_sq(self, center) -> np.ndarray:
        """Squared periodic distance from every grid point to `center`, a
        point with one coordinate per real axis; one broadcast axis each.

        Offsets are taken in cells, min(|k - x0/h|, N - |k - x0/h|) h, so a
        center at the origin sees the exactly symmetric distances
        min(k, N - k) h: the mollifier's kernel is even to the last bit.
        """
        if len(center) != self.real_dim:
            raise ValueError(f"center {tuple(center)} has {len(center)} coordinates; "
                             f"the grid has {self.real_dim} real axes")
        n, h = self.points_per_axis, self.spacing
        out = np.zeros(self.shape)
        for ax, x0 in enumerate(center):
            cells = np.abs(np.arange(n) - x0 / h)
            d = np.minimum(cells, n - cells) * h
            out += (d * d).reshape([-1 if a == ax else 1 for a in range(self.real_dim)])
        return out


@dataclass
class ScalarField:
    """Real scalar function sampled on a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def require_finite(self, what: str = "field"):
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{what} contains non-finite values")
        return self

    def shifted(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values + c)


@dataclass
class Trajectory:
    """Time-indexed family of scalar fields on a common grid.

    `values` is stacked as (n_times, *grid.shape); `times` is strictly
    increasing with times[0] = 0 for flow output.
    """

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray
    dt: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.times),) + self.grid.shape:
            raise ValueError("trajectory values shape does not match times/grid")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.dt == 0.0 and len(self.times) > 1:
            self.dt = float(self.times[1] - self.times[0])

    @property
    def n_times(self) -> int:
        return len(self.times)

    def field_at(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.values[k])

    def time_weights(self) -> np.ndarray:
        """Trapezoid weights for integration over [0, T]."""
        t = self.times
        if len(t) == 1:
            return np.array([0.0])
        w = np.empty_like(t)
        w[0] = 0.5 * (t[1] - t[0])
        w[-1] = 0.5 * (t[-1] - t[-2])
        if len(t) > 2:
            w[1:-1] = 0.5 * (t[2:] - t[:-2])
        return w

    def map_values(self, fn) -> "Trajectory":
        return Trajectory(self.grid, self.times.copy(), fn(self.values), dt=self.dt)


# ---------------------------------------------------------------------------
# quadrature


def integrate(field: ScalarField) -> float:
    """Quadrature of `field` against the flat volume form.

    The periodic trapezoid rule collapses to mean * volume; it is exact
    (to round-off) for fields whose Fourier modes stay below the Nyquist
    frequency.
    """
    field.require_finite("integrand")
    return float(field.values.mean() * field.grid.volume)


def spacetime_integral(traj: Trajectory) -> float:
    """Integral over [0, T] x M with trapezoid weights in time."""
    w = traj.time_weights()
    per_time = traj.values.reshape(traj.n_times, -1).mean(axis=1) * traj.grid.volume
    return float(np.dot(w, per_time))


# ---------------------------------------------------------------------------
# complex Hessian


def hessian_parts(values: np.ndarray, grid: TorusGrid) -> tuple:
    """Independent real components of the complex Hessian of a value array.

    n = 1 gives (h11,); n = 2 gives (h11, h22, Re h12, Im h12).  One rfftn,
    then one irfftn per component against the grid's cached
    `hessian_symbols` (spectral or finite-difference).
    """
    uhat = scipy.fft.rfftn(values)
    return tuple(scipy.fft.irfftn(sym * uhat, s=grid.shape, axes=grid.axes,
                                  overwrite_x=True)
                 for sym in grid.hessian_symbols)


def identity_plus_eigenvalues(parts: tuple) -> np.ndarray:
    """Ascending eigenvalues of I + H from `hessian_parts`, closed form.

    Shape (*grid.shape, n) with n = 1 for (h11,) and n = 2 for
    (h11, h22, Re h12, Im h12).
    """
    if len(parts) == 1:
        return 1.0 + parts[0][..., None]
    h11, h22, re, im = parts
    # mean +- sqrt(0.25 (a - b)^2 + |h12|^2), a = 1 + h11, b = 1 + h22,
    # evaluated in place
    a = 1.0 + h11
    b = 1.0 + h22
    mean = a + b
    mean *= 0.5
    a -= b
    np.square(a, out=a)
    a *= 0.25
    rad = np.hypot(re, im)
    np.square(rad, out=rad)
    rad += a
    np.sqrt(rad, out=rad)
    eigs = np.empty(mean.shape + (2,))
    np.subtract(mean, rad, out=eigs[..., 0])
    np.add(mean, rad, out=eigs[..., 1])
    return eigs


def elementary_symmetric(slots: list, k: int) -> list:
    """[sigma_0, ..., sigma_k] of a list of slot arrays (or scalars).

    The recurrence e_j <- e_j + lambda e_{j-1}, one slot at a time from
    e = (1, 0, ..., 0); entries that stay zero are the scalar 0.0.
    """
    e = [1.0] + [0.0] * k
    for i, lam in enumerate(slots):
        for j in range(min(i + 1, k), 0, -1):
            e[j] = e[j] + lam * e[j - 1]
    return e


def min_admissibility_eigenvalue(field: ScalarField) -> float:
    """Smallest eigenvalue of I + H[field] over all grid points."""
    field.require_finite("field")
    parts = hessian_parts(field.values, field.grid)
    return float(identity_plus_eigenvalues(parts).min())


def complex_laplacian(field: ScalarField) -> np.ndarray:
    """Trace of the complex Hessian, sum_i phi_{i ibar} = (1/4) real Laplacian."""
    return sum(hessian_parts(field.values, field.grid)[:field.grid.n_complex])


# ---------------------------------------------------------------------------
# radial mollification kernel


# Gauss-Legendre rule on [-1, 1] (Golub & Welsch 1969): 48 nodes integrate
# polynomials of degree up to 95 exactly.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _gauss_legendre(f, a, b):
    """Integral of f over [a, b], one for each entry of an array a; f is
    called once, on the array of mapped nodes."""
    a = np.asarray(a, dtype=float)
    half = 0.5 * (b - a)
    x = (0.5 * (b + a))[..., None] + half[..., None] * _GAUSS_NODES
    return half * (f(x) @ _GAUSS_WEIGHTS)


class RadialKernel:
    """Radial mollifier with profile (1 - r^2)^3 on [0, 1], normalized per
    dimension.

    The density in real dimension d is c_d (1 - r^2)^3 with c_d fixed so
    that the kernel integrates to 1 over R^d; the second moment
    K = int |w|^2 rho(|w|) dV is the convexity compensator used by the
    Kiselman-Legendre transform.  The constants are radial integrals by
    one fixed 48-node Gauss-Legendre rule, cached per dimension.  The rule
    is exact for polynomials up to degree 95, so for every integrand here
    (degree 13 at d = 6) but the ball constant's, which is smooth on
    [1/2, 1] and converges to round-off.
    """

    def __init__(self):
        self._norm: dict[int, float] = {}
        self._moment: dict[int, float] = {}

    @staticmethod
    def _profile(r):
        return (1.0 - r * r) ** 3

    @staticmethod
    def _sphere_area(d: int) -> float:
        from math import gamma, pi
        return 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)

    def _normalization(self, d: int) -> float:
        if d not in self._norm:
            area = self._sphere_area(d)
            val = _gauss_legendre(lambda r: self._profile(r) * r ** (d - 1), 0.0, 1.0)
            self._norm[d] = 1.0 / (area * float(val))
        return self._norm[d]

    def density(self, r, d: int):
        """Normalized density at radius r (vectorized), zero outside [0, 1]."""
        r = np.asarray(r, dtype=float)
        c = self._normalization(d)
        inside = r <= 1.0
        return np.where(inside, c * self._profile(np.minimum(r, 1.0)), 0.0)

    def second_moment(self, d: int) -> float:
        """K = int_{R^d} |w|^2 rho(|w|) dV for the unit-scale kernel."""
        if d not in self._moment:
            area = self._sphere_area(d)
            c = self._normalization(d)
            val = _gauss_legendre(lambda r: c * self._profile(r) * r ** (d + 1), 0.0, 1.0)
            self._moment[d] = area * float(val)
        return self._moment[d]

    def tail_mass(self, t, d: int):
        """Kernel mass outside radius t (unit scale), vectorized in t."""
        area = self._sphere_area(d)
        c = self._normalization(d)
        return area * _gauss_legendre(lambda r: c * self._profile(r) * r ** (d - 1),
                                      np.minimum(t, 1.0), 1.0)

    def ball_lower_constant(self, d: int) -> float:
        """Weight c_kernel = int_{1/2}^{1} t^{1-d} * tail_mass(t) dt.

        This is the flat-torus constant in the lower bound relating
        rho_eps u - u to the mass of the complex Laplacian on B(z, eps/2).
        """
        return float(_gauss_legendre(lambda t: t ** (1 - d) * self.tail_mass(t, d),
                                     0.5, 1.0))


DEFAULT_KERNEL = RadialKernel()


def _kernel_on_grid_normalized(grid: TorusGrid, s: float) -> np.ndarray:
    """Discrete kernel centered at the origin, renormalized to unit discrete mass."""
    d = grid.real_dim
    r = np.sqrt(grid.periodic_distance_sq((0.0,) * d))
    k = DEFAULT_KERNEL.density(r / s, d) / s**d
    return k / (k.sum() * grid.cell_volume)


# Bytes of kernel transforms kept, least recently used evicted first.  One
# n=2, N=16 Kiselman-Legendre transform uses 16 entries (9 MiB), its scales
# below the grid spacing taking none; an n=2, N=32 entry alone is about
# 9 MiB.
_KERNEL_FFT_CACHE_BYTES = 128 * 2**20
_KERNEL_FFT_CACHE: OrderedDict = OrderedDict()
_KERNEL_FFT_LOCK = threading.Lock()


def _kernel_fft(grid: TorusGrid, s: float) -> np.ndarray:
    key = (grid.n_complex, grid.points_per_axis, grid.period, float(s))
    with _KERNEL_FFT_LOCK:
        out = _KERNEL_FFT_CACHE.get(key)
        if out is not None:
            _KERNEL_FFT_CACHE.move_to_end(key)
            return out
    out = scipy.fft.rfftn(_kernel_on_grid_normalized(grid, s))
    with _KERNEL_FFT_LOCK:
        _KERNEL_FFT_CACHE[key] = out
        _KERNEL_FFT_CACHE.move_to_end(key)
        held = sum(v.nbytes for v in _KERNEL_FFT_CACHE.values())
        while _KERNEL_FFT_CACHE and held > _KERNEL_FFT_CACHE_BYTES:
            held -= _KERNEL_FFT_CACHE.popitem(last=False)[1].nbytes
    return out


def radial_smoother(field: ScalarField):
    """Convolutions of one field with the rescaled radial kernel at any scale.

    Checks the field and takes its forward transform once; the returned
    smooth(s) gives the values of the convolution at scale s, so a ladder
    of scales costs one inverse transform each.  Kernel transforms come
    from the byte-bounded cache.

    A scale below the grid spacing h is the identity and returns a fresh
    copy of the values, with no kernel, transform or cache entry: every
    nonzero periodic offset has |w| >= h > s, so the discrete kernel is
    the unit mass at the origin.  The test h / s > 1 is the kernel
    builder's own r / s <= 1 at r = h (sqrt(h * h) rounds back to h).
    """
    grid = field.grid
    field.require_finite("field")
    fhat = scipy.fft.rfftn(field.values)

    def smooth(s: float) -> np.ndarray:
        if not (0.0 < s < grid.period / 2.0):
            raise ValueError(f"kernel radius must lie in (0, L/2), got {s}")
        if grid.spacing / s > 1.0:
            return field.values.copy()
        khat = _kernel_fft(grid, s)
        return scipy.fft.irfftn(fhat * khat, s=grid.shape, axes=grid.axes,
                                overwrite_x=True) * grid.cell_volume

    return smooth


def convolve_radial(field: ScalarField, s: float) -> ScalarField:
    """Periodic convolution with the rescaled radial kernel at scale s.

    The discrete kernel is renormalized to unit mass on the grid, so the
    convolution preserves constants and total integral exactly.  On the
    flat torus this realizes the exp-map mollification (exp is translation).
    Below the grid spacing the kernel covers the origin alone, and the
    result is the field itself (see `radial_smoother`).
    """
    return ScalarField(field.grid, radial_smoother(field)(s))


# ---------------------------------------------------------------------------
# field generators


def random_admissible_field(grid: TorusGrid, rng: np.random.Generator,
                            max_mode: int = 3, margin: float = 0.2,
                            amplitude: float = 1.0) -> ScalarField:
    """Random band-limited field rescaled so min eig(I + H) >= margin.

    Deterministic given the generator state; used for test data and for
    seeded initial conditions.
    """
    coords = grid.meshgrid()
    vals = np.zeros(grid.shape)
    two_pi = 2.0 * np.pi / grid.period
    for _ in range(4):
        ks = rng.integers(-max_mode, max_mode + 1, size=grid.real_dim)
        if not np.any(ks):
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.2, 1.0) * amplitude
        arg = sum(k * two_pi * c for k, c in zip(ks, coords))
        vals += amp * np.cos(arg + phase)
    f = ScalarField(grid, vals)
    lam_min = min_admissibility_eigenvalue(f)
    if lam_min >= margin or np.allclose(vals, 0.0):
        return f
    # scale amplitude so the most negative Hessian eigenvalue sits at margin - 1
    scale = (1.0 - margin) / (1.0 - lam_min)
    return ScalarField(grid, vals * scale)


# ---------------------------------------------------------------------------
# serialization

_TRAJ_MAGIC = np.int64(0x544F5254)  # "TORT"


def _require_size(fh, path, n_words: int) -> None:
    """Reject a file whose byte count differs from the one its header implies."""
    expected = 8 * n_words
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise ValueError(f"{path} holds {actual} bytes; its header implies "
                         f"{expected} (truncated or oversized file)")


def save_trajectory(traj: Trajectory, path) -> None:
    """Binary checkpoint: magic, n_complex, N, n_times, L, dt, times, data."""
    with open(path, "wb") as fh:
        np.array([_TRAJ_MAGIC, traj.grid.n_complex, traj.grid.points_per_axis,
                  traj.n_times], dtype=np.int64).tofile(fh)
        np.array([traj.grid.period, traj.dt], dtype=np.float64).tofile(fh)
        traj.times.astype(np.float64).tofile(fh)
        traj.values.astype(np.float64).tofile(fh)


def load_trajectory(path) -> Trajectory:
    """Read a `save_trajectory` checkpoint onto a spectral-mode grid; the
    file records no derivative mode."""
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype=np.int64, count=4)
        if len(head) != 4 or head[0] != _TRAJ_MAGIC:
            raise ValueError(f"{path} is not a trajectory checkpoint")
        n_times = int(head[3])
        n_points = int(head[2]) ** (2 * int(head[1]))
        _require_size(fh, path, 6 + n_times * (1 + n_points))
        period, dt = np.fromfile(fh, dtype=np.float64, count=2)
        grid = TorusGrid(int(head[1]), int(head[2]), float(period))
        times = np.fromfile(fh, dtype=np.float64, count=n_times)
        vals = np.fromfile(fh, dtype=np.float64).reshape((n_times,) + grid.shape)
    return Trajectory(grid, times, vals, dt=float(dt))
