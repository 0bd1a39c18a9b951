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
second-order centered finite-difference mode kept as a cross-check.

Only n in {1, 2} is supported; axis order of the value arrays is
(x_1, y_1[, x_2, y_2]).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad

__all__ = [
    "TorusGrid",
    "ScalarField",
    "Trajectory",
    "HessianData",
    "RadialKernel",
    "DEFAULT_KERNEL",
    "integrate",
    "complex_hessian",
    "complex_hessian_matrices",
    "hessian_parts",
    "hessian_eigenvalues",
    "identity_plus_eigenvalues",
    "eigvalsh_identity_plus",
    "min_admissibility_eigenvalue",
    "convolve_radial",
    "complex_laplacian",
    "random_admissible_field",
    "save_field",
    "load_field",
    "field_to_csv",
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
            raise ValueError("points_per_axis must be positive and even")
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
        """All axes, passed with `s=` to irfftn (numpy 2 deprecates `s` alone)."""
        return tuple(range(self.real_dim))

    @cached_property
    def hessian_symbols(self) -> tuple:
        """Fourier symbols of the `hessian_parts` components on the rfftn grid.

        The last axis carries only the non-negative half of the angular
        wavenumbers.  Mixed-derivative symbols zero the Nyquist mode, whose
        sign is ambiguous; pure second derivatives keep it.  Each symbol is
        real and even, so one irfftn of symbol * rfftn(u) is exact.
        """
        n, d = self.points_per_axis, self.real_dim

        def k(axis: int, odd: bool) -> np.ndarray:
            freq = np.fft.rfftfreq if axis == d - 1 else np.fft.fftfreq
            w = 2.0 * np.pi * freq(n, d=self.spacing)
            if odd:
                w[n // 2] = 0.0
            return w.reshape([len(w) if a == axis else 1 for a in range(d)])

        def d2(a: int, b: int) -> np.ndarray:
            if a == b:
                return -k(a, odd=False) ** 2
            return -(k(a, odd=True) * k(b, odd=True))

        return _hessian_combinations(d2, self.n_complex)

    @cached_property
    def quarter_laplacian_symbol(self) -> np.ndarray:
        """Symbol of tr H = (1/4) real Laplacian on the rfftn grid."""
        return sum(self.hessian_symbols[:self.n_complex])

    def scalar_field(self, values) -> "ScalarField":
        return ScalarField(self, np.asarray(values, dtype=float))

    def constant_field(self, c: float) -> "ScalarField":
        return ScalarField(self, np.full(self.shape, float(c)))

    def periodic_offsets(self) -> tuple:
        """Signed periodic offsets from the origin along each axis, in (-L/2, L/2]."""
        n, h = self.points_per_axis, self.spacing
        idx = np.arange(n)
        w = np.where(idx <= n // 2, idx, idx - n) * h
        return tuple(
            w.reshape([n if a == ax else 1 for a in range(self.real_dim)])
            for ax in range(self.real_dim)
        )

    def periodic_distance_sq(self, center) -> np.ndarray:
        """Squared periodic distance from every grid point to `center`."""
        coords = self.meshgrid()
        out = np.zeros(self.shape)
        for c, x0 in zip(coords, center):
            d = np.abs(c - x0)
            d = np.minimum(d, self.period - d)
            out += d * d
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

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

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

    def fields(self):
        return [self.field_at(k) for k in range(self.n_times)]

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


@dataclass
class HessianData:
    """Per-point Hermitian matrix of mixed complex second derivatives.

    `matrices` has shape (*grid.shape, n, n) with n = grid.n_complex and is
    Hermitian to round-off at every grid point.
    """

    grid: TorusGrid
    matrices: np.ndarray

    _eigs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def eigenvalues_of_identity_plus(self) -> np.ndarray:
        """Ascending eigenvalues of I + H at every point, shape (*shape, n)."""
        if self._eigs is None:
            self._eigs = eigvalsh_identity_plus(self.matrices, self.grid.n_complex)
        return self._eigs


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


def _hessian_combinations(d2, n: int) -> tuple:
    """The independent real components of H from real second partials d2(a, b).

    Axes: x_i -> 2i, y_i -> 2i+1.  n = 1 gives (h11,); n = 2 gives
    (h11, h22, Re h12, Im h12).
    """
    parts = [0.25 * (d2(0, 0) + d2(1, 1))]
    if n == 2:
        parts += [0.25 * (d2(2, 2) + d2(3, 3)),
                  0.25 * (d2(0, 2) + d2(1, 3)),
                  0.25 * (d2(0, 3) - d2(1, 2))]
    return tuple(parts)


def _fd_second_derivative(values, grid: TorusGrid, axis_a: int, axis_b: int) -> np.ndarray:
    h = grid.spacing
    if axis_a == axis_b:
        return (np.roll(values, -1, axis_a) - 2.0 * values
                + np.roll(values, 1, axis_a)) / h**2
    vpp = np.roll(np.roll(values, -1, axis_a), -1, axis_b)
    vpm = np.roll(np.roll(values, -1, axis_a), 1, axis_b)
    vmp = np.roll(np.roll(values, 1, axis_a), -1, axis_b)
    vmm = np.roll(np.roll(values, 1, axis_a), 1, axis_b)
    return (vpp - vpm - vmp + vmm) / (4.0 * h**2)


def hessian_parts(values: np.ndarray, grid: TorusGrid) -> tuple:
    """Independent real components of the complex Hessian of a value array.

    n = 1 gives (h11,); n = 2 gives (h11, h22, Re h12, Im h12).  Spectral
    mode does one rfftn and one irfftn per component against the grid's
    cached `hessian_symbols`; finite-difference mode is the cross-check.
    """
    if grid.derivative_mode == "spectral":
        uhat = np.fft.rfftn(values)
        return tuple(np.fft.irfftn(sym * uhat, s=grid.shape, axes=grid.axes)
                     for sym in grid.hessian_symbols)
    return _hessian_combinations(
        lambda a, b: _fd_second_derivative(values, grid, a, b), grid.n_complex)


def complex_hessian(field: ScalarField) -> HessianData:
    """Mixed complex Hessian phi_{i jbar} as a per-point Hermitian matrix."""
    field.require_finite("field")
    grid = field.grid
    return HessianData(grid, complex_hessian_matrices(field.values, grid))


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


def identity_plus_eigenvalues(parts: tuple) -> np.ndarray:
    """Ascending eigenvalues of I + H from `hessian_parts`, closed form.

    Shape (*grid.shape, n) with n = 1 for (h11,) and n = 2 for
    (h11, h22, Re h12, Im h12).
    """
    if len(parts) == 1:
        return 1.0 + parts[0][..., None]
    h11, h22, re, im = parts
    a = 1.0 + h11
    b = 1.0 + h22
    mean = 0.5 * (a + b)
    rad = np.sqrt(0.25 * (a - b) ** 2 + np.hypot(re, im) ** 2)
    return np.stack([mean - rad, mean + rad], axis=-1)


def eigvalsh_identity_plus(matrices: np.ndarray, n: int) -> np.ndarray:
    """Ascending eigenvalues of I + H for stacked Hermitian H (n <= 2), closed form."""
    parts = (matrices[..., 0, 0].real,)
    if n == 2:
        parts += (matrices[..., 1, 1].real, matrices[..., 0, 1].real,
                  matrices[..., 0, 1].imag)
    return identity_plus_eigenvalues(parts)


def hessian_eigenvalues(hess: HessianData) -> np.ndarray:
    """Ascending eigenvalues of I + H per point (the lambda[h_phi] with g = I)."""
    return hess.eigenvalues_of_identity_plus()


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


class RadialKernel:
    """Radial mollifier profile rho on [0, 1] with per-dimension normalization.

    The density in real dimension d is c_d * profile(r) with c_d fixed so
    that the kernel integrates to 1 over R^d; the second moment
    K = int |w|^2 rho(|w|) dV is the convexity compensator used by the
    Kiselman-Legendre transform.  Both constants are computed numerically
    once per dimension and cached.
    """

    def __init__(self, profile=None, name: str = "poly3"):
        self._profile = profile if profile is not None else (lambda r: (1.0 - r * r) ** 3)
        self.name = name
        self._norm: dict[int, float] = {}
        self._moment: dict[int, float] = {}

    @staticmethod
    def _sphere_area(d: int) -> float:
        from math import gamma, pi
        return 2.0 * pi ** (d / 2.0) / gamma(d / 2.0)

    def _normalization(self, d: int) -> float:
        if d not in self._norm:
            area = self._sphere_area(d)
            val, _ = quad(lambda r: self._profile(r) * r ** (d - 1), 0.0, 1.0)
            self._norm[d] = 1.0 / (area * val)
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
            val, _ = quad(lambda r: c * self._profile(r) * r ** (d + 1), 0.0, 1.0)
            self._moment[d] = area * val
        return self._moment[d]

    def tail_mass(self, t: float, d: int) -> float:
        """Kernel mass outside radius t (unit scale)."""
        area = self._sphere_area(d)
        c = self._normalization(d)
        val, _ = quad(lambda r: c * self._profile(r) * r ** (d - 1), min(t, 1.0), 1.0)
        return area * val

    def ball_lower_constant(self, d: int) -> float:
        """Weight c_kernel = int_{1/2}^{1} t^{1-d} * tail_mass(t) dt.

        This is the flat-torus constant in the lower bound relating
        rho_eps u - u to the mass of the complex Laplacian on B(z, eps/2).
        """
        val, _ = quad(lambda t: t ** (1 - d) * self.tail_mass(t, d), 0.5, 1.0)
        return val


DEFAULT_KERNEL = RadialKernel()


def _kernel_on_grid_normalized(grid: TorusGrid, s: float, kernel: RadialKernel) -> np.ndarray:
    """Discrete kernel centered at the origin, renormalized to unit discrete mass."""
    d = grid.real_dim
    offs = grid.periodic_offsets()
    r2 = np.zeros(grid.shape)
    for w in offs:
        r2 = r2 + w * w
    r = np.sqrt(r2)
    k = kernel.density(r / s, d) / s**d
    total = k.sum() * grid.cell_volume
    if total <= 0:
        raise ValueError(f"kernel radius {s} is below grid resolution everywhere")
    return k / total


# Bytes of kernel transforms kept, least recently used evicted first.  One
# n=2, N=16 Kiselman-Legendre transform uses 44 entries (25 MiB); an n=2,
# N=32 entry alone is about 9 MiB.
_KERNEL_FFT_CACHE_BYTES = 128 * 2**20
_KERNEL_FFT_CACHE: OrderedDict = OrderedDict()
_KERNEL_FFT_LOCK = threading.Lock()


def _kernel_fft(grid: TorusGrid, s: float, kernel: RadialKernel) -> np.ndarray:
    key = (grid.n_complex, grid.points_per_axis, grid.period, float(s), kernel.name)
    with _KERNEL_FFT_LOCK:
        out = _KERNEL_FFT_CACHE.get(key)
        if out is not None:
            _KERNEL_FFT_CACHE.move_to_end(key)
            return out
    out = np.fft.rfftn(_kernel_on_grid_normalized(grid, s, kernel))
    with _KERNEL_FFT_LOCK:
        _KERNEL_FFT_CACHE[key] = out
        _KERNEL_FFT_CACHE.move_to_end(key)
        held = sum(v.nbytes for v in _KERNEL_FFT_CACHE.values())
        while _KERNEL_FFT_CACHE and held > _KERNEL_FFT_CACHE_BYTES:
            held -= _KERNEL_FFT_CACHE.popitem(last=False)[1].nbytes
    return out


def convolve_radial(field: ScalarField, s: float,
                    kernel: RadialKernel = DEFAULT_KERNEL) -> ScalarField:
    """Periodic convolution with the rescaled radial kernel at scale s.

    The discrete kernel is renormalized to unit mass on the grid, so the
    convolution preserves constants and total integral exactly.  On the
    flat torus this realizes the exp-map mollification (exp is translation).
    """
    grid = field.grid
    if not (0.0 < s < grid.period / 2.0):
        raise ValueError(f"kernel radius must lie in (0, L/2), got {s}")
    field.require_finite("field")
    khat = _kernel_fft(grid, s, kernel)
    fhat = np.fft.rfftn(field.values)
    out = np.fft.irfftn(fhat * khat, s=grid.shape, axes=grid.axes) * grid.cell_volume
    return ScalarField(grid, out)


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

_FIELD_MAGIC = np.int64(0x544F5246)  # "TORF"
_TRAJ_MAGIC = np.int64(0x544F5254)  # "TORT"


def save_field(f: ScalarField, path) -> None:
    """Flat binary layout: magic, n_complex, N, L, then row-major float64."""
    with open(path, "wb") as fh:
        np.array([_FIELD_MAGIC, f.grid.n_complex, f.grid.points_per_axis],
                 dtype=np.int64).tofile(fh)
        np.array([f.grid.period], dtype=np.float64).tofile(fh)
        f.values.astype(np.float64).tofile(fh)


def _require_size(fh, path, n_words: int) -> None:
    """Reject a file whose byte count differs from the one its header implies."""
    expected = 8 * n_words
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise ValueError(f"{path} holds {actual} bytes; its header implies "
                         f"{expected} (truncated or oversized file)")


def load_field(path, derivative_mode: str = "spectral") -> ScalarField:
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype=np.int64, count=3)
        if len(head) != 3 or head[0] != _FIELD_MAGIC:
            raise ValueError(f"{path} is not a torus field file")
        n_points = int(head[2]) ** (2 * int(head[1]))
        _require_size(fh, path, 4 + n_points)
        period = float(np.fromfile(fh, dtype=np.float64, count=1)[0])
        grid = TorusGrid(int(head[1]), int(head[2]), period, derivative_mode)
        vals = np.fromfile(fh, dtype=np.float64).reshape(grid.shape)
    return ScalarField(grid, vals)


def field_to_csv(f: ScalarField, path) -> None:
    """CSV with one row per grid point (index columns, then the value)."""
    idx = np.indices(f.grid.shape).reshape(f.grid.real_dim, -1).T
    vals = f.values.reshape(-1, 1)
    header = ",".join(f"i{a}" for a in range(f.grid.real_dim)) + ",value"
    data = np.hstack([idx, vals])
    fmt = ["%d"] * f.grid.real_dim + ["%.17g"]
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=fmt)


def save_trajectory(traj: Trajectory, path) -> None:
    """Binary checkpoint: magic, n_complex, N, n_times, L, dt, times, data."""
    with open(path, "wb") as fh:
        np.array([_TRAJ_MAGIC, traj.grid.n_complex, traj.grid.points_per_axis,
                  traj.n_times], dtype=np.int64).tofile(fh)
        np.array([traj.grid.period, traj.dt], dtype=np.float64).tofile(fh)
        traj.times.astype(np.float64).tofile(fh)
        traj.values.astype(np.float64).tofile(fh)


def load_trajectory(path, derivative_mode: str = "spectral") -> Trajectory:
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype=np.int64, count=4)
        if len(head) != 4 or head[0] != _TRAJ_MAGIC:
            raise ValueError(f"{path} is not a trajectory checkpoint")
        n_times = int(head[3])
        n_points = int(head[2]) ** (2 * int(head[1]))
        _require_size(fh, path, 6 + n_times * (1 + n_points))
        period, dt = np.fromfile(fh, dtype=np.float64, count=2)
        grid = TorusGrid(int(head[1]), int(head[2]), float(period), derivative_mode)
        times = np.fromfile(fh, dtype=np.float64, count=n_times)
        vals = np.fromfile(fh, dtype=np.float64).reshape((n_times,) + grid.shape)
    return Trajectory(grid, times, vals, dt=float(dt))
