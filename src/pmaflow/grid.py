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
are applied as Fourier symbols on real FFTs.  Every transform of the
package goes through one seam, `TorusGrid.rfftn` and `TorusGrid.irfftn`,
onto two entry points of scipy's compiled pocketfft module.  That module
is loaded from its file in the scipy install (`_load_pocketfft`), not
imported by its dotted name, which would first run the `__init__`s of
scipy and scipy.fft and load scipy.special, scipy._lib._array_api and
numpy.f2py, none of which the package calls.

Only n in {1, 2} is supported; axis order of the value arrays is
(x_1, y_1[, x_2, y_2]).
"""

from __future__ import annotations

import importlib.util
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

__all__ = [
    "TorusGrid",
    "ScalarField",
    "Trajectory",
    "kernel_second_moment",
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


def _load_pocketfft():
    """scipy's compiled `scipy.fft._pocketfft.pypocketfft`, loaded from its
    file without running any package `__init__` on the way.

    `find_spec` locates the scipy install without executing it.  The module
    is not entered in `sys.modules`, so a later `import scipy.fft` runs as
    it would have.  A missing file raises ImportError naming its path.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    path = os.path.join(spec.submodule_search_locations[0], "fft", "_pocketfft",
                        "pypocketfft" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's pocketfft extension is missing: no file {path}",
                          name=name, path=path)
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


# The pocketfft entry points of scipy.fft's rfftn and irfftn (see TorusGrid.rfftn)
_pocketfft = _load_pocketfft()
_r2c, _c2r = _pocketfft.r2c, _pocketfft.c2r


@dataclass(frozen=True)
class TorusGrid:
    """Uniform discretization of the flat complex torus.

    Frozen and hashable, so the cached symbols never go stale and a grid
    keys the per-grid caches itself.

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
        """All axes, the axes of every transform."""
        return tuple(range(self.real_dim))

    def rfftn(self, values: np.ndarray) -> np.ndarray:
        """Forward real FFT over all axes, bit for bit scipy.fft.rfftn(values).

        With `irfftn`, the transform seam every package FFT goes through:
        one pocketfft call each, without scipy.fft's per-call dispatch
        (backend lookup, argument normalization), which adds about half
        again to the transform of an n = 1, N = 64 field.  It is the call
        scipy.fft's rfftn ends in, on the same compiled module, which
        `_load_pocketfft` loads without importing scipy's 85 modules
        (scipy 1.17).  values is a
        float64 or float32 array of the grid's shape; the spectrum is
        complex128 or complex64 to match.
        """
        return _r2c(values, self.axes, True, 0, None, 1)

    def irfftn(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of `rfftn`, bit for bit scipy.fft.irfftn(spectrum,
        s=self.shape, axes=self.axes): a fresh real array of the grid's
        shape, float64 or float32 as the spectrum is complex128 or complex64."""
        return _c2r(spectrum, self.axes, self.points_per_axis, False, 2, None, 1)

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
            # fftfreq (rfftfreq on the last axis) by its own operations,
            # without importing numpy's fft module
            if axis == d - 1:
                j = np.arange(n // 2 + 1)
            else:
                j = np.arange(n)
                j[n // 2:] -= n
            w = 2.0 * np.pi * (j * (1.0 / (n * h)))
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

        Each coordinate is first reduced mod L (exact, and the identity on
        [0, L)), so a center any number of periods away is the same point.
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
            cells = np.abs(np.arange(n) - float(x0) % self.period / h)
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
    uhat = grid.rfftn(values)
    return tuple(grid.irfftn(sym * uhat) for sym in grid.hessian_symbols)


def identity_plus_eigenvalues(parts: tuple) -> tuple:
    """Ascending eigenvalues of I + H from `hessian_parts`, closed form.

    One C-contiguous field per eigenvalue slot, in the layout of the parts:
    (1 + h11,) for n = 1 and (lambda_minus, lambda_plus) for n = 2, so
    slots[0] is the smallest eigenvalue at every point.
    """
    if len(parts) == 1:
        return (1.0 + parts[0],)
    h11, h22, re, im = parts
    # mean -+ sqrt(0.25 (a - b)^2 + re^2 + im^2), a = 1 + h11, b = 1 + h22,
    # evaluated in place
    a = 1.0 + h11
    b = 1.0 + h22
    lo = a + b
    lo *= 0.5
    a -= b
    np.square(a, out=a)
    a *= 0.25
    a += np.square(re, out=b)
    a += np.square(im, out=b)
    rad = np.sqrt(a, out=a)
    hi = lo + rad
    lo -= rad
    return lo, hi


def elementary_symmetric(slots, k: int) -> list:
    """[sigma_0, ..., sigma_k] of a sequence of slot arrays (or scalars).

    The recurrence e_j <- e_j + lambda e_{j-1}, one slot at a time from
    e = (1, 0, ..., 0); entries that stay zero are the scalar 0.0.  The
    products with e_0 = 1 and the sums with an e_j still 0 are skipped,
    which changes no bit; every array entry is a fresh array.
    """
    e = [1.0] + [0.0] * k
    for i, lam in enumerate(slots):
        for j in range(min(i + 1, k), 0, -1):
            if j == 1:
                e[1] = e[1] + lam
            elif j > i:
                e[j] = lam * e[j - 1]
            else:
                e[j] = e[j] + lam * e[j - 1]
    return e


def min_admissibility_eigenvalue(field: ScalarField) -> float:
    """Smallest eigenvalue of I + H[field] over all grid points."""
    field.require_finite("field")
    parts = hessian_parts(field.values, field.grid)
    return float(identity_plus_eigenvalues(parts)[0].min())


def complex_laplacian(field: ScalarField) -> np.ndarray:
    """Trace of the complex Hessian, sum_i phi_{i ibar} = (1/4) real Laplacian:
    one irfftn against the grid's `quarter_laplacian_symbol`."""
    grid = field.grid
    return grid.irfftn(grid.quarter_laplacian_symbol * grid.rfftn(field.values))


# ---------------------------------------------------------------------------
# radial mollification kernel


def kernel_second_moment(d: int) -> float:
    """K = int_{R^d} |w|^2 rho(|w|) dV of the unit-scale mollifier rho, the
    (1 - r^2)^3 profile normalized to unit mass in real dimension d.

    Both integrals are Beta functions in r^2: K = B(d/2 + 1, 4) / B(d/2, 4)
    = d / (d + 8), the convexity compensator of the Kiselman-Legendre
    transform.
    """
    return d / (d + 8.0)


def _kernel_on_grid_normalized(grid: TorusGrid, s: float) -> np.ndarray:
    """Discrete kernel max(1 - |w|^2/s^2, 0)^3 centered at the origin,
    renormalized to unit discrete mass, so the continuum constant of the
    profile cancels."""
    k = grid.periodic_distance_sq((0.0,) * grid.real_dim)
    k /= -(s * s)
    k += 1.0
    np.maximum(k, 0.0, out=k)
    k *= k * k
    k /= k.sum() * grid.cell_volume
    return k


# Bytes of kernel transforms kept, least recently used evicted first.  One
# n=2, N=16 Kiselman-Legendre transform uses 16 entries (9 MiB), its scales
# below the grid spacing taking none; an n=2, N=32 entry alone is about
# 9 MiB.
_KERNEL_FFT_CACHE_BYTES = 128 * 2**20
_KERNEL_FFT_CACHE: OrderedDict = OrderedDict()
_KERNEL_FFT_LOCK = threading.Lock()


def _kernel_fft(grid: TorusGrid, s: float) -> np.ndarray:
    key = (grid, float(s))
    with _KERNEL_FFT_LOCK:
        out = _KERNEL_FFT_CACHE.get(key)
        if out is not None:
            _KERNEL_FFT_CACHE.move_to_end(key)
            return out
    out = grid.rfftn(_kernel_on_grid_normalized(grid, s))
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
    copy of the values, with no kernel, transform or cache entry.  If
    fl(h / s) > 1 then h > s, so fl(h * h) >= fl(s * s) by monotone
    rounding; every nonzero periodic offset has |w|^2 >= fl(h * h), so its
    weight max(1 - |w|^2 / s^2, 0)^3 is exactly 0 and the discrete kernel
    is the unit mass at the origin.
    """
    grid = field.grid
    field.require_finite("field")
    fhat = grid.rfftn(field.values)

    def smooth(s: float) -> np.ndarray:
        if not (0.0 < s < grid.period / 2.0):
            raise ValueError(f"kernel radius must lie in (0, L/2), got {s}")
        if grid.spacing / s > 1.0:
            return field.values.copy()
        khat = _kernel_fft(grid, s)
        out = grid.irfftn(fhat * khat)
        out *= grid.cell_volume
        return out

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
