"""Grid, quadrature, complex Hessian, and convolution tests."""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pmaflow import (
    FlowParams,
    HessianSymbol,
    RhsSpec,
    ScalarField,
    TorusGrid,
    Trajectory,
    hessian_parts,
    integrate,
    kernel_second_moment,
    load_trajectory,
    random_admissible_field,
    save_trajectory,
    solve_hessian_flow,
)
from pmaflow.grid import identity_plus_eigenvalues, radial_smoother

from oracles import (complex_hessian_matrices, hessian_parts_points,
                     identity_plus_matrices, kernel_by_radius, kernel_profile,
                     trailing_axis)


def band_limited(grid, rng, max_mode=5, n_modes=6):
    coords = grid.meshgrid()
    vals = np.zeros(grid.shape)
    for _ in range(n_modes):
        ks = rng.integers(-max_mode, max_mode + 1, size=grid.real_dim)
        phase = rng.uniform(0, 2 * np.pi)
        amp = rng.uniform(0.1, 1.0)
        arg = sum(2 * np.pi * k * c / grid.period for k, c in zip(ks, coords))
        vals += amp * np.cos(arg + phase)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# integrate


def test_integrate_constant_unit_volume(grid32):
    assert integrate(grid32.constant_field(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_integrate_mean_zero_mode(grid32):
    x, _ = grid32.meshgrid()
    f = grid32.scalar_field(np.sin(2 * np.pi * x))
    assert integrate(f) == pytest.approx(0.0, abs=1e-14)


def test_integrate_matches_riemann_sum_oracle(grid32):
    rng = np.random.default_rng(0)
    f = band_limited(grid32, rng)
    # independent plain Riemann sum over the periodic lattice
    oracle = 0.0
    for v in f.values.ravel():
        oracle += v * grid32.cell_volume
    assert integrate(f) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_integrate_rejects_non_finite(grid32):
    vals = np.zeros(grid32.shape)
    vals[0, 0] = np.nan
    with pytest.raises(ValueError):
        integrate(ScalarField(grid32, vals))


def test_quadrature_exact_below_nyquist(grid32):
    # any single mode below N/2 integrates to exactly zero
    x, y = grid32.meshgrid()
    for k in (1, 5, 15):
        f = grid32.scalar_field(np.cos(2 * np.pi * k * x) + np.sin(2 * np.pi * k * y))
        assert abs(integrate(f)) < 1e-12


# ---------------------------------------------------------------------------
# the transform seam


@pytest.mark.parametrize("real,spectral", [(np.float64, np.complex128),
                                           (np.float32, np.complex64)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("n_complex,N", [(1, 12), (1, 64), (2, 12), (2, 16)])
def test_transform_seam_is_bit_identical_to_scipy_fft(n_complex, N, real, spectral):
    """`TorusGrid.rfftn` and `irfftn`, through which every package FFT goes,
    give scipy.fft's public rfftn and irfftn bit for bit, in either
    precision, on the spectrum of a real field and on any other; the
    spectrum is left as it was."""
    import scipy.fft
    grid = TorusGrid(n_complex, N)
    rng = np.random.default_rng(10 * N + n_complex)
    values = rng.standard_normal(grid.shape).astype(real)
    spectrum = grid.rfftn(values)
    assert spectrum.dtype == spectral
    assert np.array_equal(spectrum, scipy.fft.rfftn(values))
    arbitrary = (rng.standard_normal(spectrum.shape)
                 + 1j * rng.standard_normal(spectrum.shape)).astype(spectral)
    for spec in (spectrum, arbitrary):
        before = spec.copy()
        back = grid.irfftn(spec)
        assert back.dtype == real and back.shape == grid.shape
        assert np.array_equal(back, scipy.fft.irfftn(spec, s=grid.shape, axes=grid.axes))
        assert np.array_equal(spec, before)


# ---------------------------------------------------------------------------
# complex Hessian


@pytest.mark.parametrize("name, value", [
    ("n_complex", 2), ("points_per_axis", 16), ("period", 2.0),
    ("derivative_mode", "finite_difference_2nd")])
def test_grid_fields_cannot_be_assigned(name, value):
    """A grid is frozen, so its cached symbols cannot go stale; equal grids
    hash alike, so a grid keys the per-grid caches itself."""
    grid = TorusGrid(1, 8)
    symbols = grid.hessian_symbols
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(grid, name, value)
    assert grid == TorusGrid(1, 8) and hash(grid) == hash(TorusGrid(1, 8))
    assert grid.hessian_symbols is symbols


def test_hessian_of_constant_is_zero(grid32):
    h = complex_hessian_matrices(grid32.constant_field(3.7).values, grid32)
    assert np.abs(h).max() < 1e-12


def test_hessian_cosine_eigenfunction(grid64):
    x, _ = grid64.meshgrid()
    f = grid64.scalar_field(np.cos(2 * np.pi * x))
    h = complex_hessian_matrices(f.values, grid64)
    expected = -np.pi**2 * np.cos(2 * np.pi * x)
    assert np.abs(h[..., 0, 0].real - expected).max() < 1e-10


def _fd4_second(values, grid, a, b):
    h = grid.spacing

    def d1(v, axis):
        return (-np.roll(v, -2, axis) + 8 * np.roll(v, -1, axis)
                - 8 * np.roll(v, 1, axis) + np.roll(v, 2, axis)) / (12 * h)

    if a == b:
        return (-np.roll(values, -2, a) + 16 * np.roll(values, -1, a)
                - 30 * values + 16 * np.roll(values, 1, a)
                - np.roll(values, 2, a)) / (12 * h**2)
    return d1(d1(values, a), b)


@pytest.mark.parametrize("n_complex,N", [(1, 32), (2, 8)])
def test_hessian_matches_fd4_oracle(n_complex, N):
    rng = np.random.default_rng(1)
    errs = []
    for size in (N, 2 * N):
        grid = TorusGrid(n_complex, size)
        rng_local = np.random.default_rng(1)
        f = band_limited(grid, rng_local, max_mode=2, n_modes=3)
        h = complex_hessian_matrices(f.values, grid)
        n = grid.n_complex
        err = 0.0
        for i in range(n):
            for j in range(i, n):
                re = 0.25 * (_fd4_second(f.values, grid, 2 * i, 2 * j)
                             + _fd4_second(f.values, grid, 2 * i + 1, 2 * j + 1))
                im = 0.25 * (_fd4_second(f.values, grid, 2 * i, 2 * j + 1)
                             - _fd4_second(f.values, grid, 2 * i + 1, 2 * j))
                oracle = re + 1j * im
                err = max(err, float(np.abs(h[..., i, j] - oracle).max()))
        errs.append(err)
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_spectral_vs_finite_difference_order():
    errs = []
    for N in (32, 64):
        spec = TorusGrid(1, N, derivative_mode="spectral")
        fd = TorusGrid(1, N, derivative_mode="finite_difference_2nd")
        x, _ = spec.meshgrid()
        vals = np.cos(2 * np.pi * x) + 0.3 * np.sin(4 * np.pi * x)
        h_spec = complex_hessian_matrices(vals, spec)
        h_fd = complex_hessian_matrices(vals, fd)
        errs.append(float(np.abs(h_spec - h_fd).max()))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_of_zero_hessian(grid32):
    eigs = trailing_axis(identity_plus_eigenvalues(
        hessian_parts(grid32.constant_field(0.0).values, grid32)))
    assert np.allclose(eigs, 1.0, atol=1e-12)


def test_eigenvalues_constant_diagonal_sorted(grid2d):
    a, b = 0.7, -0.2
    zero = np.zeros(grid2d.shape)
    eigs = trailing_axis(identity_plus_eigenvalues((zero + a, zero + b, zero, zero)))
    assert np.allclose(eigs[..., 0], 1 + b, atol=1e-14)
    assert np.allclose(eigs[..., 1], 1 + a, atol=1e-14)


def test_eigenvalues_match_eigvalsh_oracle(grid2d):
    rng = np.random.default_rng(2)
    f = band_limited(grid2d, rng, max_mode=2, n_modes=4)
    eigs = trailing_axis(identity_plus_eigenvalues(hessian_parts(f.values, grid2d)))
    eye = np.eye(2)
    oracle = np.linalg.eigvalsh(complex_hessian_matrices(f.values, grid2d) + eye)
    assert np.abs(eigs - oracle).max() < 1e-10


def test_eigenvalue_trace_identity(grid2d):
    rng = np.random.default_rng(3)
    f = band_limited(grid2d, rng, max_mode=2, n_modes=4)
    eigs = trailing_axis(identity_plus_eigenvalues(hessian_parts(f.values, grid2d)))
    h = complex_hessian_matrices(f.values, grid2d)
    trace = 2.0 + np.trace(h, axis1=-2, axis2=-1).real
    assert np.abs(eigs.sum(axis=-1) - trace).max() < 1e-10


@pytest.mark.parametrize("mode", ["spectral", "finite_difference_2nd"])
@pytest.mark.parametrize("n_complex", [1, 2])
def test_complex_laplacian_is_the_hessian_trace(n_complex, mode):
    """One inverse transform against the quarter-Laplacian symbol gives the
    sum of the diagonal `hessian_parts`, in either derivative mode."""
    from pmaflow.grid import complex_laplacian
    grid = TorusGrid(n_complex, 12, period=1.3, derivative_mode=mode)
    f = band_limited(grid, np.random.default_rng(12), max_mode=3, n_modes=4)
    trace = sum(hessian_parts(f.values, grid)[:n_complex])
    assert np.abs(complex_laplacian(f) - trace).max() <= 1e-12 * np.abs(trace).max()


def test_eigenvalues_ascending(grid2d):
    rng = np.random.default_rng(4)
    f = band_limited(grid2d, rng, max_mode=2, n_modes=4)
    eigs = trailing_axis(identity_plus_eigenvalues(hessian_parts(f.values, grid2d)))
    assert np.all(np.diff(eigs, axis=-1) >= 0.0)


def test_eigenvalues_bit_identical_to_closed_form_expression(grid2d):
    """Evaluated in place, the eigenvalue slots are exactly those of the
    closed-form expression with the radicand 0.25 (a - b)^2 + re^2 + im^2
    summed in that order, and the parts are not written."""
    rng = np.random.default_rng(5)
    f = band_limited(grid2d, rng, max_mode=3, n_modes=6)
    parts = hessian_parts(f.values, grid2d)
    kept = [p.copy() for p in parts]
    eigs = trailing_axis(identity_plus_eigenvalues(parts))
    h11, h22, re, im = kept
    a, b = 1.0 + h11, 1.0 + h22
    mean = 0.5 * (a + b)
    rad = np.sqrt(0.25 * (a - b) ** 2 + re ** 2 + im ** 2)
    assert np.array_equal(eigs, np.stack([mean - rad, mean + rad], axis=-1))
    assert all(np.array_equal(p, k) for p, k in zip(parts, kept))


@settings(max_examples=200, deadline=None)
@given(parts=hessian_parts_points())
def test_eigenvalue_slots_match_eigvalsh(parts):
    """The closed-form slots are the ascending eigenvalues of the 2x2
    Hermitian I + H, to 1e-13 times the largest eigenvalue modulus."""
    slots = identity_plus_eigenvalues(parts)
    oracle = np.linalg.eigvalsh(identity_plus_matrices(parts))
    scale = np.abs(oracle).max(axis=-1)
    assert len(slots) == 2
    assert np.all(slots[0] <= slots[1])
    for got, want in zip(slots, oracle.T):
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


# ---------------------------------------------------------------------------
# radial convolution


def test_convolve_preserves_constants(grid64):
    out = radial_smoother(grid64.constant_field(2.5))(0.1)
    assert np.abs(out - 2.5).max() < 1e-12


def test_convolve_cosine_matches_double_loop_oracle():
    grid = TorusGrid(1, 32)
    x, _ = grid.meshgrid()
    f = grid.scalar_field(np.cos(2 * np.pi * x))
    s = 0.2
    out = radial_smoother(f)(s)

    from pmaflow.grid import _kernel_on_grid_normalized
    kern = _kernel_on_grid_normalized(grid, s)
    N = grid.points_per_axis
    oracle = np.zeros_like(f.values)
    for i in range(N):
        for j in range(N):
            shifted = np.roll(np.roll(f.values, i, axis=0), j, axis=1)
            oracle += kern[i, j] * shifted * grid.cell_volume
    assert np.abs(out - oracle).max() < 1e-10
    # single mode only rescales by the kernel Fourier coefficient
    factor = out.ravel()[np.argmax(np.abs(f.values))] / 1.0
    assert np.abs(out - factor * f.values).max() < 1e-10


def test_convolve_identity_limit():
    grid = TorusGrid(1, 256)
    x, _ = grid.meshgrid()
    f = grid.scalar_field(np.cos(2 * np.pi * x))
    err = [np.abs(radial_smoother(f)(s) - f.values).max()
           for s in (grid.period / 64, grid.period / 128)]
    assert err[1] < err[0]


def test_convolve_mass_preserving(grid64):
    rng = np.random.default_rng(5)
    f = band_limited(grid64, rng)
    out = grid64.scalar_field(radial_smoother(f)(0.15))
    assert integrate(out) == pytest.approx(integrate(f), abs=1e-12)


def test_convolve_positivity(grid64):
    rng = np.random.default_rng(6)
    f = band_limited(grid64, rng)
    f = ScalarField(grid64, f.values - f.values.min())
    out = radial_smoother(f)(0.11)
    assert out.min() >= -1e-12


def test_convolve_rejects_wrapping_kernel(grid64):
    with pytest.raises(ValueError):
        radial_smoother(grid64.constant_field(0.0))(0.5)


def test_radial_smoother_reused_matches_fresh(grid64):
    """One smoother reused across scales, a scale repeated, gives what a
    fresh smoother gives at each scale."""
    f = band_limited(grid64, np.random.default_rng(8))
    smooth = radial_smoother(f)
    for s in (0.02, 0.15, 0.3, 0.02):
        assert np.array_equal(smooth(s), radial_smoother(f)(s))
    for s in (0.0, -0.1, 0.5):
        with pytest.raises(ValueError, match="kernel radius"):
            smooth(s)


def test_radial_smoother_rejects_non_finite_field(grid64):
    values = np.zeros(grid64.shape)
    values[0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        radial_smoother(ScalarField(grid64, values))


# n=2 stops at N=24: an N=64 kernel on the 4-torus is 128 MiB per array
@settings(max_examples=30, deadline=None)
@given(n_complex=st.sampled_from([1, 2]), half_n=st.integers(4, 32),
       fraction=st.one_of(st.none(), st.floats(1e-6, 1.0, exclude_max=True)),
       seed=st.integers(0, 10**6))
def test_sub_grid_scale_is_the_identity(n_complex, half_n, fraction, seed):
    """Below the spacing the kernel is the unit mass at the origin, and
    smooth(s) returns the field's values unchanged."""
    from pmaflow.grid import _kernel_on_grid_normalized
    N = 2 * (half_n if n_complex == 1 else min(half_n, 12))
    grid = TorusGrid(n_complex, N)
    h = grid.spacing
    s = np.nextafter(h, 0.0) if fraction is None else fraction * h
    kern = _kernel_on_grid_normalized(grid, s)
    assert list(zip(*np.nonzero(kern))) == [(0,) * grid.real_dim]
    f = band_limited(grid, np.random.default_rng(seed), max_mode=3)
    assert np.array_equal(radial_smoother(f)(s), f.values)


def test_grid_spacing_scale_takes_the_kernel(grid32):
    """Just above s = h the nearest neighbours enter the kernel, and the
    smoother is the stencil they span."""
    from pmaflow.grid import _kernel_on_grid_normalized
    s = 1.2 * grid32.spacing
    kern = _kernel_on_grid_normalized(grid32, s)
    assert np.count_nonzero(kern) == 2 * grid32.real_dim + 1
    f = band_limited(grid32, np.random.default_rng(10))
    out = radial_smoother(f)(s)
    oracle = sum(kern[i, j] * np.roll(f.values, (i, j), axis=(0, 1))
                 for i, j in zip(*np.nonzero(kern))) * grid32.cell_volume
    assert np.abs(out - oracle).max() < 1e-12
    assert np.abs(out - f.values).max() > 1e-3


def test_sub_grid_smooth_returns_a_fresh_array(grid32):
    f = band_limited(grid32, np.random.default_rng(11))
    before = f.values.copy()
    smooth = radial_smoother(f)
    s = 0.5 * grid32.spacing
    out = smooth(s)
    out += 1.0
    assert np.array_equal(f.values, before)
    assert np.array_equal(smooth(s), before)


def test_sub_grid_scales_leave_the_kernel_cache_alone(monkeypatch):
    from collections import OrderedDict
    from pmaflow import grid as grid_mod
    monkeypatch.setattr(grid_mod, "_KERNEL_FFT_CACHE", OrderedDict())
    grid = TorusGrid(2, 8)
    smooth = grid_mod.radial_smoother(band_limited(grid, np.random.default_rng(12)))
    h = grid.spacing
    for s in (1e-4, 0.3 * h, np.nextafter(h, 0.0)):
        smooth(s)
    assert not grid_mod._KERNEL_FFT_CACHE
    smooth(h)
    assert [key[1] for key in grid_mod._KERNEL_FFT_CACHE] == [h]


def test_kernel_fft_cache_is_bounded_in_bytes(monkeypatch):
    from collections import OrderedDict
    from pmaflow import grid as grid_mod

    grid = TorusGrid(1, 32)
    f = band_limited(grid, np.random.default_rng(7))
    radii = (0.1, 0.15, 0.2, 0.25, 0.1, 0.3)
    expected = [radial_smoother(f)(s) for s in radii]
    entry = grid_mod._kernel_fft(grid, 0.1).nbytes
    bound = int(2.5 * entry)
    monkeypatch.setattr(grid_mod, "_KERNEL_FFT_CACHE", OrderedDict())
    monkeypatch.setattr(grid_mod, "_KERNEL_FFT_CACHE_BYTES", bound)
    cache = grid_mod._KERNEL_FFT_CACHE
    for s, want in zip(radii, expected):
        assert np.array_equal(radial_smoother(f)(s), want)
        assert sum(v.nbytes for v in cache.values()) <= bound
    assert [key[1] for key in cache] == [0.1, 0.3]
    # a hit renews 0.1, so the next miss evicts 0.3, the least recently used
    radial_smoother(f)(0.1)
    radial_smoother(f)(0.25)
    assert [key[1] for key in cache] == [0.1, 0.25]


def test_kernel_fft_cache_bound_holds_under_threads(monkeypatch):
    """The thread-pool sweep shares the cache; eviction must not lose updates."""
    import sys
    import threading
    from collections import OrderedDict
    from pmaflow import grid as grid_mod

    grid = TorusGrid(1, 16)
    f = band_limited(grid, np.random.default_rng(9))
    radii = [0.1 + 0.02 * i for i in range(8)]
    expected = {s: radial_smoother(f)(s) for s in radii}
    bound = int(3.5 * grid_mod._kernel_fft(grid, 0.1).nbytes)
    monkeypatch.setattr(grid_mod, "_KERNEL_FFT_CACHE", OrderedDict())
    monkeypatch.setattr(grid_mod, "_KERNEL_FFT_CACHE_BYTES", bound)
    wrong = []

    def work(offset):
        for i in range(150):
            s = radii[(i + offset) % len(radii)]
            try:
                if not np.array_equal(radial_smoother(f)(s), expected[s]):
                    wrong.append(s)
            except Exception as exc:   # a lost update surfaces as KeyError
                wrong.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    assert sum(v.nbytes for v in grid_mod._KERNEL_FFT_CACHE.values()) <= bound


def test_kernel_normalization_and_moment():
    # closed forms d / (d + 8): K = 1/5 in d = 2, K = 1/3 in d = 4
    assert kernel_second_moment(2) == pytest.approx(0.2, rel=1e-15)
    assert kernel_second_moment(4) == pytest.approx(1.0 / 3.0, rel=1e-15)

    # against adaptive quadrature of the normalized profile c_d (1 - r^2)^3
    from math import gamma
    from scipy.integrate import quad

    for d in (2, 4, 6):
        area = 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)
        c = 1.0 / (area * quad(lambda r: kernel_profile(r) * r ** (d - 1), 0.0, 1.0)[0])
        moment = area * quad(lambda r: c * kernel_profile(r) * r ** (d + 1), 0.0, 1.0)[0]
        assert kernel_second_moment(d) == pytest.approx(moment, rel=1e-12)


# n=2 stops at N=24: an N=64 kernel on the 4-torus is 128 MiB per array
@settings(max_examples=60, deadline=None)
@given(n_complex=st.sampled_from([1, 2]), half_n=st.integers(2, 32),
       period=st.sampled_from([1.0, 2.0 * np.pi, 0.3]), data=st.data())
def test_kernel_matches_the_radius_construction(n_complex, half_n, period, data):
    """The kernel built from squared distances equals the one built from
    the radius, (1 - r^2)^3 for r <= 1 then renormalized, to round-off; it
    is exactly zero wherever |w|^2 >= s^2, and its discrete mass is 1."""
    from pmaflow.grid import _kernel_on_grid_normalized
    N = 2 * (half_n if n_complex == 1 else min(half_n, 12))
    grid = TorusGrid(n_complex, N, period)
    s = data.draw(st.floats(grid.spacing, period / 2.0, exclude_max=True), label="s")
    kern = _kernel_on_grid_normalized(grid, s)
    oracle = kernel_by_radius(grid, s)
    assert np.abs(kern - oracle).max() <= 1e-14 * kern.max()
    d2 = grid.periodic_distance_sq((0.0,) * grid.real_dim)
    assert not kern[d2 >= s * s].any()
    assert kern.sum() * grid.cell_volume == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# hypothesis properties


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-5, 5), seed=st.integers(0, 10**6))
def test_integrate_is_linear_in_shifts(c, seed):
    grid = TorusGrid(1, 16)
    f = band_limited(grid, np.random.default_rng(seed), max_mode=3, n_modes=2)
    lhs = integrate(ScalarField(grid, f.values + c))
    rhs = integrate(f) + c * grid.volume
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_admissible_generator_respects_margin(seed):
    grid = TorusGrid(1, 32)
    rng = np.random.default_rng(seed)
    f = random_admissible_field(grid, rng, margin=0.2)
    from pmaflow import min_admissibility_eigenvalue
    assert min_admissibility_eigenvalue(f) >= 0.2 - 1e-9


@pytest.mark.parametrize("N,period", [(8, 1.0), (12, 2.5), (64, 1.0)])
def test_hessian_symbols_take_numpy_fft_wavenumbers(N, period):
    """The angular wavenumbers behind `hessian_symbols` are 2 pi times
    numpy's fftfreq (rfftfreq on the last axis), bit for bit."""
    grid = TorusGrid(2, N, period)
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k_last = 2.0 * np.pi * np.fft.rfftfreq(N, d=grid.spacing)

    def on(axis, w, odd=False):
        if odd:
            w = np.where(np.arange(len(w)) == N // 2, 0.0, w)
        return w.reshape([-1 if a == axis else 1 for a in range(4)])

    h11, h22, re, _ = grid.hessian_symbols
    assert np.array_equal(h11, 0.25 * (-on(0, k) ** 2 + -on(1, k) ** 2))
    assert np.array_equal(h22, 0.25 * (-on(2, k) ** 2 + -on(3, k_last) ** 2))
    assert np.array_equal(re, 0.25 * (-(on(0, k, True) * on(2, k, True))
                                      + -(on(1, k, True) * on(3, k_last, True))))


@pytest.mark.parametrize("n_complex,N", [(1, 16), (2, 8)])
def test_hessian_parts_match_full_complex_fft(n_complex, N):
    """White noise, Nyquist modes included, against complex fftn/ifftn.

    The reference differentiates on the full Fourier grid with the Nyquist
    wavenumber zeroed in first-derivative factors, then takes the real part.
    """
    grid = TorusGrid(n_complex, N)
    u = np.random.default_rng(8).standard_normal(grid.shape)
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k_odd = np.where(np.arange(N) == N // 2, 0.0, k)
    mesh = np.meshgrid(*([k] * grid.real_dim), indexing="ij")
    mesh_odd = np.meshgrid(*([k_odd] * grid.real_dim), indexing="ij")
    uhat = np.fft.fftn(u)

    def d2(a, b):
        sym = -mesh[a] ** 2 if a == b else -mesh_odd[a] * mesh_odd[b]
        return np.fft.ifftn(sym * uhat).real

    want = [0.25 * (d2(0, 0) + d2(1, 1))]
    if n_complex == 2:
        want += [0.25 * (d2(2, 2) + d2(3, 3)), 0.25 * (d2(0, 2) + d2(1, 3)),
                 0.25 * (d2(0, 3) - d2(1, 2))]
    scale = max(float(np.abs(w).max()) for w in want)
    for got, ref in zip(hessian_parts(u, grid), want):
        assert np.abs(got - ref).max() <= 1e-12 * scale


def _roll_second_derivative(values, h, a, b):
    """The centered three-point (a == b) and four-point (a != b) stencils."""
    if a == b:
        return (np.roll(values, -1, a) - 2.0 * values + np.roll(values, 1, a)) / h**2
    vpp = np.roll(np.roll(values, -1, a), -1, b)
    vpm = np.roll(np.roll(values, -1, a), 1, b)
    vmp = np.roll(np.roll(values, 1, a), -1, b)
    vmm = np.roll(np.roll(values, 1, a), 1, b)
    return (vpp - vpm - vmp + vmm) / (4.0 * h**2)


@pytest.mark.parametrize("n_complex,N", [(1, 16), (2, 8)])
def test_finite_difference_symbols_match_roll_stencils(n_complex, N):
    """Finite-difference mode applies the centered stencils as Fourier
    symbols; white noise, Nyquist modes included."""
    grid = TorusGrid(n_complex, N, period=1.3, derivative_mode="finite_difference_2nd")
    u = np.random.default_rng(9).standard_normal(grid.shape)

    def d2(a, b):
        return _roll_second_derivative(u, grid.spacing, a, b)

    want = [0.25 * (d2(0, 0) + d2(1, 1))]
    if n_complex == 2:
        want += [0.25 * (d2(2, 2) + d2(3, 3)), 0.25 * (d2(0, 2) + d2(1, 3)),
                 0.25 * (d2(0, 3) - d2(1, 2))]
    scale = max(float(np.abs(w).max()) for w in want)
    for got, ref in zip(hessian_parts(u, grid), want):
        assert np.abs(got - ref).max() <= 1e-14 * scale


_MODE = st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2 * np.pi),
                  st.lists(st.integers(-3, 3), min_size=4, max_size=4))


@settings(max_examples=30, deadline=None)
@given(n_complex=st.sampled_from([1, 2]), modes=st.lists(_MODE, min_size=1, max_size=4))
def test_hessian_parts_match_closed_form(n_complex, modes):
    """hessian_parts of a trig polynomial below Nyquist equals its exact Hessian.

    u = sum a cos(2 pi k.x / L + p) has d_a d_b u = -sum a w_a w_b cos(...)
    with w = 2 pi k / L, and H_{ij} = 1/4 [(u_{x_i x_j} + u_{y_i y_j})
    + i (u_{x_i y_j} - u_{y_i x_j})].
    """
    grid = TorusGrid(n_complex, 8 if n_complex == 2 else 16, period=1.7)
    coords = grid.meshgrid()
    d = grid.real_dim
    vals = np.zeros(grid.shape)
    d2 = np.zeros((d, d) + grid.shape)
    for amp, phase, ks in modes:
        w = 2 * np.pi * np.asarray(ks[:d], dtype=float) / grid.period
        c = np.cos(sum(wa * x for wa, x in zip(w, coords)) + phase)
        vals += amp * c
        d2 -= amp * np.einsum("a,b,...->ab...", w, w, c)
    exact = [0.25 * (d2[0, 0] + d2[1, 1])]
    if n_complex == 2:
        exact += [0.25 * (d2[2, 2] + d2[3, 3]), 0.25 * (d2[0, 2] + d2[1, 3]),
                  0.25 * (d2[0, 3] - d2[1, 2])]
    parts = hessian_parts(vals, grid)
    scale = max(1.0, max(float(np.abs(e).max()) for e in exact))
    assert len(parts) == len(exact)
    for got, want in zip(parts, exact):
        assert np.abs(got - want).max() <= 1e-10 * scale
    # the oracles' tensor view is assembled from the same parts
    mats = complex_hessian_matrices(vals, grid)
    assert np.array_equal(mats[..., 0, 0].real, parts[0])
    if n_complex == 2:
        assert np.array_equal(mats[..., 0, 1], parts[2] + 1j * parts[3])
        assert np.array_equal(mats[..., 1, 0], parts[2] - 1j * parts[3])


# ---------------------------------------------------------------------------
# serialization


def test_trajectory_binary_roundtrip(tmp_path, trivial_flow):
    traj = trivial_flow[0]
    path = tmp_path / "traj.bin"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)
    assert back.grid == traj.grid


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.2e-310,
                                 1e300, -1e300])


def _first_step_word(path) -> bytes:
    """The checkpoint's header word after the period: 4 int64, then L."""
    with open(path, "rb") as fh:
        fh.seek(5 * 8)
        return fh.read(8)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trajectory_roundtrip_bit_exact(data):
    """save/load keeps every bit of the grid, times and values; the header
    word after the period holds times[1] - times[0] (0.0 for one time)."""
    n = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([2, 4] if n == 2 else [2, 4, 6, 8]))
    grid = TorusGrid(n, N, period=data.draw(st.floats(0.1, 10.0)))
    steps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=3))
    times = np.cumsum([data.draw(st.floats(-1.0, 1.0))] + steps)
    values = data.draw(hnp.arrays(
        np.float64, (len(times),) + grid.shape,
        elements=st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False,
                                                    allow_infinity=False))))
    traj = Trajectory(grid, times, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traj.bin")
        save_trajectory(traj, path)
        back = load_trajectory(path)
        word = _first_step_word(path)
    assert back.grid == grid
    assert back.times.tobytes() == traj.times.tobytes()
    assert back.values.tobytes() == traj.values.tobytes()
    first = times[1] - times[0] if len(times) > 1 else 0.0
    assert word == np.float64(first).tobytes()


@pytest.mark.parametrize("T, dt", [(1.0, 0.01), (1.0, 0.02), (1.0, 0.005),
                                   (0.04, 0.01), (0.01, 0.01)])
def test_checkpoint_header_holds_the_step(tmp_path, T, dt):
    """A solved trajectory's checkpoint carries the configured dt bit for
    bit in its first-step word, at the (T, dt) pairs the benchmark runs."""
    grid = TorusGrid(1, 8)
    params = FlowParams(T=T, dt=dt)
    traj = solve_hessian_flow(grid.constant_field(0.0), RhsSpec.zero(),
                              HessianSymbol.det(1), params)
    save_trajectory(traj, tmp_path / "traj.bin")
    assert _first_step_word(tmp_path / "traj.bin") == np.float64(params.dt).tobytes()


@pytest.mark.parametrize("damage", ["8_bytes_short", "one_slice_long"])
@pytest.mark.parametrize("kind", ["trajectory"])
def test_load_rejects_wrong_byte_count(tmp_path, trivial_flow, kind, damage):
    traj = trivial_flow[0]
    path = tmp_path / "data.bin"
    save_trajectory(traj, path)
    data = path.read_bytes()
    slice_bytes = 8 * int(np.prod(traj.grid.shape))
    bad = data[:-8] if damage == "8_bytes_short" else data + data[-slice_bytes:]
    path.write_bytes(bad)
    with pytest.raises(ValueError, match=f"holds {len(bad)} bytes; "
                                         f"its header implies {len(data)}"):
        load_trajectory(path)


def _meshgrid_distance_sq(grid, center):
    """The distance recipe on full coordinate arrays: |x - x0| wrapped to
    min(d, L - d), axis by axis."""
    out = np.zeros(grid.shape)
    for c, x0 in zip(grid.meshgrid(), center):
        d = np.abs(c - x0)
        d = np.minimum(d, grid.period - d)
        out += d * d
    return out


@pytest.mark.parametrize("n_complex, N", [(1, 10), (1, 12), (1, 64), (2, 8), (2, 16)])
def test_periodic_distance_from_the_origin_is_even(n_complex, N):
    """From the origin the distances are min(k, N - k) h, bit for bit: the
    squared offsets the kernel was built from, so the kernel is even.  On
    coordinates, L - 9h < h at N = 10, and the kernel took one neighbour
    of the origin but not the other."""
    grid = TorusGrid(n_complex, N)
    d2 = grid.periodic_distance_sq((0.0,) * grid.real_dim)
    k = np.arange(N)
    w = np.where(k <= N // 2, k, k - N) * grid.spacing
    expect = sum((w * w).reshape([-1 if a == ax else 1 for a in range(grid.real_dim)])
                 for ax in range(grid.real_dim))
    np.testing.assert_array_equal(d2, np.broadcast_to(expect, grid.shape))
    mirror = np.roll(np.flip(d2), 1, axis=tuple(range(grid.real_dim)))
    np.testing.assert_array_equal(d2, mirror)


@pytest.mark.parametrize("n_complex, N, center", [
    (1, 12, (0.3, 0.71)), (1, 64, (0.5, 0.5)), (1, 64, (0.0, 0.0)),
    (2, 8, (0.1, 0.9, 0.55, 0.0)), (2, 16, (0.5,) * 4)])
def test_periodic_distance_agrees_with_the_coordinate_recipe(n_complex, N, center):
    """Off the origin the offsets in cells round differently from offsets in
    coordinates, by a few ulps at most; on the benchmark grids (N = 64, and
    N = 16 at n = 2) with dyadic centers both are exact."""
    grid = TorusGrid(n_complex, N)
    d2 = grid.periodic_distance_sq(center)
    expect = _meshgrid_distance_sq(grid, center)
    np.testing.assert_allclose(d2, expect, rtol=1e-14, atol=1e-16)
    if N in (16, 64) and all(c in (0.0, 0.5) for c in center):
        np.testing.assert_array_equal(d2, expect)


def test_periodic_distance_refuses_a_center_of_the_wrong_length():
    """A center with fewer coordinates than real axes once left the others
    unread: at n = 2, (0.5, 0.5) measured the distance to a plane."""
    grid = TorusGrid(2, 8)
    with pytest.raises(ValueError, match="has 2 coordinates; the grid has 4"):
        grid.periodic_distance_sq((0.5, 0.5))


@pytest.mark.parametrize("center", [(2.25, 0.5), (-0.75, 0.5), (0.25, 1.5), (0.25, -2.5)])
def test_periodic_distance_reduces_centers_a_period_or_more_away(center):
    """A center whole periods outside [0, L) is the same point as its
    reduction: bit for bit the distances to (0.25, 0.5).  Wrapping each
    offset once gave (2.25, 0.5) a smallest d^2 of 0.14 at N = 8."""
    grid = TorusGrid(1, 8)
    want = grid.periodic_distance_sq((0.25, 0.5))
    got = grid.periodic_distance_sq(center)
    np.testing.assert_array_equal(got, want)
    assert got.min() == 0.0
