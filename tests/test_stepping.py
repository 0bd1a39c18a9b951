"""The Newton-Krylov operators on the real Hessian components."""

import numpy as np
import pytest

from pmaflow import FlowParams, HessianSymbol, RhsSpec, TorusGrid, solve_hessian_flow
from pmaflow import flow_hessian
from pmaflow.flow_hessian import backward_euler_step, f_eval_grad_arrays
from pmaflow.grid import complex_hessian_matrices, random_admissible_field
from pmaflow.stepping import _fourier_preconditioner, _hessian_trace

CASES = [(1, 16), (2, 8)]


def _random_hermitian(grid, rng):
    n = grid.n_complex
    a = (rng.standard_normal(grid.shape + (n, n))
         + 1j * rng.standard_normal(grid.shape + (n, n)))
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _weights(b):
    """Real weights of a Hermitian field B, in `hessian_parts` order."""
    if b.shape[-1] == 1:
        return (b[..., 0, 0].real,)
    return (b[..., 0, 0].real, b[..., 1, 1].real,
            2.0 * b[..., 0, 1].real, 2.0 * b[..., 0, 1].imag)


def _trace_oracle(b, u, grid):
    """tr(B . H[u]) through the complex tensor view."""
    h = complex_hessian_matrices(u, grid)
    return np.einsum("...ij,...ji->...", b, h).real


@pytest.mark.parametrize("n_complex,N", CASES)
def test_matvec_matches_complex_tensor_trace(n_complex, N):
    grid = TorusGrid(n_complex, N)
    rng = np.random.default_rng(11)
    b = _random_hermitian(grid, rng)
    u = rng.standard_normal(grid.shape)   # white noise, Nyquist modes included
    got = _hessian_trace(u, grid, _weights(b))
    want = _trace_oracle(b, u, grid)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("symbol", [HessianSymbol.det(1), HessianSymbol.det(2),
                                    HessianSymbol.sigma_quotient(2, 2, 1)],
                         ids=lambda s: f"{s.kind}{s.n}")
def test_linearization_weights_match_eigenvector_oracle(symbol):
    """The linearization's weights are those of B = sum_a df/dlambda_a q_a q_a^*."""
    grid = TorusGrid(symbol.n, 16 if symbol.n == 1 else 8)
    rng = np.random.default_rng(12)
    prev = random_admissible_field(grid, rng, margin=0.3).values
    vals = prev - 0.01 * (1.0 + 0.1 * rng.random(grid.shape))
    ef = np.ones(grid.shape)
    _, linearization, _, _ = flow_hessian._hessian_callbacks(
        grid, prev, 0.01, ef, symbol, 1e-8)
    zeroth, weights = linearization(vals)

    eye = np.eye(grid.n_complex)
    lam, q = np.linalg.eigh(complex_hessian_matrices(vals, grid) + eye)
    _, grad = f_eval_grad_arrays(symbol, (prev - vals) / 0.01, lam)
    b = np.einsum("...a,...ia,...ja->...ij", grad[..., 1:], q, np.conj(q))
    assert np.allclose(zeroth, grad[..., 0] / 0.01, rtol=1e-12, atol=0.0)
    for got, want in zip(weights, _weights(b)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("n_complex,N", CASES)
def test_preconditioner_inverts_constant_coefficient_operator(n_complex, N):
    grid = TorusGrid(n_complex, N, period=1.3)
    rng = np.random.default_rng(13)
    zeroth, b = 1.7, 0.6
    u = rng.standard_normal(grid.shape)
    # A u = zeroth u - tr(b I . H[u]) with the matvec's weights
    weights = (np.full(grid.shape, b),) * n_complex + (0.0,) * (2 * n_complex - 2)
    au = zeroth * u - _hessian_trace(u, grid, weights)
    prec = _fourier_preconditioner(grid, zeroth, b)
    back = prec(au.ravel()).reshape(grid.shape)
    assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()

    # full complex FFT oracle with the symbol zeroth + b |k|^2 / 4
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k2 = sum(np.meshgrid(*([k * k] * grid.real_dim), indexing="ij"))
    oracle = np.fft.ifftn(np.fft.fftn(u) / (zeroth + 0.25 * b * k2)).real
    got = prec(u.ravel()).reshape(grid.shape)
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_solve_reuses_converged_hessians(monkeypatch):
    """Outside the Newton state, a solve takes the Hessian of phi_0 only."""
    grid = TorusGrid(1, 16)
    symbol = HessianSymbol.det(1)
    phi0 = random_admissible_field(grid, np.random.default_rng(14), margin=0.4)
    rhs = RhsSpec.smooth_product(lambda x, y: 0.3 * np.cos(2 * np.pi * x),
                                 lambda t: 1.0)
    params = FlowParams(T=0.03, dt=0.01)

    calls = {"parts": 0, "cone": 0}
    parts, cone = flow_hessian.hessian_parts, flow_hessian._cone_arrays

    def counted_parts(*args):
        calls["parts"] += 1
        return parts(*args)

    def counted_cone(*args):
        calls["cone"] += 1
        return cone(*args)

    monkeypatch.setattr(flow_hessian, "hessian_parts", counted_parts)
    monkeypatch.setattr(flow_hessian, "_cone_arrays", counted_cone)
    traj = solve_hessian_flow(phi0, rhs, symbol, params)
    assert calls["parts"] - calls["cone"] == 1

    # the same trajectory as chaining the public one-step function
    current, t = phi0, traj.times
    for k in range(1, traj.n_times):
        current = backward_euler_step(current, t[k] - t[k - 1], rhs.F_field(grid, t[k]),
                                      symbol, params, t=t[k])
        assert np.array_equal(current.values, traj.values[k])
