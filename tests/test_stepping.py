"""The Newton-Krylov operators on the real Hessian components."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, bicgstab

import pmaflow
from pmaflow import FlowParams, HessianSymbol, RhsSpec, TorusGrid, solve_hessian_flow
from pmaflow import cli, flow_hessian, stepping
from pmaflow.cli import RunConfig
from pmaflow.flow_hessian import backward_euler_step, f_eval_grad_arrays
from pmaflow.grid import hessian_parts, random_admissible_field
from pmaflow.flow_hessian import ConeViolation
from pmaflow.stepping import (AdmissibilityLost, FlowError, NewtonDiverged,
                              _forcing_term, _preconditioned_operator)

from oracles import (complex_hessian_matrices, hermitian_weights, slot_fields,
                     trailing_axis)

CASES = [(1, 16), (2, 8)]


def _random_hermitian(grid, rng):
    n = grid.n_complex
    a = (rng.standard_normal(grid.shape + (n, n))
         + 1j * rng.standard_normal(grid.shape + (n, n)))
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def _trace_oracle(b, u, grid):
    """tr(B . H[u]) through the complex tensor view."""
    h = complex_hessian_matrices(u, grid)
    return np.einsum("...ij,...ji->...", b, h).real


@pytest.mark.parametrize("n_complex,N", CASES)
def test_matvec_matches_complex_tensor_trace(n_complex, N):
    """A M^{-1} y = zeroth u - tr(B . H[u]) at u = M^{-1} y."""
    grid = TorusGrid(n_complex, N)
    rng = np.random.default_rng(11)
    b = _random_hermitian(grid, rng)
    zeroth = 1.0 + rng.random(grid.shape)
    y = rng.standard_normal(grid.shape)   # white noise, Nyquist modes included
    apply, precondition = _preconditioned_operator(grid, zeroth, hermitian_weights(b))
    u = precondition(y).reshape(grid.shape)
    got = apply(y).reshape(grid.shape)
    want = zeroth * u - _trace_oracle(b, u, grid)
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
    _, grad = f_eval_grad_arrays(symbol, (prev - vals) / 0.01, slot_fields(lam))
    grad = trailing_axis(grad)
    b = np.einsum("...a,...ia,...ja->...ij", grad[..., 1:], q, np.conj(q))
    assert np.allclose(zeroth, grad[..., 0] / 0.01, rtol=1e-12, atol=0.0)
    for got, want in zip(weights, hermitian_weights(b)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("n_complex,N", CASES)
def test_preconditioner_inverts_constant_coefficient_operator(n_complex, N):
    grid = TorusGrid(n_complex, N, period=1.3)
    rng = np.random.default_rng(13)
    zeroth, b = 1.7, 0.6
    u = rng.standard_normal(grid.shape)
    # A u = zeroth u - tr(b I . H[u]) has constant coefficients, so A = M
    # and the fused operator A M^{-1} is the identity
    weights = (np.full(grid.shape, b),) * n_complex + (0.0,) * (2 * n_complex - 2)
    apply, prec = _preconditioned_operator(grid, np.full(grid.shape, zeroth), weights)
    back = apply(u.ravel()).reshape(grid.shape)
    assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()

    # full complex FFT oracle with the symbol zeroth + b |k|^2 / 4
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.spacing)
    k2 = sum(np.meshgrid(*([k * k] * grid.real_dim), indexing="ij"))
    oracle = np.fft.ifftn(np.fft.fftn(u) / (zeroth + 0.25 * b * k2)).real
    got = prec(u.ravel()).reshape(grid.shape)
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()


def _linearization_at(symbol, N, seed, mode="spectral", dt=0.01):
    """(grid, zeroth, weights) of a Newton iterate near a random admissible field."""
    grid = TorusGrid(symbol.n, N, derivative_mode=mode)
    rng = np.random.default_rng(seed)
    prev = random_admissible_field(grid, rng, margin=0.3).values
    vals = prev - dt * (1.0 + 0.1 * rng.random(grid.shape))
    _, linearization, _, _ = flow_hessian._hessian_callbacks(
        grid, prev, dt, np.ones(grid.shape), symbol, 1e-8)
    return (grid,) + linearization(vals)


def _hermitian_from_weights(weights):
    """The Hermitian field B whose real weights (`hermitian_weights`) these are."""
    if len(weights) == 1:
        return weights[0][..., None, None].astype(complex)
    b11, b22, re2, im2 = weights
    b12 = 0.5 * (re2 + 1j * im2)
    return np.stack([np.stack([b11 + 0j, b12], -1),
                     np.stack([np.conj(b12), b22 + 0j], -1)], -2)


MODES = ["spectral", "finite_difference_2nd"]
N_SYMBOLS = [HessianSymbol.det(1), HessianSymbol.sigma_quotient(2, 2, 1)]


@pytest.mark.parametrize("symbol", [HessianSymbol.det(1),
                                    HessianSymbol.sigma_quotient(2, 2, 1)],
                         ids=lambda s: f"{s.kind}{s.n}")
def test_one_forward_transform_per_operator_application(monkeypatch, forward_transforms,
                                                        symbol):
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 15)
    apply, _ = _preconditioned_operator(grid, zeroth, weights)
    y = np.random.default_rng(16).standard_normal(zeroth.size)
    forward_transforms.clear()
    apply(y)
    assert forward_transforms == [grid.shape]

    # a whole solve: one per application, and one for u = M^{-1} y
    count = _counting_matvecs(monkeypatch)
    forward_transforms.clear()
    _, info = stepping._solve_linearized(grid, zeroth, weights, y.reshape(grid.shape),
                                         1e-10, 400)
    assert info == 0 and count[0] > 0
    assert len(forward_transforms) == count[0] + 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("symbol", N_SYMBOLS, ids=lambda s: f"{s.kind}{s.n}")
def test_n_squared_inverse_transforms_per_operator_application(monkeypatch, symbol,
                                                               mode):
    """tr H[u] comes from M u = y, so an application inverse-transforms u
    and the n^2 - 1 components other than h_nn only; M^{-1} takes one."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8,
                                              15, mode)
    apply, precondition = _preconditioned_operator(grid, zeroth, weights)
    y = np.random.default_rng(16).standard_normal(zeroth.size)
    calls = []
    irfftn = TorusGrid.irfftn

    def counting(self, spectrum):
        calls.append(self.shape)
        return irfftn(self, spectrum)

    monkeypatch.setattr(TorusGrid, "irfftn", counting)
    apply(y)
    assert calls == [grid.shape] * grid.n_complex ** 2
    calls.clear()
    precondition(y)
    assert calls == [grid.shape]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("symbol", [HessianSymbol.det(1), HessianSymbol.det(2),
                                    HessianSymbol.sigma_quotient(2, 2, 1)],
                         ids=lambda s: f"{s.kind}{s.n}")
def test_operator_matches_trace_oracle_at_large_zeroth(symbol, mode):
    """At dt = 0.005 the zeroth-order coefficient f_lambda0/dt is ~200 for
    det and ~80 for sigma_2/sigma_1, so c_u = zeroth - zbar t/bbar cancels;
    the operator still matches zeroth u - tr(B . H[u]) through the complex
    tensor view, at u = M^{-1} y."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8,
                                              19, mode, dt=0.005)
    assert zeroth.mean() > 50.0
    y = np.random.default_rng(20).standard_normal(grid.shape)
    apply, precondition = _preconditioned_operator(grid, zeroth, weights)
    u = precondition(y).reshape(grid.shape)
    got = apply(y).reshape(grid.shape)
    want = zeroth * u - _trace_oracle(_hermitian_from_weights(weights), u, grid)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("b,zeroth", [(-0.5, 1.0), (0.0, 1.0), (1.0, 0.0)],
                         ids=["negative_trace", "zero_trace", "zero_zeroth"])
@pytest.mark.parametrize("n_complex,N", CASES)
def test_non_parabolic_linearization_raises(n_complex, N, b, zeroth):
    grid = TorusGrid(n_complex, N)
    weights = (np.full(grid.shape, b),) * n_complex + (0.0,) * (2 * n_complex - 2)
    with pytest.raises(ValueError, match="linearized operator not parabolic: "
                                         "mean tr B = "):
        _preconditioned_operator(grid, np.full(grid.shape, zeroth), weights)


@pytest.mark.parametrize("symbol", N_SYMBOLS, ids=lambda s: f"{s.kind}{s.n}")
def test_solve_at_forcing_floor_leaves_half_newton_tol(symbol):
    """At eta = newton_tol / (2 |rhs|_2) the true linear residual is at most
    newton_tol / 2 in the max-norm the Newton stopping test uses."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 21)
    params = FlowParams()
    rhs = 1e-7 * np.random.default_rng(22).standard_normal(grid.shape)
    floor = 0.5 * params.newton_tol / float(np.linalg.norm(rhs))
    assert floor > 100 * stepping._LINEAR_RTOL     # the new floor is the one that binds
    delta, info = stepping._solve_linearized(grid, zeroth, weights, rhs, floor,
                                             stepping._LINEAR_MAX_ITER)
    assert info == 0
    trace = sum(w * part for w, part in zip(weights, hessian_parts(delta, grid)))
    assert np.abs(rhs - (zeroth * delta - trace)).max() <= 0.5 * params.newton_tol


@pytest.mark.parametrize("symbol", [HessianSymbol.det(1), HessianSymbol.det(2),
                                    HessianSymbol.sigma_quotient(2, 2, 1)],
                         ids=lambda s: f"{s.kind}{s.n}")
def test_fused_solve_matches_separate_operators(symbol):
    """The fused right-preconditioned solve agrees with BiCGStab given A and
    M separately (the complex-FFT oracle of M) at the same rtol."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 17)
    rhs = np.random.default_rng(18).standard_normal(grid.shape)
    rtol = 1e-10

    def a_op(v):
        u = v.reshape(grid.shape)
        trace = sum(w * part for w, part in zip(weights, hessian_parts(u, grid)))
        return (zeroth * u - trace).ravel()

    n = grid.n_complex
    b_mean = max(float(sum(weights[:n]).mean()) / n, 0.0)
    k = 2 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)
    k2 = sum(np.meshgrid(*([k * k] * grid.real_dim), indexing="ij"))
    symbol_m = float(zeroth.mean()) + 0.25 * b_mean * k2

    def m_inv(v):
        return np.fft.ifftn(np.fft.fftn(v.reshape(grid.shape)) / symbol_m).real.ravel()

    size = rhs.size
    want, info = bicgstab(LinearOperator((size, size), matvec=a_op, dtype=float),
                          rhs.ravel(), x0=m_inv(rhs.ravel()), rtol=rtol, atol=0.0,
                          maxiter=400,
                          M=LinearOperator((size, size), matvec=m_inv, dtype=float))
    assert info == 0
    got, info = stepping._solve_linearized(grid, zeroth, weights, rhs, rtol, 400)
    assert info == 0
    # BiCGStab stops on its recursive residual; the true one stays close
    assert np.linalg.norm(a_op(got) - rhs.ravel()) <= 2 * rtol * np.linalg.norm(rhs)
    assert np.abs(got.ravel() - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# single-precision applications at loose forcing terms

ALL_SYMBOLS = [HessianSymbol.det(1), HessianSymbol.det(2),
               HessianSymbol.sigma_quotient(2, 2, 1)]


@settings(max_examples=40, deadline=None)
@given(symbol=st.sampled_from(ALL_SYMBOLS), mode=st.sampled_from(MODES),
       dt=st.sampled_from([0.01, 0.005]), seed=st.integers(0, 2**32 - 1))
def test_single_precision_application_matches_double(symbol, mode, dt, seed):
    """The float32 operator and M^{-1} agree with the float64 ones to 1e-5
    relative, n = 1 and 2, both derivative modes, and at dt = 0.005, where
    zeroth is large and c_u = zeroth - zbar c_y cancels; both return float64."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8,
                                              seed, mode, dt)
    y = np.random.default_rng(seed).standard_normal(zeroth.size)
    single = _preconditioned_operator(grid, zeroth, weights, np.float32)
    double = _preconditioned_operator(grid, zeroth, weights)
    for op32, op64 in zip(single, double):
        got, want = op32(y), op64(y)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def _recording_transforms(monkeypatch):
    """The input dtypes of the `TorusGrid.rfftn` and `irfftn` calls."""
    calls = []

    def recording(transform):
        def wrapped(self, a):
            calls.append(np.asarray(a).dtype)
            return transform(self, a)
        return wrapped

    monkeypatch.setattr(TorusGrid, "rfftn", recording(TorusGrid.rfftn))
    monkeypatch.setattr(TorusGrid, "irfftn", recording(TorusGrid.irfftn))
    return calls


@pytest.mark.parametrize("symbol", N_SYMBOLS, ids=lambda s: f"{s.kind}{s.n}")
def test_solve_precision_follows_the_forcing_term(monkeypatch, symbol):
    """At rtol >= 1e-4 every transform of a solve is single precision; just
    below it and at the forcing floor every one is double; u is float64."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 23)
    rhs = np.random.default_rng(24).standard_normal(grid.shape)
    floor = 0.5 * FlowParams().newton_tol / float(np.linalg.norm(rhs))
    calls = _recording_transforms(monkeypatch)
    for rtol, real, spectral in [(stepping._SINGLE_PRECISION_RTOL, np.float32, np.complex64),
                                 (0.1, np.float32, np.complex64),
                                 (0.99e-4, np.float64, np.complex128),
                                 (floor, np.float64, np.complex128)]:
        calls.clear()
        delta, info = stepping._solve_linearized(grid, zeroth, weights, rhs, rtol, 400)
        assert info == 0 and delta.dtype == np.float64 and delta.shape == grid.shape
        # one rfftn per application, of a real array; irfftn of its spectrum
        assert len(calls) >= 2 and set(calls) <= {np.dtype(real), np.dtype(spectral)}
        assert np.dtype(real) in calls and np.dtype(spectral) in calls


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=lambda s: f"{s.kind}{s.n}")
@pytest.mark.parametrize("rtol", [1e-1, 1e-2, 1e-3, 1e-4])
def test_single_precision_solve_meets_eta_on_the_double_operator(symbol, rtol):
    """A solve run in float32 still meets its forcing term on the exact
    operator: |rhs - A delta|_2 <= 1.01 eta |rhs|_2, with A delta taken
    through the complex tensor view."""
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 25)
    rhs = np.random.default_rng(26).standard_normal(grid.shape)
    delta, info = stepping._solve_linearized(grid, zeroth, weights, rhs, rtol, 400)
    assert info == 0
    a_delta = zeroth * delta - _trace_oracle(_hermitian_from_weights(weights), delta, grid)
    assert np.linalg.norm(rhs - a_delta) <= 1.01 * rtol * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# the package's BiCGStab: a port of scipy's, bit for bit


def _dominant_operator(size, seed):
    """A random nonsymmetric, strictly diagonally dominant matrix and a b."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a, rng.standard_normal(size)


def _assert_port_matches_scipy(matvec, b, rtol, maxiter):
    """stepping.bicgstab on the named-tuple operator returns scipy's x and
    info exactly, from x0 = b, and leaves b alone; returns the info."""
    size = b.size
    b_before = b.copy()
    got, got_info = stepping.bicgstab(
        stepping._Operator((size, size), np.dtype(float), matvec), b, x0=b,
        rtol=rtol, atol=0.0, maxiter=maxiter)
    want, want_info = bicgstab(LinearOperator((size, size), matvec=matvec,
                                              dtype=float),
                               b, x0=b, rtol=rtol, atol=0.0, maxiter=maxiter)
    assert np.array_equal(b, b_before)
    assert not np.shares_memory(got, b)
    assert got_info == want_info
    assert np.array_equal(got, want)
    return got_info


@pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-8])
@pytest.mark.parametrize("size", [40, 300])
def test_bicgstab_port_matches_scipy_on_dominant_operators(size, rtol):
    a, b = _dominant_operator(size, seed=size)
    assert _assert_port_matches_scipy(lambda v: a @ v, b, rtol, 400) == 0


def test_bicgstab_port_matches_scipy_at_the_iteration_cap():
    a, b = _dominant_operator(300, seed=7)
    assert _assert_port_matches_scipy(lambda v: a @ v, b, 1e-14, 2) == 2


@pytest.mark.parametrize("symbol", [HessianSymbol.det(1),
                                    HessianSymbol.sigma_quotient(2, 2, 1)],
                         ids=lambda s: f"{s.kind}{s.n}")
@pytest.mark.parametrize("rtol", [1e-1, 1e-4, 1e-8])
def test_bicgstab_port_matches_scipy_on_the_fused_operator(symbol, rtol):
    grid, zeroth, weights = _linearization_at(symbol, 16 if symbol.n == 1 else 8, 31)
    apply, _ = _preconditioned_operator(grid, zeroth, weights)
    b = np.random.default_rng(32).standard_normal(zeroth.size)
    assert _assert_port_matches_scipy(apply, b, rtol, 400) == 0


@pytest.mark.parametrize("a,b,info", [
    ([[0.0, 1.0], [2.0, -2.0]], [-2.0, 2.0], -10),   # rho breakdown
    ([[1.0, 1.0], [2.0, 2.0]], [2.0, 2.0], -11),     # omega breakdown (singular)
], ids=["rho", "omega"])
def test_bicgstab_port_matches_scipy_at_breakdowns(a, b, info):
    """rtol = 0 runs an exact solve into scipy's breakdown codes."""
    a = np.array(a)
    assert _assert_port_matches_scipy(lambda v: a @ v, np.array(b), 0.0, 10) == info


def test_bicgstab_port_zero_rhs_returns_a_fresh_zero():
    b = np.zeros(4)
    x, info = stepping.bicgstab(stepping._Operator((4, 4), float, lambda v: v), b,
                                x0=np.ones(4))
    assert info == 0 and np.array_equal(x, b) and x is not b


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


# ---------------------------------------------------------------------------
# inexact Newton: Eisenstat-Walker forcing terms


def test_forcing_term_choice_two():
    floor = 1e-8
    # the first iteration takes eta_0 = |F_0|, capped at _ETA_MAX
    for r in (1.0, 0.05, 1e-3):
        assert _forcing_term(r, None, None, floor) == min(stepping._ETA_MAX, r)
    assert _forcing_term(1e-9, None, None, floor) == floor    # floor beats |F_0|
    assert _forcing_term(1.0, None, None, 0.5) == 0.5
    assert _forcing_term(1e-3, 1e-2, 0.05, floor) == pytest.approx(0.9e-2, rel=1e-14)
    assert _forcing_term(9e-3, 1e-2, 0.05, floor) == 0.1      # capped
    assert _forcing_term(1e-9, 1e-2, 0.05, floor) == floor    # floored
    # the safeguard holds eta up while 0.9 eta_{k-1}^2 > 0.1, then the cap
    assert _forcing_term(1e-5, 1e-2, 0.5, floor) == 0.1
    assert _forcing_term(1e-5, 1e-2, 0.3, floor) == pytest.approx(0.9e-6, rel=1e-14)


def _recording_solves(monkeypatch):
    """Per Newton step, the (max |rhs|, |rhs|_2, eta) of each linearized solve."""
    steps = []
    solve, newton = stepping._solve_linearized, flow_hessian.newton_step

    def recording(grid, zeroth, weights, rhs, rtol, maxiter):
        steps[-1].append((float(np.abs(rhs).max()), float(np.linalg.norm(rhs)), rtol))
        return solve(grid, zeroth, weights, rhs, rtol, maxiter)

    def new_step(*args, **kwargs):
        steps.append([])
        return newton(*args, **kwargs)

    monkeypatch.setattr(stepping, "_solve_linearized", recording)
    monkeypatch.setattr(flow_hessian, "newton_step", new_step)
    return steps


def _sigma_n2_problem():
    grid = TorusGrid(2, 12)
    symbol = HessianSymbol.sigma_quotient(2, 2, 1)
    phi0 = random_admissible_field(grid, np.random.default_rng(5), margin=0.3)
    rhs = RhsSpec.smooth_product(
        lambda x1, y1, x2, y2: 0.4 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
        lambda t: 1.0)
    return phi0, rhs, symbol, FlowParams(T=0.02, dt=0.01)


def test_forcing_sequence_follows_residual_ratios(monkeypatch):
    phi0, rhs, symbol, params = _sigma_n2_problem()
    steps = _recording_solves(monkeypatch)
    solve_hessian_flow(phi0, rhs, symbol, params)
    assert len(steps) == 2
    etas = [eta for step in steps for _, _, eta in step]
    assert all(stepping._LINEAR_RTOL <= eta <= 0.1 for eta in etas)
    assert min(etas) < 1e-3
    for step in steps:
        assert len(step) >= 3
        norm, norm2, eta = step[0]
        assert eta == max(min(norm, 0.1), stepping._LINEAR_RTOL,
                          0.5 * params.newton_tol / norm2)
        for (prev, _, _), (norm, norm2, eta) in zip(step, step[1:]):
            want = max(min(0.9 * (norm / prev) ** 2, 0.1), stepping._LINEAR_RTOL,
                       0.5 * params.newton_tol / norm2)
            assert eta == pytest.approx(want, rel=1e-14)


def test_forcing_floor_keeps_newton_and_solve_counts(monkeypatch):
    """The floor tied to newton_tol skips only the over-solving: the Newton
    iterations (one linear solve each) per step are those of the fixed
    _LINEAR_RTOL floor, on an n=2 Hessian flow and an n=1 Monge-Ampere flow."""
    grid = TorusGrid(1, 32)
    rhs = RhsSpec.smooth_product(lambda x, y: 0.4 * np.cos(2 * np.pi * x),
                                 lambda t: np.exp(-t))
    problems = [(_sigma_n2_problem(), [4, 4]),
                ((grid.constant_field(0.0), rhs, HessianSymbol.det(1),
                  FlowParams(T=0.1, dt=0.01)), [3] * 10)]
    steps = _recording_solves(monkeypatch)
    counts = []
    for args, _ in problems:
        steps.clear()
        solve_hessian_flow(*args)
        counts.append([len(step) for step in steps])

    # the same flows with the floor at _LINEAR_RTOL alone
    linear_rtol = stepping._LINEAR_RTOL
    forcing = stepping._forcing_term
    monkeypatch.setattr(stepping, "_forcing_term",
                        lambda res, prev, eta, floor: forcing(res, prev, eta,
                                                              linear_rtol))
    for (args, pinned), got in zip(problems, counts):
        steps.clear()
        solve_hessian_flow(*args)
        assert got == [len(step) for step in steps] == pinned


def _counting_matvecs(monkeypatch):
    """Count the matvecs of every BiCGStab solve."""
    count = [0]

    def counted(solver):
        def wrapped(A, *args, **kwargs):
            def matvec(v):
                count[0] += 1
                return A.matvec(v)
            return solver(LinearOperator(A.shape, matvec=matvec, dtype=float),
                          *args, **kwargs)
        return wrapped

    monkeypatch.setattr(stepping, "bicgstab", counted(stepping.bicgstab))
    return count


def test_inexact_newton_matches_tight_solves_with_fewer_matvecs(monkeypatch):
    phi0, rhs, symbol, params = _sigma_n2_problem()
    count = _counting_matvecs(monkeypatch)
    inexact = solve_hessian_flow(phi0, rhs, symbol, params)
    inexact_matvecs = count[0]

    count[0] = 0
    monkeypatch.setattr(stepping, "_forcing_term", lambda *args: args[-1])
    tight = solve_hessian_flow(phi0, rhs, symbol, params)
    assert np.abs(inexact.values - tight.values).max() <= 10 * params.newton_tol
    assert inexact_matvecs < count[0]


# The README demo config (`pmaflow estimate --config run.json`).
README_CONFIG = {
    "grid": {"n_complex": 1, "points_per_axis": 64},
    "flow": {"equation": "ma", "T": 1.0, "dt": 0.01},
    "rhs": {"kind": "smooth_product", "spatial_amplitude": 0.4,
            "profile": "decay", "p0": 2.0},
    "estimates": {"entropy_p": 2.0, "beta": 0.25, "alpha0": 1.0},
    "seed": 7,
    "label": "demo",
}


def _solve_readme() -> FlowParams:
    _, _, params = cli._solve(RunConfig.from_dict(README_CONFIG))
    return params


def test_first_forcing_term_is_the_initial_residual(monkeypatch):
    """Each step's first Krylov tolerance on the README config is
    max(floor, min(0.1, |F_0|_inf)); the predictor starts most steps well
    inside 0.1 of the solution, so most first solves are tighter than 0.1."""
    steps = _recording_solves(monkeypatch)
    params = _solve_readme()
    assert len(steps) == 100
    for step in steps:
        norm, norm2, eta = step[0]
        floor = max(stepping._LINEAR_RTOL, 0.5 * params.newton_tol / norm2)
        assert eta == max(floor, min(0.1, norm))
    assert sum(step[0][2] < 0.1 for step in steps) >= 90


def test_newton_and_application_counts_hold(monkeypatch):
    """Work-count guard: the README config's 100-step solve takes 213 Newton
    iterations (one linear solve each; 301 with a fixed first forcing term
    of 0.1) and at most 992 operator applications.  The n=2 sigma problem's
    [4, 4] is pinned by test_forcing_floor_keeps_newton_and_solve_counts."""
    steps = _recording_solves(monkeypatch)
    count = _counting_matvecs(monkeypatch)
    _solve_readme()
    assert sum(len(step) for step in steps) == 213
    assert count[0] <= 992


# The benchmark's n=2 config (`sigma_n2`, config seed 0): N=16, four steps
# of sigma_2/sigma_1 from a seeded random admissible field.
SIGMA_N2_CONFIG = {
    "grid": {"n_complex": 2, "points_per_axis": 16},
    "flow": {"equation": "hessian", "symbol": "sigma_quotient", "k": 2, "l": 1,
             "T": 0.04, "dt": 0.01, "initial_condition": "random_band"},
    "rhs": README_CONFIG["rhs"],
    "estimates": README_CONFIG["estimates"],
    "seed": 0,
    "label": "sigma_n2",
}


@pytest.mark.parametrize("config, solves, applications", [
    (README_CONFIG, 213, 992), (SIGMA_N2_CONFIG, 15, 73)], ids=["readme", "sigma_n2"])
def test_linear_solve_and_application_counts_are_pinned(monkeypatch, config, solves,
                                                        applications):
    """Work-count guard: each linear solve builds one operator, so wrapping
    `_preconditioned_operator` counts the solves and the applications of
    A M^{-1}.  A change to the pointwise layer or to the operator's
    arithmetic that moves either count changes the Newton-Krylov path."""
    counts = {"solves": 0, "applications": 0}
    build = stepping._preconditioned_operator

    def counted(*args, **kwargs):
        counts["solves"] += 1
        apply, precondition = build(*args, **kwargs)

        def counted_apply(y):
            counts["applications"] += 1
            return apply(y)
        return counted_apply, precondition

    monkeypatch.setattr(stepping, "_preconditioned_operator", counted)
    cli._solve(RunConfig.from_dict(config))
    assert counts == {"solves": solves, "applications": applications}


def test_stalled_krylov_solve_names_time_and_forcing(monkeypatch):
    monkeypatch.setattr(stepping, "_LINEAR_MAX_ITER", 1)
    phi0, rhs, symbol, params = _sigma_n2_problem()
    with pytest.raises(NewtonDiverged) as info:
        backward_euler_step(phi0, 0.01, rhs.F_field(phi0.grid, 0.01), symbol,
                            params, t=0.01)
    msg = str(info.value)
    assert "linearized solve stalled" in msg
    assert "t=0.01" in msg and "iteration cap 1" in msg
    assert "Newton iteration" in msg and "eta=" in msg
    assert info.value.t == 0.01


@pytest.mark.parametrize("bicgstab_info,why", [
    (-10, "BiCGStab rho breakdown, info=-10"),
    (-11, "BiCGStab omega breakdown, info=-11"),
    (400, "BiCGStab iteration cap, info=400"),
], ids=["rho", "omega", "cap"])
def test_stalled_krylov_solve_names_method_and_reason(monkeypatch, bicgstab_info, why):
    monkeypatch.setattr(stepping, "bicgstab",
                        lambda A, b, x0=None, **kwargs: (x0, bicgstab_info))
    phi0, rhs, symbol, params = _sigma_n2_problem()
    with pytest.raises(NewtonDiverged) as info:
        backward_euler_step(phi0, 0.01, rhs.F_field(phi0.grid, 0.01), symbol,
                            params, t=0.01)
    assert f"linearized solve stalled ({why}) at Newton iteration 0" in str(info.value)


def test_stalled_krylov_solve_at_the_cap_names_both_caps(monkeypatch):
    monkeypatch.setattr(stepping, "_LINEAR_MAX_ITER", 1)
    phi0, rhs, symbol, params = _sigma_n2_problem()
    with pytest.raises(NewtonDiverged,
                       match=r"BiCGStab iteration cap, info=1\) at Newton "
                             r"iteration \d+ .* and iteration cap 1 "):
        backward_euler_step(phi0, 0.01, rhs.F_field(phi0.grid, 0.01), symbol,
                            params, t=0.01)


_STALL_SCRIPT = """
import json, sys
import numpy as np
from pmaflow import HessianSymbol, NewtonDiverged, RhsSpec, TorusGrid, stepping
from pmaflow.flow_hessian import backward_euler_step
from pmaflow.grid import random_admissible_field
from pmaflow.stepping import FlowParams

grid = TorusGrid(2, 12)
phi0 = random_admissible_field(grid, np.random.default_rng(5), margin=0.3)
rhs = RhsSpec.smooth_product(
    lambda x1, y1, x2, y2: 0.4 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
    lambda t: 1.0)
stepping._LINEAR_MAX_ITER = 1
out = {"message": None}
try:
    backward_euler_step(phi0, 0.01, rhs.F_field(grid, 0.01),
                        HessianSymbol.sigma_quotient(2, 2, 1),
                        FlowParams(T=0.01, dt=0.01), t=0.01)
except NewtonDiverged as exc:
    out["message"] = str(exc)
out["loaded"] = sorted(m for m in sys.modules
                       if m.startswith(("scipy.sparse", "scipy.linalg")))
print(json.dumps(out))
"""


def test_stall_at_the_cap_raises_and_loads_no_scipy_sparse():
    """A BiCGStab solve stopped by the iteration cap raises NewtonDiverged
    with BiCGStab's reason; no other Krylov method runs, so neither
    scipy.sparse nor scipy.linalg is ever imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(pmaflow.__file__).parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = json.loads(subprocess.run([sys.executable, "-c", _STALL_SCRIPT], env=env,
                                    check=True, capture_output=True, text=True).stdout)
    assert out["message"] is not None
    assert "linearized solve stalled (BiCGStab iteration cap, info=1)" in out["message"]
    assert "t=0.01" in out["message"]
    assert out["loaded"] == []


def test_rejected_loose_step_is_solved_again_at_the_floor(monkeypatch):
    """A step solved above the forcing floor that the line search rejects is
    solved once more at the floor, and Newton converges to the step that
    unpatched solves reach."""
    phi0, rhs, symbol, params = _sigma_n2_problem()
    f_next = rhs.F_field(phi0.grid, 0.01)
    want = backward_euler_step(phi0, 0.01, f_next, symbol, params, t=0.01)
    solve = stepping._solve_linearized
    solves = []

    def ascent_when_loose(grid, zeroth, weights, res, rtol, maxiter):
        floor = max(stepping._LINEAR_RTOL,
                    0.5 * params.newton_tol / float(np.linalg.norm(res)))
        solves.append((rtol > floor, float(np.abs(res).max())))
        delta, info = solve(grid, zeroth, weights, res, rtol, maxiter)
        return (-delta if rtol > floor else delta), info

    monkeypatch.setattr(stepping, "_solve_linearized", ascent_when_loose)
    got = backward_euler_step(phi0, 0.01, f_next, symbol, params, t=0.01)
    assert np.abs(got.values - want.values).max() <= 10 * params.newton_tol
    assert solves[0][0]
    for (loose, norm), (loose_next, norm_next) in zip(solves, solves[1:]):
        if loose:   # rejected: the same residual is solved again at the floor
            assert not loose_next and norm_next == norm
    assert not solves[-1][0]


def test_rejected_floor_resolve_is_named(monkeypatch):
    """When the floor re-solve fails the line search too, the message says
    that it was tried."""
    phi0, rhs, symbol, params = _sigma_n2_problem()
    solve = stepping._solve_linearized

    def ascent(*args):
        delta, info = solve(*args)
        return -delta, info

    monkeypatch.setattr(stepping, "_solve_linearized", ascent)
    with pytest.raises(NewtonDiverged, match=r"after the full line-search ladder, "
                                             r"also after a re-solve at the floor "
                                             r"eta=.*\(at flow time t=0\.01\)"):
        backward_euler_step(phi0, 0.01, rhs.F_field(phi0.grid, 0.01), symbol,
                            params, t=0.01)


def test_n2_monge_ampere_on_singular_data_at_n24_solves(monkeypatch):
    """n=2 Monge-Ampere at N=24 on mollified log data (r = 0.05): a loose
    first solve of the last step fails the line search in the max-norm, and
    the floor re-solve finishes the flow with the min phi that tight solves
    reach."""
    steps = _recording_solves(monkeypatch)
    cfg = RunConfig.from_dict({
        "grid": {"n_complex": 2, "points_per_axis": 24},
        "flow": {"equation": "ma", "T": 0.05, "dt": 0.01},
        "rhs": {"kind": "mollified_log_singularity", "strength": 0.3,
                "moll_radius": 0.05, "p0": 2.0}})
    traj, _, _ = cli._solve(cfg)
    assert float(traj.values.min()) == pytest.approx(-0.116730907181697, abs=1e-12)
    resolves = sum(norm == prev for step in steps
                   for (prev, _, _), (norm, _, _) in zip(step, step[1:]))
    assert resolves >= 1


# ---------------------------------------------------------------------------
# one flow-error base


@pytest.mark.parametrize("cls, base, args, kwargs, suffix", [
    (ConeViolation, ValueError, (), {"location": (1, 2), "t": 0.5},
     " (grid location (1, 2)) (at flow time t=0.5)"),
    (ConeViolation, ValueError, (), {"location": (3, 0)}, " (grid location (3, 0))"),
    (ConeViolation, ValueError, (), {}, ""),
    (NewtonDiverged, RuntimeError, (0.01,), {}, " (at flow time t=0.01)"),
    (NewtonDiverged, RuntimeError, (), {}, ""),
    (AdmissibilityLost, RuntimeError, (1.0 / 3.0,), {}, " (at flow time t=0.333333)"),
])
def test_flow_errors_keep_their_class_base_and_suffix(cls, base, args, kwargs, suffix):
    """Each flow error keeps its name and builtin base, and carries .t and
    .location; its message, which a sweep's `error` column shows, ends with
    where the failure happened."""
    exc = cls("no step", *args, **kwargs)
    assert isinstance(exc, FlowError) and isinstance(exc, base)
    assert str(exc) == "no step" + suffix
    assert exc.t == (args[0] if args else kwargs.get("t"))
    assert exc.location == kwargs.get("location")
