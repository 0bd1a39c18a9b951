"""Hessian symbols, structural conditions, and the general flow solver."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from pmaflow import (
    ConeViolation,
    FlowParams,
    HessianSymbol,
    RhsSpec,
    TorusGrid,
    hessian_residual,
    solve_hessian_flow,
    symbol_from_config,
)
from pmaflow import flow_hessian
from pmaflow.flow_hessian import f_eval_grad_arrays
from pmaflow.grid import elementary_symmetric, identity_plus_eigenvalues

from oracles import (ConePoint, comparison_check, eigh_trace_weights, f_eval_grad,
                     hessian_parts_points, slot_fields, structural_check,
                     symbol_degree, trailing_axis)


ALL_SYMBOLS = [
    HessianSymbol.det(1),
    HessianSymbol.det(2),
    HessianSymbol.ma_power(1),
    HessianSymbol.ma_power(2),
    HessianSymbol.lambda0_sigma_k(2, 1),
    HessianSymbol.lambda0_sigma_k(2, 2),
    HessianSymbol.sigma_quotient(2, 2, 1),
    HessianSymbol.full_sigma_k(1, 1),
    HessianSymbol.full_sigma_k(1, 2),
    HessianSymbol.full_sigma_k(2, 2),
    HessianSymbol.full_sigma_k(2, 3),
]
# ids name the constructor each entry was built with: ma_power and
# lambda0_sigma_k build symbols equal to other entries, so ids derived from
# the fields would collide
SYMBOL_IDS = [
    "det-n1-k0-l0", "det-n2-k0-l0", "ma_power-n1-k0-l0", "ma_power-n2-k0-l0",
    "lambda0_sigma_k_power-n2-k1-l0", "lambda0_sigma_k_power-n2-k2-l0",
    "sigma_quotient_power-n2-k2-l1", "full_sigma_k-n1-k1-l0",
    "full_sigma_k-n1-k2-l0", "full_sigma_k-n2-k2-l0", "full_sigma_k-n2-k3-l0",
]


def random_cone_points(n, count, rng):
    pts = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(count, n + 1)))
    return [ConePoint(float(p[0]), tuple(p[1:])) for p in pts]


# ---------------------------------------------------------------------------
# f_eval_grad


def test_ma_power_at_ones_n1():
    val, grad = f_eval_grad(HessianSymbol.ma_power(1), ConePoint(1.0, (1.0,)))
    assert val == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(grad, [0.5, 0.5], atol=1e-14)


def test_full_sigma2_at_ones_n2():
    val, _ = f_eval_grad(HessianSymbol.full_sigma_k(2, 2),
                         ConePoint(1.0, (1.0, 1.0)))
    assert val == pytest.approx(np.sqrt(3.0), rel=1e-14)


def _in_cone(symbol, lam):
    try:
        f_eval_grad(symbol, ConePoint(lam[0], tuple(lam[1:])))
    except ConeViolation:
        return False
    return True


def _negative_slots_from(symbol):
    """First slot of the list Gamma_k constrains when Gamma_k is wider than
    the positive cone (k below the list's length), None otherwise."""
    if symbol.kind == "full_sigma_k" and symbol.k <= symbol.n:
        return 0
    if symbol.kind == "sigma_quotient_power" and symbol.k < symbol.n:
        return 1
    return None


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=SYMBOL_IDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gradient_matches_finite_differences(symbol, data):
    """Central differences at points inside the symbol's cone.

    Where Gamma_k is wider than the positive cone, some draws put one
    negative slot on the list it constrains.  Every point keeps a margin:
    lowering all slots by 0.05 stays inside the cone, which then holds for
    every difference step, since Gamma_k + (positive cone) lies in Gamma_k.
    """
    n = symbol.n
    lam = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n + 1,
                                      max_size=n + 1)))
    first = _negative_slots_from(symbol)
    if first is not None and data.draw(st.booleans()):
        lam[data.draw(st.integers(first, n))] = data.draw(st.floats(-3.0, -0.05))
    assume(_in_cone(symbol, lam - 0.05))
    val, grad = f_eval_grad(symbol, ConePoint(lam[0], tuple(lam[1:])))
    for i in range(n + 1):
        h = 1e-6 * max(abs(lam[i]), 1.0)
        plus = lam.copy()
        plus[i] += h
        minus = lam.copy()
        minus[i] -= h
        vp, _ = f_eval_grad(symbol, ConePoint(plus[0], tuple(plus[1:])))
        vm, _ = f_eval_grad(symbol, ConePoint(minus[0], tuple(minus[1:])))
        fd = (vp - vm) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _sigma_oracle(lams, k, shape):
    """sigma_k as the sum over k-subsets of the slots."""
    return sum((np.prod([lams[i] for i in c], axis=0)
                for c in combinations(range(len(lams)), k)), np.zeros(shape))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sigma_recurrence_matches_subset_sums(data):
    """sigma_k and d sigma_k from the recurrence, against sums over subsets,
    for m <= 3 slots and every k <= m; Gamma_k points may carry one
    negative slot."""
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, m))
    size = data.draw(st.integers(1, 4))
    lams = [np.array(data.draw(st.lists(st.floats(0.05, 10.0), min_size=size,
                                        max_size=size)))
            for _ in range(m)]
    if k < m and data.draw(st.booleans()):
        lams[data.draw(st.integers(0, m - 1))] *= -data.draw(st.floats(0.01, 0.5))
    e = elementary_symmetric(lams, k)
    grad = trailing_axis(flow_hessian._sigma_gradient(tuple(lams), k), (size,))
    assert grad.shape == (size, m)
    scale = max(1.0, float(np.abs(lams).max())) ** k
    for j in range(k + 1):
        assert np.allclose(e[j], _sigma_oracle(lams, j, size), rtol=0.0,
                           atol=1e-13 * scale)
    for i in range(m):
        rest = lams[:i] + lams[i + 1:]
        assert np.allclose(grad[..., i], _sigma_oracle(rest, k - 1, size), rtol=0.0,
                           atol=1e-13 * scale)


def _iterative_rate(symbol, target, eigs):
    """The pointwise monotone Newton iteration for f(r, eigs) = target."""
    r = np.ones_like(target)
    for _ in range(60):
        val, grad = f_eval_grad_arrays(symbol, r, slot_fields(eigs))
        grad = trailing_axis(grad)
        step = (val - target) / np.maximum(grad[..., 0], 1e-300)
        r_new = np.maximum(r - step, 0.5 * r)
        if np.max(np.abs(r_new - r)) <= 1e-14 * np.max(np.abs(r_new)):
            return r_new
        r = r_new
    return r


@pytest.mark.parametrize("symbol", ALL_SYMBOLS,
                         ids=SYMBOL_IDS)
def test_closed_form_rate_matches_newton_iteration(symbol):
    rng = np.random.default_rng(21)
    eigs = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(64, symbol.n)))
    # targets above f(0+, eigs), so every point has a rate r > 0
    f_zero, _ = f_eval_grad_arrays(symbol, np.full(64, 1e-300), slot_fields(eigs))
    target = f_zero + np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=64))
    got = flow_hessian._scalar_rate(symbol, target, slot_fields(eigs))
    want = _iterative_rate(symbol, target, eigs)
    assert np.all(got > 0.0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    val, _ = f_eval_grad_arrays(symbol, got, slot_fields(eigs))
    assert np.allclose(val, target, rtol=1e-13, atol=0.0)


def test_cone_violation_raised():
    with pytest.raises(ConeViolation):
        f_eval_grad(HessianSymbol.ma_power(1), ConePoint(-1.0, (1.0,)))


def test_gamma_k_wider_than_positive_cone():
    # sigma_1 > 0 admits points with one negative slot
    sym = HessianSymbol.full_sigma_k(2, 1)
    val, grad = f_eval_grad(sym, ConePoint(2.0, (2.0, -0.5)))
    assert val == pytest.approx(3.5, abs=1e-14)
    assert np.all(grad > 0.0)


# ---------------------------------------------------------------------------
# structural conditions


@pytest.mark.parametrize("n", [1, 2])
def test_ma_power_c0_at_ones(n):
    sym = HessianSymbol.ma_power(n)
    point = ConePoint(1.0, (1.0,) * n)
    rep = structural_check(sym, [point])
    assert rep.c0_min == pytest.approx((n + 1.0) ** (-(n + 1)), rel=1e-12)


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=SYMBOL_IDS)
def test_structural_report(symbol):
    rng = np.random.default_rng(13)
    rep = structural_check(symbol, random_cone_points(symbol.n, 40, rng))
    assert rep.monotone
    assert rep.symmetric
    assert rep.c0_min > 0.0
    # Euler identity: the quotient equals the homogeneity degree
    assert rep.C0_max == pytest.approx(symbol_degree(symbol), rel=1e-10)


def test_symmetry_exact_permutation():
    sym = HessianSymbol.full_sigma_k(2, 2)
    v1, _ = f_eval_grad(sym, ConePoint(1.0, (2.0, 3.0)))
    v2, _ = f_eval_grad(sym, ConePoint(1.0, (3.0, 2.0)))
    assert v1 == v2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), idx=st.integers(0, len(ALL_SYMBOLS) - 1))
def test_euler_identity_property(seed, idx):
    symbol = ALL_SYMBOLS[idx]
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=symbol.n + 1))
    val, grad = f_eval_grad(symbol, ConePoint(lam[0], tuple(lam[1:])))
    euler = float(np.dot(lam, grad))
    assert euler == pytest.approx(symbol_degree(symbol) * val, rel=1e-9)


# ---------------------------------------------------------------------------
# hessian_residual


def test_residual_trivial_ma_power(grid32):
    sym = HessianSymbol.ma_power(1)
    dt = 0.01
    r = hessian_residual(grid32.constant_field(0.0), grid32.constant_field(-dt),
                         dt, grid32.constant_field(0.0), sym)
    assert np.abs(r.values).max() < 1e-14


def test_residual_flat_matches_root_finder(grid32):
    # spatially flat step: residual zero iff f(lam0, 1..1) = e^F
    sym = HessianSymbol.full_sigma_k(1, 1)
    F_val = 0.9
    lam0 = brentq(lambda r: r + 1.0 - np.exp(F_val), 1e-8, 50.0)
    dt = 0.02
    phi_next = grid32.constant_field(-dt * lam0)
    r = hessian_residual(grid32.constant_field(0.0), phi_next, dt,
                         grid32.constant_field(F_val), sym)
    assert np.abs(r.values).max() < 1e-12


def test_residual_invariant_under_constant_shift(grid32):
    sym = HessianSymbol.ma_power(1)
    x, _ = grid32.meshgrid()
    prev = grid32.scalar_field(0.05 * np.cos(2 * np.pi * x))
    nxt = grid32.scalar_field(prev.values - 0.02)
    f = grid32.constant_field(0.1)
    r1 = hessian_residual(prev, nxt, 0.02, f, sym)
    r2 = hessian_residual(grid32.scalar_field(prev.values + 1.3),
                          grid32.scalar_field(nxt.values + 1.3), 0.02, f, sym)
    assert np.abs(r1.values - r2.values).max() < 1e-12


def test_residual_cone_violation_reports_location(grid32):
    sym = HessianSymbol.ma_power(1)
    phi = grid32.constant_field(0.0)
    with pytest.raises(ConeViolation) as err:
        hessian_residual(phi, grid32.scalar_field(phi.values + 0.01), 0.01,
                         grid32.constant_field(0.0), sym)
    assert err.value.location is not None


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=SYMBOL_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_value_only_evaluation_matches_f_eval_grad_arrays(symbol, data):
    """f = (a + lambda_0 b)^{1/q} against the value of `f_eval_grad_arrays`
    at points inside the symbol's cone, with the negative-slot Gamma_k
    points of the gradient test.  The sigma_k sums may run in another
    order, so the tolerance carries their condition number
    sigma_k(|lambda|) / sigma_k(lambda), which is 1 on the positive cone.
    """
    n = symbol.n
    lam = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n + 1,
                                      max_size=n + 1)))
    first = _negative_slots_from(symbol)
    if first is not None and data.draw(st.booleans()):
        lam[data.draw(st.integers(first, n))] = data.draw(st.floats(-3.0, -0.05))
    assume(_in_cone(symbol, lam))
    lam0, lams = np.array(lam[0]), lam[1:]
    cond = 1.0
    if symbol.kind in ("det", "full_sigma_k"):
        k = symbol.k if symbol.kind == "full_sigma_k" else n + 1
        cond = elementary_symmetric(list(np.abs(lam)), k)[k] \
            / elementary_symmetric(list(lam), k)[k]
    value = flow_hessian._symbol_value(symbol, lam0, slot_fields(lams))
    expected = f_eval_grad_arrays(symbol, lam0, slot_fields(lams))[0]
    assert value == pytest.approx(expected, rel=1e-14 * cond, abs=0.0)


def _definition_oracle(symbol, lam):
    """f(lambda_0, lambda') from the symbol's definition, with every sigma_j
    a sum over subsets: sigma_{n+1}(lambda) for det, sigma_k(lambda)^{1/k}
    for full_sigma_k, and (lambda_0 (sigma_k/sigma_l)(lambda')^{1/(k-l)})^{n/(n+1)}
    for sigma_quotient_power."""
    slots = list(lam)
    if symbol.kind == "det":
        return _sigma_oracle(slots, symbol.n + 1, ())
    if symbol.kind == "full_sigma_k":
        return _sigma_oracle(slots, symbol.k, ()) ** (1.0 / symbol.k)
    k, l = symbol.k, symbol.l
    ratio = _sigma_oracle(slots[1:], k, ()) / _sigma_oracle(slots[1:], l, ())
    return (lam[0] * ratio ** (1.0 / (k - l))) ** (symbol.n / (symbol.n + 1.0))


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=SYMBOL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symbol_value_matches_subset_sum_definition(symbol, data):
    """The value-only evaluation against an oracle that shares no code with
    `_rate_affine_form`, at the cone points of the gradient test.  The
    tolerance carries the condition number sigma_j(|lambda|)/sigma_j(lambda)
    of the sums involved, which is 1 on the positive cone."""
    n = symbol.n
    lam = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n + 1,
                                      max_size=n + 1)))
    first = _negative_slots_from(symbol)
    if first is not None and data.draw(st.booleans()):
        lam[data.draw(st.integers(first, n))] = data.draw(st.floats(-3.0, -0.05))
    assume(_in_cone(symbol, lam))
    if symbol.kind == "sigma_quotient_power":
        slots, orders = lam[1:], (symbol.k, symbol.l)
    else:
        slots, orders = lam, (n + 1 if symbol.kind == "det" else symbol.k,)
    cond = max(float(_sigma_oracle(list(np.abs(slots)), j, ())
                     / _sigma_oracle(list(slots), j, ())) for j in orders)
    value = flow_hessian._symbol_value(symbol, np.array([lam[0]]),
                                       slot_fields(lam[None, 1:]))[0]
    assert value == pytest.approx(_definition_oracle(symbol, lam), rel=1e-13 * cond,
                                  abs=0.0)


@pytest.mark.parametrize("symbol", ALL_SYMBOLS, ids=SYMBOL_IDS)
def test_residuals_never_build_the_gradient(symbol, monkeypatch):
    """`hessian_residual` and the Newton residual callback evaluate the
    symbol's value only: they run with `_sigma_gradient` made to raise."""
    grid = TorusGrid(symbol.n, 8)
    dt = 0.01
    prev = 0.02 * np.cos(2.0 * np.pi * grid.meshgrid()[0])
    nxt = prev - 1.5 * dt
    F = 0.1 * np.sin(2.0 * np.pi * grid.meshgrid()[-1])
    lam0, _, eigs = flow_hessian._cone_arrays(grid, prev, nxt, dt)
    expected = f_eval_grad_arrays(symbol, lam0, eigs)[0] - np.exp(F)

    def forbidden(*args, **kwargs):
        raise AssertionError("a residual evaluation built the gradient")

    monkeypatch.setattr(flow_hessian, "_sigma_gradient", forbidden)
    direct = hessian_residual(grid.scalar_field(prev), grid.scalar_field(nxt), dt,
                              grid.scalar_field(F), symbol).values
    residual, *_ = flow_hessian._hessian_callbacks(grid, prev, dt, np.exp(F),
                                                   symbol, 0.0)
    scale = np.abs(expected).max() + 1.0
    for got in (direct, residual(nxt)):
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14 * scale)


@settings(max_examples=200, deadline=None)
@given(parts=hessian_parts_points(), data=st.data())
def test_trace_weights_match_eigh_oracle(parts, data):
    """The projector weights are those of B = sum_a w_a q_a q_a^* with q_a
    from `np.linalg.eigh`, to the projector formula's eps scale / gap.  At
    degenerate points (gap <= 1e-12 scale; h11 = h22, h12 = 0 among them)
    B is mean(w) I exactly, and no point raises a RuntimeWarning."""
    size = len(parts[0])
    grad = tuple(np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=size,
                                             max_size=size)))
                 for _ in range(2))
    slots = identity_plus_eigenvalues(parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = flow_hessian._trace_weights(parts, slots, grad)
    lam_minus, lam_plus = slots
    gap = lam_plus - lam_minus
    scale = np.maximum(np.abs(lam_plus), np.abs(lam_minus))
    degenerate = gap <= 1e-12 * (scale + 1e-30)
    exact = (parts[0] == parts[1]) & (parts[2] == 0.0) & (parts[3] == 0.0)
    assert np.all(degenerate[exact])
    ok = ~degenerate
    want = eigh_trace_weights(parts, grad)
    tol = 1e-13 * max(float(np.abs(w).max()) for w in grad) * (1.0 + scale[ok] / gap[ok])
    for g, w in zip(got, want):
        assert np.all(np.abs(g[ok] - w[ok]) <= tol)
    mean_w = 0.5 * (grad[1] + grad[0])
    for g in got[:2]:
        assert np.array_equal(g[degenerate], mean_w[degenerate])
    for g in got[2:]:
        assert np.all(g[degenerate] == 0.0)


# ---------------------------------------------------------------------------
# solve_hessian_flow


def test_ma_power_reduces_to_ma_solver(grid32):
    # f = (lam0 det)^{1/(n+1)} = e^F  <=>  lam0 det = e^{(n+1) F}
    rhs = RhsSpec.time_only(lambda t: 0.25 * np.cos(t))
    params = FlowParams(T=0.3, dt=0.03)
    n = grid32.n_complex
    hess_traj = solve_hessian_flow(grid32.constant_field(0.0), rhs,
                                   HessianSymbol.ma_power(n), params)
    ma_traj = solve_hessian_flow(grid32.constant_field(0.0),
                                 RhsSpec(rhs.raw_F, rhs.p0, rhs.scale * (n + 1.0)),
                                 HessianSymbol.det(1), params)
    assert comparison_check(hess_traj, ma_traj) <= 10 * params.newton_tol


def test_ma_power_identical_zero_data(grid32):
    params = FlowParams(T=0.2, dt=0.02)
    hess = solve_hessian_flow(grid32.constant_field(0.0), RhsSpec.zero(),
                              HessianSymbol.ma_power(1), params)
    ma = solve_hessian_flow(grid32.constant_field(0.0), RhsSpec.zero(),
                            HessianSymbol.det(1), params)
    assert comparison_check(hess, ma) <= 10 * params.newton_tol


def test_top_sigma_reproduces_trivial_solution(grid32):
    # sigma_{n+1}(1,..,1)^{1/(n+1)} = 1: trivial solution phi = -t
    sym = HessianSymbol.full_sigma_k(1, 2)
    traj = solve_hessian_flow(grid32.constant_field(0.0), RhsSpec.zero(),
                              sym, FlowParams(T=0.3, dt=0.03))
    exact = -traj.times.reshape(-1, 1, 1)
    assert np.abs(traj.values - exact).max() < 1e-10


@pytest.mark.parametrize("symbol", [HessianSymbol.full_sigma_k(1, 1),
                                    HessianSymbol.ma_power(1),
                                    HessianSymbol.lambda0_sigma_k(1, 1)],
                         ids=["full_sigma_k", "ma_power", "lambda0_sigma_k_power"])
def test_flat_flow_matches_scalar_ode_oracle(grid32, symbol):
    """Spatially flat data solves f(-phi', 1..1) = e^{F(t)}; check vs quadrature."""
    # keep e^F above f(0+, 1..1) so the flat solution stays in the cone
    g_fn = lambda t: 0.3 + 0.2 * np.sin(3.0 * t)
    rhs = RhsSpec.time_only(g_fn)
    dt = 0.02
    params = FlowParams(T=0.4, dt=dt)
    traj = solve_hessian_flow(grid32.constant_field(0.0), rhs, symbol, params)

    ones = np.ones(symbol.n)

    def rate(t):
        target = np.exp(g_fn(t))
        return brentq(
            lambda r: f_eval_grad_arrays(symbol, np.array(r), slot_fields(ones))[0] - target,
            1e-10, 1e4)

    exact = np.array([-quad(rate, 0.0, t, limit=200)[0] for t in traj.times])
    err = np.abs(traj.values - exact.reshape(-1, 1, 1)).max()
    assert err <= 5.0 * dt  # backward Euler is O(dt); constant is modest


def test_cone_preserved_along_flow(grid32):
    x, _ = grid32.meshgrid()
    phi0 = grid32.scalar_field(0.03 * np.cos(2 * np.pi * x))
    # keep e^F above the largest spatial eigenvalue so lambda_0 stays positive
    rhs = RhsSpec.time_only(lambda t: 0.5 + 0.2 * np.sin(t))
    params = FlowParams(T=0.2, dt=0.02)
    sym = HessianSymbol.full_sigma_k(1, 1)
    traj = solve_hessian_flow(phi0, rhs, sym, params)
    from pmaflow import min_admissibility_eigenvalue
    for k in range(1, traj.n_times):
        lam0 = (traj.values[k - 1] - traj.values[k]) / (traj.times[k] - traj.times[k - 1])
        assert lam0.min() >= params.admissibility_floor * (1 - 1e-9)
        assert (min_admissibility_eigenvalue(traj.field_at(k))
                >= params.admissibility_floor * (1 - 1e-6))


def test_axis_swap_symmetry_n2():
    grid = TorusGrid(2, 8)
    rng = np.random.default_rng(17)
    from pmaflow import random_admissible_field
    phi_prev = random_admissible_field(grid, rng, margin=0.3)
    phi_next = grid.scalar_field(phi_prev.values - 0.02)
    f = grid.constant_field(0.0)
    sym = HessianSymbol.full_sigma_k(2, 2)
    r = hessian_residual(phi_prev, phi_next, 0.02, f, sym)
    # swap the two complex axes: (x1,y1,x2,y2) -> (x2,y2,x1,y1)
    swap = lambda v: np.transpose(v, (2, 3, 0, 1))
    phi_prev_s = grid.scalar_field(swap(phi_prev.values))
    phi_next_s = grid.scalar_field(swap(phi_next.values))
    r_s = hessian_residual(phi_prev_s, phi_next_s, 0.02, f, sym)
    assert np.abs(swap(r.values) - r_s.values).max() < 1e-10


def test_rejects_inadmissible_initial_data(grid32):
    x, _ = grid32.meshgrid()
    bad = grid32.scalar_field(0.2 * np.cos(2 * np.pi * x))
    with pytest.raises(ConeViolation):
        solve_hessian_flow(bad, RhsSpec.zero(), HessianSymbol.ma_power(1),
                           FlowParams(T=0.1, dt=0.01))


def test_unreachable_data_names_location_and_time():
    # f(0+, lambda) = sigma_2(lambda')^{1/2} ~ 1 for a near-flat phi_0, so
    # e^F = exp(0.3 cos 2 pi x) < 1 has no admissible rate lambda_0 > 0
    grid = TorusGrid(2, 8)
    x = grid.meshgrid()[0]
    phi0 = grid.scalar_field(0.001 * np.cos(2 * np.pi * x))
    rhs = RhsSpec.smooth_product(lambda *c: 0.3 * np.cos(2 * np.pi * c[0]),
                                 lambda t: 1.0)
    with pytest.raises(ConeViolation) as err:
        solve_hessian_flow(phi0, rhs, HessianSymbol.full_sigma_k(2, 2),
                           FlowParams(T=0.02, dt=0.01))
    assert err.value.t == pytest.approx(0.01)
    assert "t=0.01" in str(err.value)
    assert np.cos(2 * np.pi * x[err.value.location]) <= 1e-12


def test_symbol_config_keys():
    assert symbol_from_config("ma", 1) == HessianSymbol.ma_power(1)
    assert symbol_from_config("l0_sigma_k", 2, k=2) == HessianSymbol.lambda0_sigma_k(2, 2)
    assert symbol_from_config("sigma_quotient", 2, k=2, l=1) \
        == HessianSymbol.sigma_quotient(2, 2, 1)
    assert symbol_from_config("full_sigma_k", 1, k=2) == HessianSymbol.full_sigma_k(1, 2)
    with pytest.raises(ValueError):
        symbol_from_config("nope", 1)
    with pytest.raises(ValueError):
        HessianSymbol.sigma_quotient(2, 1, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_ma_power_is_top_full_sigma_k(n):
    assert HessianSymbol.ma_power(n) == HessianSymbol.full_sigma_k(n, n + 1)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2)])
def test_lambda0_sigma_k_is_quotient_with_l_zero(n, k):
    assert HessianSymbol.lambda0_sigma_k(n, k) == HessianSymbol.sigma_quotient(n, k, 0)


def test_sigma_quotient_config_accepts_l_zero():
    assert symbol_from_config("sigma_quotient", 2, k=2, l=0) \
        == HessianSymbol.lambda0_sigma_k(2, 2)


@pytest.mark.parametrize("kind, n, k", [("ma_power", 1, 0),
                                        ("lambda0_sigma_k_power", 2, 1)])
def test_alias_kinds_are_rejected(kind, n, k):
    with pytest.raises(ValueError, match="unknown symbol kind"):
        HessianSymbol(kind, n, k=k)


def test_ma_power_reduction_n2(grid2d):
    from pmaflow import random_admissible_field
    rng = np.random.default_rng(52)
    phi0 = random_admissible_field(grid2d, rng, margin=0.4)
    rhs = RhsSpec.time_only(lambda t: 0.15 * np.cos(t))
    params = FlowParams(T=0.1, dt=0.025)
    hess = solve_hessian_flow(phi0, rhs, HessianSymbol.ma_power(2), params)
    ma = solve_hessian_flow(phi0, RhsSpec(rhs.raw_F, rhs.p0, rhs.scale * 3.0),
                            HessianSymbol.det(2), params)
    assert comparison_check(hess, ma) <= 10 * params.newton_tol


def test_sigma_symbol_flow_n2_spatial_data(grid2d):
    # sigma_2-based symbol at n = 2 with non-flat data: exercises the
    # eigenframe projector Jacobian with distinct per-point eigenvalues
    from pmaflow import random_admissible_field, min_admissibility_eigenvalue
    rng = np.random.default_rng(61)
    phi0 = random_admissible_field(grid2d, rng, margin=0.5)
    sym = HessianSymbol.lambda0_sigma_k(2, 2)
    rhs = RhsSpec.time_only(lambda t: 0.3 + 0.1 * np.sin(2 * t))
    params = FlowParams(T=0.1, dt=0.025)
    traj = solve_hessian_flow(phi0, rhs, sym, params)
    assert np.diff(traj.values, axis=0).max() <= 10 * params.newton_tol
    assert (min_admissibility_eigenvalue(traj.field_at(traj.n_times - 1))
            >= params.admissibility_floor * (1 - 1e-6))
    # converged residual honors the equation at the final step
    r = hessian_residual(traj.field_at(traj.n_times - 2),
                         traj.field_at(traj.n_times - 1), params.dt,
                         rhs.F_field(grid2d, float(traj.times[-1])), sym)
    assert np.abs(r.values).max() <= params.newton_tol
