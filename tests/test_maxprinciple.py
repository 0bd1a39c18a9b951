"""Contact sets and the parabolic Alexandrov inequality on real domains."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmaflow.maxprinciple import (
    _GUARD_BAND,
    HypothesisViolated,
    SpaceTimeGridReal,
    _curvature_nonpositive,
    _det,
    _interior_of,
    _largest_eigenvalue,
    contact_set,
    lieberman_form_check,
    sample_space_time,
)

from oracles import contact_arrays, interior_by_neighbours


def paraboloid(a, center):
    def fn(t, *xs):
        return t - a * sum((x - c) ** 2 for x, c in zip(xs, center))
    return fn


# ---------------------------------------------------------------------------
# contact_set


@pytest.mark.parametrize("m", [1, 2])
def test_paraboloid_cap_exact_integral(m):
    stg = SpaceTimeGridReal(m=m, n_points=33, T=0.5, n_steps=10,
                            domain="ball", ball_radius=0.45)
    u = sample_space_time(stg, paraboloid(1.0, (0.5,) * m))
    rep = contact_set(stg, u)
    # on E everything: d_t u = 1, det(-D^2 u) = 2^m
    mask, _ = contact_arrays(stg, u)
    assert mask[1:, _interior_of(stg.domain_mask())].all()
    expect = 2.0**m * stg.T * rep.domain_volume
    assert rep.integral_value == pytest.approx(expect, rel=1e-12)


def test_decreasing_in_time_empty_contact_set():
    stg = SpaceTimeGridReal(m=2, n_points=21, T=0.3, n_steps=6)
    u = sample_space_time(stg, lambda t, x, y: -t + 0.1 * x)
    rep = contact_set(stg, u)
    assert contact_arrays(stg, u)[0].sum() == 0
    assert rep.integral_value == 0.0
    # supremum attained on the {0} x Omega slice: inequality trivially tight
    assert rep.sup_interior == pytest.approx(rep.sup_parabolic_boundary, abs=1e-14)


def test_contact_set_matches_per_point_oracle():
    stg = SpaceTimeGridReal(m=2, n_points=17, T=0.4, n_steps=5)
    rng = np.random.default_rng(41)
    coef = rng.uniform(-1, 1, size=6)

    def smooth(t, x, y):
        return (np.sin(2 * t + coef[0]) * np.cos(np.pi * x)
                + coef[1] * np.sin(np.pi * y + t) + coef[2] * x * y
                + coef[3] * t * t + coef[4] * (x - 0.5) ** 2 + coef[5])

    u = sample_space_time(stg, smooth)
    rep = contact_set(stg, u)
    mask, _ = contact_arrays(stg, u)

    h, dt = stg.h, stg.dt
    tol = rep.eig_tol
    interior = _interior_of(stg.domain_mask())
    mask_oracle = np.zeros_like(mask)
    integral_oracle = 0.0
    N = stg.n_points
    for k in range(1, stg.n_steps + 1):
        for i in range(N):
            for j in range(N):
                if not interior[i, j]:
                    continue
                if k < stg.n_steps:
                    dudt = (u[k + 1, i, j] - u[k - 1, i, j]) / (2 * dt)
                else:
                    dudt = (u[k, i, j] - u[k - 1, i, j]) / dt
                hxx = (u[k, i + 1, j] - 2 * u[k, i, j] + u[k, i - 1, j]) / h**2
                hyy = (u[k, i, j + 1] - 2 * u[k, i, j] + u[k, i, j - 1]) / h**2
                hxy = (u[k, i + 1, j + 1] - u[k, i + 1, j - 1]
                       - u[k, i - 1, j + 1] + u[k, i - 1, j - 1]) / (4 * h**2)
                eigs = np.linalg.eigvalsh(np.array([[hxx, hxy], [hxy, hyy]]))
                if dudt >= 0.0 and eigs.max() <= tol:
                    mask_oracle[k, i, j] = True
                    integral_oracle += dudt * max(hxx * hyy - hxy**2, 0.0)
    integral_oracle *= h**2 * dt
    assert np.array_equal(mask, mask_oracle)
    assert rep.integral_value == pytest.approx(integral_oracle, rel=1e-10, abs=1e-12)


def _smooth3(seed):
    c = np.random.default_rng(seed).uniform(-1, 1, 6)

    def fn(t, x, y, z):
        return ((0.5 + np.sin(t + c[0]))
                * np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
                + c[1] * x * y + c[2] * np.cos(np.pi * z + t) + c[3] * t * t
                + c[4] * (y - 0.5) ** 2 * z + c[5])
    return fn


def _oracle_points3(stg, u):
    """(k, i, j, l, d_t u, explicit 3x3 difference Hessian) per interior node."""
    h, dt = stg.h, stg.dt
    interior = _interior_of(stg.domain_mask())
    for k in range(1, stg.n_steps + 1):
        for i, j, l in np.argwhere(interior):
            if k < stg.n_steps:
                dudt = (u[k + 1, i, j, l] - u[k - 1, i, j, l]) / (2 * dt)
            else:
                dudt = (u[k, i, j, l] - u[k - 1, i, j, l]) / dt
            v = u[k, i - 1:i + 2, j - 1:j + 2, l - 1:l + 2]

            def at(*steps):
                idx = [1, 1, 1]
                for axis, step in steps:
                    idx[axis] += step
                return v[tuple(idx)]

            hess = np.empty((3, 3))
            for a in range(3):
                hess[a, a] = (at((a, 1)) - 2 * at() + at((a, -1))) / h**2
                for b in range(a + 1, 3):
                    hess[a, b] = hess[b, a] = (
                        at((a, 1), (b, 1)) - at((a, 1), (b, -1))
                        - at((a, -1), (b, 1)) + at((a, -1), (b, -1))) / (4 * h**2)
            yield k, (i, j, l), dudt, hess


def test_contact_set_matches_per_point_oracle_m3():
    stg = SpaceTimeGridReal(m=3, n_points=9, T=0.4, n_steps=4)
    u = sample_space_time(stg, _smooth3(43))
    rep = contact_set(stg, u)
    mask, _ = contact_arrays(stg, u)

    mask_oracle = np.zeros_like(mask)
    integral_oracle = 0.0
    for k, ijl, dudt, hess in _oracle_points3(stg, u):
        if dudt >= 0.0 and np.linalg.eigvalsh(hess).max() <= rep.eig_tol:
            mask_oracle[(k,) + ijl] = True
            integral_oracle += dudt * max(np.linalg.det(-hess), 0.0)
    integral_oracle *= stg.h**3 * stg.dt
    n_points = stg.n_steps * int(_interior_of(stg.domain_mask()).sum())
    assert 0 < mask_oracle.sum() < n_points  # partial contact set
    assert np.array_equal(mask, mask_oracle)
    assert rep.integral_value == pytest.approx(integral_oracle, rel=1e-10)


def _ball3():
    """m = 3 ball data where d_t u takes both signs and E is partial."""
    stg = SpaceTimeGridReal(m=3, n_points=13, T=0.4, n_steps=4,
                            domain="ball", ball_radius=0.45)
    return stg, sample_space_time(stg, _smooth3(47))


def test_contact_set_matches_per_point_oracle_m3_ball():
    stg, u = _ball3()
    rep = contact_set(stg, u)
    mask, integrand = contact_arrays(stg, u)

    mask_oracle = np.zeros_like(mask)
    integrand_oracle = np.zeros_like(integrand)
    rising = falling = 0
    for k, ijl, dudt, hess in _oracle_points3(stg, u):
        rising += dudt >= 0.0
        falling += dudt < 0.0
        if dudt >= 0.0 and np.linalg.eigvalsh(hess).max() <= rep.eig_tol:
            mask_oracle[(k,) + ijl] = True
            # the module's cofactor expansion of det(-D^2 u), entry by entry
            integrand_oracle[(k,) + ijl] = dudt * max(
                -(hess[0, 0] * (hess[1, 1] * hess[2, 2] - hess[1, 2] * hess[2, 1])
                  - hess[0, 1] * (hess[1, 0] * hess[2, 2] - hess[1, 2] * hess[2, 0])
                  + hess[0, 2] * (hess[1, 0] * hess[2, 1] - hess[1, 1] * hess[2, 0])),
                0.0)
    assert rising > 0 and falling > 0
    assert 0 < mask_oracle.sum() < rising     # the curvature test bites too
    assert np.array_equal(mask, mask_oracle)
    assert np.array_equal(integrand, integrand_oracle)
    assert rep.integral_value == pytest.approx(
        integrand_oracle.sum() * stg.h**3 * stg.dt, rel=1e-12)


def test_integrand_nonnegative_on_mask():
    stg = SpaceTimeGridReal(m=2, n_points=25, T=0.3, n_steps=8)
    rng = np.random.default_rng(42)

    def rough(t, x, y):
        return (np.sin(5 * x + 3 * t) * np.cos(4 * y)
                + 0.3 * np.sin(9 * x * y + t))

    u = sample_space_time(stg, rough)
    rep = contact_set(stg, u)
    mask, integrand = contact_arrays(stg, u)
    _, unclamped = contact_arrays(stg, u, clamp=False)
    # the rough data puts points with det(-D^2 u) < 0 on E ...
    assert (unclamped[mask] < 0.0).any()
    # ... and contact_set's integral is the clamped sum, not the raw one
    cell = stg.h**2 * stg.dt
    assert rep.integral_value == pytest.approx(integrand.sum() * cell, rel=1e-12)
    assert rep.integral_value != pytest.approx(unclamped.sum() * cell, rel=1e-6)


def test_mask_stability_under_refinement():
    # smooth u with curved contact boundary; symmetric difference against the
    # exact continuum predicate shrinks with h
    def fn(t, x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * (0.5 + t) - 0.2 * x

    def exact_mask(stg):
        # d_t u = sin sin >= 0 always; D^2 u <= 0 iff on the concave plateau
        x, y = stg.meshgrid()
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        out = np.zeros((stg.n_steps + 1,) + x.shape, dtype=bool)
        for k, t in enumerate(stg.times):
            if k == 0:
                continue
            a = 0.5 + t
            hxx = -np.pi**2 * sx * sy * a
            hyy = hxx
            hxy = np.pi**2 * cx * cy * a
            eig_max = 0.5 * (hxx + hyy) + np.sqrt(0.25 * (hxx - hyy) ** 2 + hxy**2)
            out[k] = (eig_max <= 0.0) & _interior_of(stg.domain_mask())
        return out

    measures = []
    for n_points in (17, 33, 65):
        stg = SpaceTimeGridReal(m=2, n_points=n_points, T=0.25, n_steps=5)
        u = sample_space_time(stg, fn)
        sym_diff = np.logical_xor(contact_arrays(stg, u)[0], exact_mask(stg))
        measures.append(float(sym_diff.sum()) * stg.h**2 * stg.dt)
    assert measures[0] >= measures[1] >= measures[2]


def test_contact_set_rejects_bad_shapes():
    stg = SpaceTimeGridReal(m=1, n_points=11, T=0.1, n_steps=4)
    with pytest.raises(ValueError):
        contact_set(stg, np.zeros((3, 11)))
    with pytest.raises(ValueError):
        contact_set(stg, np.full((5, 11), np.nan))


@pytest.mark.parametrize("name, kwargs", [
    # zip would drop the missing axis and make the ball a cylinder
    ("ball_center", dict(m=3, domain="ball", ball_center=(0.5, 0.5))),
    ("ball_center", dict(m=1, domain="ball", ball_center=0.5)),
    # the squared radius would build the ball of radius 0.45
    ("ball_radius", dict(m=3, domain="ball", ball_radius=-0.45)),
    ("ball_radius", dict(m=2, domain="ball", ball_radius=0.0)),
    # dt = T / n_steps would flip the sign of d_t u
    ("T", dict(m=2, T=-0.4)),
    ("T", dict(m=2, T=0.0)),
])
def test_grid_rejects_what_it_cannot_represent(name, kwargs):
    with pytest.raises(ValueError, match=f"^{name} = "):
        SpaceTimeGridReal(**{"n_points": 9, "T": 0.4, "n_steps": 4, **kwargs})


# ---------------------------------------------------------------------------
# lieberman_form_check


def _cap_data(stg, a):
    m = stg.m
    u = sample_space_time(stg, paraboloid(a, (0.5,) * m))
    shape = (stg.n_steps + 1,) + (stg.n_points,) * m
    a_field = np.broadcast_to(np.eye(m), shape + (m, m)).copy()
    f_field = np.full(shape, -(1.0 + 2.0 * a * m))
    return u, a_field, f_field


def test_lieberman_closed_form_cap():
    stg = SpaceTimeGridReal(m=2, n_points=33, T=0.4, n_steps=8,
                            domain="ball", ball_radius=0.45)
    u, a_field, f_field = _cap_data(stg, 3.0)
    rep = lieberman_form_check(stg, u, a_field, f_field)
    assert rep.hypothesis_violations == 0
    volume = _interior_of(stg.domain_mask()).sum() * stg.h**stg.m
    expect = (1.0 + 2.0 * 3.0 * 2) ** 3 * stg.T * volume
    assert rep.integral_value == pytest.approx(expect, rel=1e-12)
    assert rep.implied_constant > 0.0


def test_lieberman_boundary_max_slack():
    stg = SpaceTimeGridReal(m=2, n_points=21, T=0.3, n_steps=6)
    # decreasing in t: max on the parabolic boundary, implied constant <= 0
    u = sample_space_time(stg, lambda t, x, y: -t + x)
    shape = (stg.n_steps + 1, 21, 21)
    a_field = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    f_field = np.full(shape, -1.0)  # -d_t u + Lap u = 1 >= -1
    rep = lieberman_form_check(stg, u, a_field, f_field)
    assert rep.implied_constant <= 0.0


def test_lieberman_cap_family_spread():
    implied = []
    for a in (2.0, 3.0, 4.0):
        stg = SpaceTimeGridReal(m=2, n_points=33, T=0.4, n_steps=8,
                                domain="ball", ball_radius=0.45)
        u, a_field, f_field = _cap_data(stg, a)
        rep = lieberman_form_check(stg, u, a_field, f_field)
        implied.append(rep.implied_constant)
    assert min(implied) > 0.0
    assert max(implied) / min(implied) <= 3.0


def test_lieberman_rejects_false_hypothesis():
    stg = SpaceTimeGridReal(m=2, n_points=21, T=0.3, n_steps=6)
    u, a_field, _ = _cap_data(stg, 1.0)
    f_field = np.full((stg.n_steps + 1, 21, 21), 10.0)  # inequality false
    with pytest.raises(HypothesisViolated):
        lieberman_form_check(stg, u, a_field, f_field)


def test_lieberman_matches_per_point_oracle_m3():
    stg = SpaceTimeGridReal(m=3, n_points=9, T=0.4, n_steps=4)
    u = sample_space_time(stg, _smooth3(43))
    shape = u.shape
    # symmetric positive, varying in space and time: I + v v^T
    t, x, y, z = np.meshgrid(stg.times, *([stg.axis()] * 3), indexing="ij")
    vec = np.stack([x, y - 0.5, z * (1.0 + t)], axis=-1)
    a_field = np.eye(3) + 0.5 * vec[..., :, None] * vec[..., None, :]

    points = list(_oracle_points3(stg, u))
    f_field = np.zeros(shape)
    for k, ijl, dudt, hess in points:
        lhs = -dudt + float(np.sum(a_field[(k,) + ijl] * hess))
        f_field[(k,) + ijl] = lhs - 1.0
    k0, ijl0, _, _ = points[len(points) // 2]
    f_field[(k0,) + ijl0] += 2.0           # one violated point, under 0.1%
    rep = lieberman_form_check(stg, u, a_field, f_field)

    integral_oracle = 0.0
    for k, ijl, dudt, hess in points:
        if dudt >= 0.0 and np.linalg.eigvalsh(hess).max() <= 10 * stg.h:
            f_minus = max(-f_field[(k,) + ijl], 0.0)
            integral_oracle += f_minus**4 / np.linalg.det(a_field[(k,) + ijl])
    integral_oracle *= stg.h**3 * stg.dt
    assert rep.hypothesis_violations == 1
    assert rep.hypothesis_points == len(points)
    assert integral_oracle > 0.0
    assert rep.integral_value == pytest.approx(integral_oracle, rel=1e-10)


def test_lieberman_matches_per_point_oracle_m3_ball():
    stg, u = _ball3()
    t, x, y, z = np.meshgrid(stg.times, *([stg.axis()] * 3), indexing="ij")
    vec = np.stack([x, y - 0.5, z * (1.0 + t)], axis=-1)
    a_field = np.eye(3) + 0.5 * vec[..., :, None] * vec[..., None, :]

    points = list(_oracle_points3(stg, u))
    f_field = np.zeros(u.shape)
    for k, ijl, dudt, hess in points:
        lhs = -dudt + float(np.sum(a_field[(k,) + ijl] * hess))
        f_field[(k,) + ijl] = lhs - 1.0 + 0.8 * np.sin(7.0 * k + sum(ijl))
    k0, ijl0, _, _ = points[len(points) // 3]
    f_field[(k0,) + ijl0] += 2.0           # one violated point, under 0.1%
    rep = lieberman_form_check(stg, u, a_field, f_field)

    integral_oracle = 0.0
    rising = 0
    for k, ijl, dudt, hess in points:
        rising += dudt >= 0.0
        if dudt >= 0.0 and np.linalg.eigvalsh(hess).max() <= 10 * stg.h:
            f_minus = max(-f_field[(k,) + ijl], 0.0)
            integral_oracle += f_minus**4 / np.linalg.det(a_field[(k,) + ijl])
    integral_oracle *= stg.h**3 * stg.dt
    assert 0 < rising < len(points)
    assert rep.hypothesis_violations == 1
    assert rep.hypothesis_points == len(points)
    assert integral_oracle > 0.0
    assert rep.integral_value == pytest.approx(integral_oracle, rel=1e-10)


def _battery3(a):
    """The `pmaflow maxprinciple --dim 3` grid and cap u = t - a |x - c|^2."""
    stg = SpaceTimeGridReal(m=3, n_points=41, T=0.4, n_steps=16,
                            domain="ball", ball_radius=0.45)
    return stg, sample_space_time(
        stg, lambda t, *xs: t - a * sum((x - 0.5) ** 2 for x in xs))


def _traced_peak(fn):
    """fn()'s result and the peak bytes it allocated beyond what it kept."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_battery_sized_checks_hold_no_full_size_temporaries():
    # d_t u and the Hessian are gathered slice by slice on interior nodes,
    # and the contact integral is summed per slice with no mask or
    # integrand: a full (K+1) x N^3 array of d_t u alone would add u.nbytes
    stg, u = _battery3(1.0)
    _, peak = _traced_peak(lambda: contact_set(stg, u))
    assert peak <= 0.9 * u.nbytes

    stg, u = _battery3(2.0)
    shape = u.shape
    a_field = np.broadcast_to(np.eye(3), shape + (3, 3))
    f_field = np.broadcast_to(-(1.0 + 2.0 * 2.0 * 3), shape)
    rep, peak = _traced_peak(
        lambda: lieberman_form_check(stg, u, a_field, f_field))
    assert rep.hypothesis_violations == 0
    assert peak <= 1.5 * u.nbytes


def _lieberman_inputs():
    stg = SpaceTimeGridReal(m=2, n_points=21, T=0.3, n_steps=6)
    u = sample_space_time(stg, lambda t, x, y: -t + x)
    shape = u.shape
    a_field = np.broadcast_to(np.eye(2), shape + (2, 2))
    f_field = np.broadcast_to(-1.0, shape)
    return stg, u, a_field, f_field


def _nan_at_interior(arr):
    arr = np.array(arr)
    arr[3, 10, 10] = np.nan
    return arr


_BAD_INPUT_MESSAGES = {
    "u_nan": "u contains non-finite",
    "u_slices": (r"u has shape \(5, 21, 21\); the space-time grid expects "
                 r"\(7, 21, 21\)"),
    "a_nan": "a_field contains non-finite values at time index 3",
    "a_shape": r"a_field has shape \(7, 21, 21\)",
    "f_nan": "f_field contains non-finite values at time index 3",
}


@pytest.mark.parametrize("case", list(_BAD_INPUT_MESSAGES))
def test_lieberman_rejects_bad_inputs(case):
    stg, u, a_field, f_field = _lieberman_inputs()
    if case == "u_nan":
        u = _nan_at_interior(u)
    elif case == "u_slices":
        u = u[:5]
    elif case == "a_nan":
        a_field = _nan_at_interior(a_field)
    elif case == "a_shape":
        a_field = a_field[..., 0, 0]
    else:
        f_field = _nan_at_interior(f_field)
    with pytest.raises(ValueError, match=_BAD_INPUT_MESSAGES[case]):
        lieberman_form_check(stg, u, a_field, f_field)


def test_lieberman_accepts_read_only_views():
    stg, u, a_field, f_field = _lieberman_inputs()
    assert not a_field.flags.writeable and not f_field.flags.writeable
    rep = lieberman_form_check(stg, u, a_field, f_field)
    assert rep.hypothesis_violations == 0


@pytest.mark.parametrize("base_shape", [(2, 2), (21, 21, 2, 2)],
                         ids=["one-matrix", "one-slice"])
def test_lieberman_finds_nan_in_a_broadcast_base(base_shape):
    """The finiteness check collapses broadcast axes; a NaN in the base
    appears at every time index, so the first checked one, 1, is named."""
    stg, u, _, f_field = _lieberman_inputs()
    base = np.broadcast_to(np.eye(2), base_shape).copy()
    base[..., 0, 1] = np.nan
    a_field = np.broadcast_to(base, u.shape + (2, 2))
    with pytest.raises(ValueError,
                       match="a_field contains non-finite values at time index 1$"):
        lieberman_form_check(stg, u, a_field, f_field)


def test_lieberman_finds_nan_in_an_ordinary_f_slice():
    """On an ordinary array every slice but slot 0 is checked whole, the
    spatial boundary too, and the earliest bad time index is named."""
    stg, u, a_field, f_field = _lieberman_inputs()
    f_field = np.array(f_field)
    f_field[0, 10, 10] = np.nan                 # slot 0 is not read
    lieberman_form_check(stg, u, a_field, f_field)
    f_field[4, 0, 0] = np.nan                   # a corner, outside the domain
    a_field = np.array(a_field)
    a_field[5, 10, 10, 1, 1] = np.inf
    with pytest.raises(ValueError,
                       match="f_field contains non-finite values at time index 4$"):
        lieberman_form_check(stg, u, a_field, f_field)
    a_field[4, 10, 10, 1, 1] = np.inf           # a tie names a_field, as before
    with pytest.raises(ValueError,
                       match="a_field contains non-finite values at time index 4$"):
        lieberman_form_check(stg, u, a_field, f_field)


def _coefficient_views(stg, case):
    """Broadcast views (a_field, f_field) that store one slice ("constant",
    "space") or one value per slice ("time"); a and f change with k only in
    "time", where a = (1 + t)(I + v v^T / 2) and f = -40 (1 + t)."""
    m = stg.m
    shape = (stg.n_steps + 1,) + (stg.n_points,) * m
    if case == "constant":
        return (np.broadcast_to(np.eye(m), shape + (m, m)),
                np.broadcast_to(-40.0, shape))
    if case == "space":
        v = np.stack(stg.meshgrid(), axis=-1) - 0.5
        a = np.eye(m) + 0.5 * v[..., :, None] * v[..., None, :]
        f = -40.0 - 5.0 * np.sin(7.0 * v.sum(axis=-1))
        return np.broadcast_to(a, shape + (m, m)), np.broadcast_to(f, shape)
    v = np.arange(1.0, m + 1.0) / m
    scale = (1.0 + stg.times).reshape((-1,) + (1,) * m)
    a = scale[..., None, None] * (np.eye(m) + 0.5 * np.outer(v, v))
    return (np.broadcast_to(a, shape + (m, m)),
            np.broadcast_to(-40.0 * scale, shape))


@pytest.mark.parametrize("case", ["constant", "space", "time"])
@pytest.mark.parametrize("m", [2, 3])
def test_lieberman_reads_broadcast_coefficients_like_their_copies(m, case):
    """A slice broadcast over space is read as its one stored value, and any
    other slice is gathered at the interior nodes.  The report equals the
    one for the materialized fields, to the bit."""
    stg = SpaceTimeGridReal(m=m, n_points=21 if m == 2 else 13, T=0.4,
                            n_steps=6, domain="ball", ball_radius=0.45)
    # d_t u changes sign, so E is a proper part of the interior
    u = sample_space_time(stg, lambda t, *xs: (
        np.sin(3.0 * t + xs[0]) - sum((x - 0.5) ** 2 for x in xs)
        + 0.3 * (xs[0] - 0.5) * (xs[-1] - 0.5)))
    a_field, f_field = _coefficient_views(stg, case)
    spatial = slice(1, 1 + m)
    assert (a_field.strides[0] == 0) == (case != "time")
    assert (not any(a_field.strides[spatial])) == (case != "space")
    assert (not any(f_field.strides[spatial])) == (case != "space")

    views = lieberman_form_check(stg, u, a_field, f_field)
    copies = lieberman_form_check(stg, u, a_field.copy(), f_field.copy())
    assert dataclasses.astuple(views) == dataclasses.astuple(copies)
    assert views.hypothesis_violations == 0
    assert 0.0 < views.integral_value
    rising = np.diff(u[:, _interior_of(stg.domain_mask())], axis=0) >= 0.0
    assert 0 < rising.sum() < rising.size


# ---------------------------------------------------------------------------
# closed-form curvature of symmetric 3 x 3 stacks


def _nested(stack):
    return [[stack[:, a, b] for b in range(3)] for a in range(3)]


def _symmetric(eigs, rng):
    """Symmetric stack with the given eigenvalues and random eigenvectors."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigs), 3, 3)))
    stack = (q * eigs[:, None, :]) @ q.transpose(0, 2, 1)
    return 0.5 * (stack + stack.transpose(0, 2, 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), log_scale=st.floats(-6, 6))
def test_closed_forms_match_lapack(seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    sym = scale * rng.uniform(-1, 1, size=(64, 3, 3))
    sym = 0.5 * (sym + sym.transpose(0, 2, 1))
    size = np.abs(sym).max(axis=(1, 2))
    lam = _largest_eigenvalue(_nested(sym))
    assert np.all(np.abs(lam - np.linalg.eigvalsh(sym)[:, -1]) <= 1e-12 * size)
    assert np.all(np.abs(_det(_nested(sym)) - np.linalg.det(sym))
                  <= 1e-12 * size**3)
    general = scale * rng.uniform(-1, 1, size=(64, 3, 3))
    rows = [[general[:, a, b] for b in range(3)] for a in range(3)]
    assert np.all(np.abs(_det(rows) - np.linalg.det(general))
                  <= 1e-12 * np.abs(general).max(axis=(1, 2)) ** 3)
    c = scale * rng.uniform(-1, 1, size=64)
    lam_scalar = _largest_eigenvalue(_nested(c[:, None, None] * np.eye(3)))
    assert np.all(np.abs(lam_scalar - c) <= 1e-12 * np.abs(c))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), log_scale=st.floats(-6, 6),
       tol=st.floats(-1.0, 1.0),
       shape=st.sampled_from(["scalar", "double_top", "double_bottom"]))
def test_contact_decision_matches_eigvalsh_near_tolerance(
        seed, log_scale, tol, shape):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    top = tol + rng.uniform(-1e-9, 1e-9, size=64)   # within 1e-9 of eig_tol
    other = top - scale * rng.uniform(0.1, 2.0, size=64)
    eigs = {"scalar": [top, top, top],
            "double_top": [top, top, other],
            "double_bottom": [top, other, other]}[shape]
    stack = _symmetric(np.stack(eigs, axis=-1), rng)
    decided = _curvature_nonpositive(_nested(stack), tol)
    assert np.array_equal(decided, np.linalg.eigvalsh(stack)[:, -1] <= tol)


def test_guard_band_covers_closed_form_error_at_double_eigenvalue():
    # the closed form's worst case: a doubled top eigenvalue
    rng = np.random.default_rng(5)
    eigs = np.tile([1.0, 1.0, -1.0], (20000, 1))
    stack = _symmetric(eigs, rng)
    err = np.abs(_largest_eigenvalue(_nested(stack))
                 - np.linalg.eigvalsh(stack)[:, -1])
    assert err.max() <= 0.1 * _GUARD_BAND * np.abs(stack).max(axis=(1, 2)).min()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 3), domain=st.sampled_from(["box", "ball"]), data=st.data())
def test_interior_mask_matches_the_neighbour_oracle(m, domain, data):
    """The padded-shift interior is the node-by-node one, on boxes and on
    balls of any centre and radius, off-centre and clipped ones included."""
    n_points = data.draw(st.integers(5, 41 if m < 3 else 21), label="n_points")
    center = tuple(data.draw(st.floats(0.0, 1.0), label="center") for _ in range(m))
    radius = data.draw(st.floats(0.05, 0.8), label="radius")
    stg = SpaceTimeGridReal(m=m, n_points=n_points, T=1.0, n_steps=2, domain=domain,
                            ball_center=center, ball_radius=radius)
    np.testing.assert_array_equal(_interior_of(stg.domain_mask()),
                                  interior_by_neighbours(stg.domain_mask()))
