"""Mollification, the Kiselman-Legendre transform, time averages, ball masses."""

import numpy as np
import pytest

from pmaflow import (
    ScalarField,
    TorusGrid,
    Trajectory,
    integrate,
    kernel_second_moment,
    random_admissible_field,
)
from pmaflow import regularize as reg
from pmaflow.grid import complex_laplacian, radial_smoother, spacetime_integral
from pmaflow.regularize import (
    RegularizationParams,
    ball_mass_profile,
    decreasing_holder_from_averages,
    kiselman_legendre,
    theta_scale_bound,
    time_average,
)

from oracles import ball_lower_bound_check


# ---------------------------------------------------------------------------
# mollification (radial_smoother)


def test_mollify_constant(grid64):
    out = radial_smoother(grid64.constant_field(1.5))(0.1)
    assert np.abs(out - 1.5).max() < 1e-12


def test_mollify_l1_gap_order_two(generic_flow):
    traj = generic_flow[0]
    f = traj.field_at(traj.n_times // 2)
    eps = traj.grid.period / 8
    gaps = []
    for e in (eps, eps / 2):
        smoothed = radial_smoother(f)(e)
        gaps.append(integrate(ScalarField(f.grid, np.abs(smoothed - f.values))))
    assert gaps[0] / gaps[1] >= 3.5


def test_mollify_monotone_family(grid64):
    rng = np.random.default_rng(31)
    f = random_admissible_field(grid64, rng, margin=0.3)
    K = kernel_second_moment(grid64.real_dim)
    scales = np.linspace(0.02, 0.2, 10)
    prev = f.values  # s -> 0 limit
    for s in scales:
        cur = radial_smoother(f)(s) + K * s * s
        assert (cur - prev).min() >= -1e-9
        prev = cur


# ---------------------------------------------------------------------------
# kiselman_legendre


def test_kiselman_constant_closed_form(grid64, monkeypatch):
    # with the kernel's own K an interior minimum would need eps > 1.2,
    # beyond L/2, so K is patched to reach one at eps = 0.2
    K, eps, gamma = 8.0, 0.2, 0.5
    monkeypatch.setattr(reg, "kernel_second_moment", lambda d: K)
    params = RegularizationParams(epsilon=eps, gamma=gamma)
    c = 3.0
    out = kiselman_legendre(grid64.constant_field(c), params)
    s_star = min(eps, np.sqrt(eps**gamma / (2.0 * K)))
    expected = (c + K * s_star**2 - K * eps**2
                - eps**gamma * np.log(s_star / eps))
    assert np.abs(out.values - expected).max() < 1e-8


def test_kiselman_sandwich_random_admissible(grid64):
    rng = np.random.default_rng(32)
    K = kernel_second_moment(grid64.real_dim)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    for _ in range(5):
        f = random_admissible_field(grid64, rng, margin=0.25)
        out = kiselman_legendre(f, params)
        upper = radial_smoother(f)(params.epsilon)
        assert (out.values - upper).max() <= 1e-10
        assert (out.values - (f.values - K * params.epsilon**2)).min() >= -1e-10


def test_kiselman_ladder_doubling_stable(grid64, monkeypatch):
    rng = np.random.default_rng(33)
    f = random_admissible_field(grid64, rng, margin=0.3)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    outs = []
    for m in (32, 64):
        monkeypatch.setattr(reg, "_S_SAMPLES", m)
        outs.append(kiselman_legendre(f, params).values)
    assert np.abs(outs[0] - outs[1]).max() < 1e-6


def test_kiselman_rejects_large_epsilon(grid64):
    params = RegularizationParams(epsilon=0.6, gamma=0.5)
    with pytest.raises(ValueError):
        kiselman_legendre(grid64.constant_field(0.0), params)


def _stacked_kiselman_legendre(field, params):
    """Reference transform: every ladder objective stacked, then min/argmin.

    Reads the ladder constants off the module, so a test may patch them."""
    grid = field.grid
    eps = params.epsilon
    K = kernel_second_moment(grid.real_dim)
    log_weight = eps**params.gamma

    def stack(s_values):
        out = np.empty((len(s_values),) + grid.shape)
        for i, s in enumerate(s_values):
            smoothed = radial_smoother(field)(float(s))
            out[i] = (smoothed + K * s * s - K * eps * eps
                      - log_weight * np.log(s / eps))
        return out

    ladder = np.geomspace(eps * reg._LADDER_FLOOR, eps, reg._S_SAMPLES)
    objective = stack(ladder)
    best = objective.min(axis=0)
    s_best = ladder[objective.argmin(axis=0)]
    log_gap = np.log(ladder[1] / ladder[0])
    for _ in range(reg._REFINE_ROUNDS):
        uniq, counts = np.unique(s_best, return_counts=True)
        if len(uniq) > 16:
            uniq = uniq[np.argsort(counts)[-16:]]
        children = []
        for s0 in uniq:
            for m in (-2.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0):
                s_new = s0 * np.exp(m * log_gap)
                if eps * reg._LADDER_FLOOR * 0.5 <= s_new <= eps:
                    children.append(s_new)
        if not children:
            break
        children = np.unique(np.asarray(children))
        objective = stack(children)
        for i, s_new in enumerate(children):
            better = objective[i] < best
            best = np.where(better, objective[i], best)
            s_best = np.where(better, s_new, s_best)
        log_gap /= 3.0
    return best


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
@pytest.mark.parametrize("refine_rounds", [reg._REFINE_ROUNDS, 0],
                         ids=["default", "no_refine"])
def test_kiselman_matches_stacked_oracle(n, N, refine_rounds, monkeypatch):
    monkeypatch.setattr(reg, "_REFINE_ROUNDS", refine_rounds)
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(40 + n)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    for _ in range(2):
        f = random_admissible_field(grid, rng, margin=0.3)
        np.testing.assert_array_equal(kiselman_legendre(f, params).values,
                                      _stacked_kiselman_legendre(f, params))


@pytest.mark.parametrize("s_samples", [4, 32, 96])
def test_kiselman_one_forward_transform_per_call(forward_transforms, s_samples,
                                                 monkeypatch):
    monkeypatch.setattr(reg, "_S_SAMPLES", s_samples)
    grid = TorusGrid(1, 32)
    f = random_admissible_field(grid, np.random.default_rng(41), margin=0.3)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    kiselman_legendre(f, params)   # warm the kernel-transform cache
    forward_transforms.clear()
    kiselman_legendre(f, params)
    assert forward_transforms == [grid.shape]


def _fft_smoother(field):
    """Reference smoother: every scale, sub-grid ones too, through the kernel
    transform."""
    import scipy.fft
    from pmaflow.grid import _kernel_fft
    grid = field.grid
    fhat = scipy.fft.rfftn(field.values)

    def smooth(s):
        khat = _kernel_fft(grid, s)
        return scipy.fft.irfftn(fhat * khat, s=grid.shape,
                                axes=grid.axes) * grid.cell_volume

    return smooth


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_kiselman_matches_the_all_transform_oracle(n, N):
    grid = TorusGrid(n, N)
    f = random_admissible_field(grid, np.random.default_rng(46 + n), margin=0.3)
    before = f.values.copy()
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    out = kiselman_legendre(f, params).values
    assert np.array_equal(f.values, before)
    oracle = kiselman_legendre(f, params, smooth=_fft_smoother(f))
    assert np.abs(out - oracle.values).max() < 1e-12


def test_kiselman_inverse_transforms_only_at_resolved_scales(monkeypatch):
    """One n=2, N=16 transform: one inverse FFT per evaluated scale >= h."""
    grid = TorusGrid(2, 16)
    f = random_admissible_field(grid, np.random.default_rng(47), margin=0.3)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    smooth = radial_smoother(f)
    scales = []

    def recording(s):
        scales.append(s)
        return smooth(s)

    inverse = []
    irfftn = TorusGrid.irfftn

    def counting(self, spectrum):
        inverse.append(1)
        return irfftn(self, spectrum)

    monkeypatch.setattr(TorusGrid, "irfftn", counting)
    kiselman_legendre(f, params, smooth=recording)
    resolved = [s for s in scales if s >= grid.spacing]
    assert 0 < len(resolved) < len(scales)
    assert len(inverse) == len(resolved)


def test_fold_scales_keeps_first_minimum_like_argmin():
    from pmaflow.regularize import _fold_scales
    rng = np.random.default_rng(45)
    scales = np.geomspace(0.01, 0.2, 9)
    table = {s: rng.integers(0, 3, size=50).astype(float) for s in scales}
    stacked = np.stack([table[s] for s in scales])
    best = np.full(50, np.inf)
    s_best = np.zeros(50)
    # K = 0 and no log weight: the objective is the smoothed value, ties abound
    _fold_scales(lambda s: table[s].copy(), scales, 0.0, 0.2, 0.0, best, s_best)
    np.testing.assert_array_equal(best, stacked.min(axis=0))
    np.testing.assert_array_equal(s_best, scales[stacked.argmin(axis=0)])


def test_kiselman_rejects_non_finite_field(grid32):
    values = np.zeros(grid32.shape)
    values[3, 5] = np.nan
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    with pytest.raises(ValueError, match="field contains non-finite values"):
        kiselman_legendre(ScalarField(grid32, values), params)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 8)])
def test_kiselman_memory_independent_of_ladder_length(n, N, monkeypatch):
    """The ladder is folded into a running minimum, never stacked."""
    import tracemalloc

    grid = TorusGrid(n, N)
    f = random_admissible_field(grid, np.random.default_rng(42), margin=0.3)
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    peaks = []
    for s_samples in (32, 128):
        monkeypatch.setattr(reg, "_S_SAMPLES", s_samples)
        kiselman_legendre(f, params)   # warm the kernel-transform cache
        tracemalloc.start()
        try:
            kiselman_legendre(f, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field_bytes = f.values.nbytes
    assert peaks[0] <= 12 * field_bytes
    assert peaks[1] <= peaks[0] + field_bytes


# ---------------------------------------------------------------------------
# theta_scale_bound


def test_theta_bound_constant_field(grid64):
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    f = grid64.constant_field(2.0)
    traj = Trajectory(grid64, np.array([0.0, 1.0]),
                      np.stack([f.values, f.values]))
    out = theta_scale_bound(traj, params, measured_gap=0.0)
    assert out["sup_gap"] == pytest.approx(0.0, abs=1e-12)
    assert out["sup_gap"] <= out["contract_bound"] + 1e-12


def test_theta_bound_trivial_flow(trivial_flow):
    traj = trivial_flow[0]
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    out = theta_scale_bound(traj, params, measured_gap=0.0)
    # spatially flat: mollification is the identity
    assert out["sup_gap"] == pytest.approx(0.0, abs=1e-12)


def test_theta_bound_contract_on_flow_output(generic_flow):
    traj = generic_flow[0]
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    gap = -np.inf
    for k in range(traj.n_times):
        out_k = kiselman_legendre(traj.field_at(k), params)
        gap = max(gap, float((out_k.values - traj.values[k]).max()))
    out = theta_scale_bound(traj, params, measured_gap=gap)
    assert out["sup_gap"] <= out["contract_bound"] + 1e-10


def test_theta_bound_matches_direct_evaluation(generic_flow):
    traj = generic_flow[0]
    params = RegularizationParams(epsilon=0.125, gamma=0.5)
    out = theta_scale_bound(traj, params, measured_gap=0.05)
    theta = out["theta_used"]
    direct = max(
        float((radial_smoother(traj.field_at(k))(theta * params.epsilon)
               - traj.values[k]).max())
        for k in range(traj.n_times))
    assert out["sup_gap"] == pytest.approx(direct, abs=1e-14)


# ---------------------------------------------------------------------------
# time_average


def test_time_average_trivial_flow_closed_form(trivial_flow):
    traj = trivial_flow[0]
    eps = 0.1
    avg = time_average(traj, eps)
    t = traj.times
    inside = t >= eps
    expected = np.where(inside, -t + eps / 2.0, -t**2 / (2 * eps))
    got = avg.values[:, 0, 0]
    assert np.abs(got - expected).max() < 1e-12
    # L1 distance closed form: eps T / 2 - eps^2 / 6 (T = 1, vol = 1)
    l1 = spacetime_integral(Trajectory(traj.grid, t, avg.values - traj.values))
    assert l1 == pytest.approx(eps / 2.0 - eps**2 / 6.0, abs=5e-4)


def test_time_average_constant_trajectory(grid32):
    times = np.linspace(0.0, 1.0, 11)
    vals = np.broadcast_to(np.full(grid32.shape, 2.0), (11,) + grid32.shape).copy()
    traj = Trajectory(grid32, times, vals)
    avg = time_average(traj, 0.3)
    assert np.abs(avg.values - 2.0).max() < 1e-14


def test_time_average_ordering_and_initial_value(generic_flow):
    traj = generic_flow[0]
    avg = time_average(traj, 0.07)
    assert np.array_equal(avg.values[0], traj.values[0])
    assert (avg.values - traj.values).min() >= -1e-12
    assert np.diff(avg.values, axis=0).max() <= 1e-12


def test_time_average_l1_slope(generic_flow):
    traj = generic_flow[0]
    epss = [2.0**-k for k in (3, 4, 5, 6)]
    l1s = []
    for eps in epss:
        avg = time_average(traj, eps)
        l1s.append(spacetime_integral(Trajectory(
            traj.grid, traj.times, np.maximum(avg.values - traj.values, 0.0))))
    slope = np.polyfit(np.log(epss), np.log(l1s), 1)[0]
    assert slope >= 0.95


def _segment_walk_average(times, values, eps):
    """Reference trailing average: walk the segments under each window."""
    flat = values.reshape(len(times), -1)

    def segment_integral(a, b):
        total = np.zeros(flat.shape[1])
        if b <= 0.0:
            return (b - a) * flat[0]
        if a < 0.0:
            total += (-a) * flat[0]
            a = 0.0
        k0 = max(int(np.searchsorted(times, a, side="right") - 1), 0)
        t_lo = a
        for k in range(k0, len(times) - 1):
            if t_lo >= b:
                break
            t_hi = min(float(times[k + 1]), b)
            if t_hi <= t_lo:
                continue
            span = times[k + 1] - times[k]
            w_lo = (t_lo - times[k]) / span
            w_hi = (t_hi - times[k]) / span
            v_lo = (1 - w_lo) * flat[k] + w_lo * flat[k + 1]
            v_hi = (1 - w_hi) * flat[k] + w_hi * flat[k + 1]
            total += 0.5 * (v_lo + v_hi) * (t_hi - t_lo)
            t_lo = t_hi
        return total

    out = np.empty_like(flat)
    for i, t in enumerate(times):
        out[i] = segment_integral(float(t) - eps, float(t)) / eps
    return out.reshape(values.shape)


@pytest.mark.parametrize("eps", [0.003, 0.04, 0.31, 0.9, 2.5])
def test_trailing_average_matches_segment_walk(eps):
    from pmaflow.regularize import _trailing_average
    rng = np.random.default_rng(43)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.05, 40))])
    values = rng.normal(size=(len(times), 3, 2)) + 2.0 * times[:, None, None]
    got = _trailing_average(times, values, eps)
    want = _segment_walk_average(times, values, eps)
    assert np.array_equal(got[0], values[0])
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale


def test_time_average_allocates_its_result_and_one_block():
    """On a README-shaped trajectory (101 x 64^2, 3.3 MB) the trailing
    average allocates its result and one block of scratch (256 KiB), not
    a second slab: tracemalloc's peak over the base stays below 1.25
    result sizes."""
    import tracemalloc

    rng = np.random.default_rng(45)
    grid = TorusGrid(1, 64)
    traj = Trajectory(grid, np.linspace(0.0, 1.0, 101),
                      rng.normal(size=(101,) + grid.shape))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        avg = time_average(traj, 0.125)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * avg.values.nbytes


def test_time_average_single_time(grid32):
    values = random_admissible_field(
        grid32, np.random.default_rng(44), margin=0.3).values[None]
    avg = time_average(Trajectory(grid32, np.array([0.0]), values), 0.1)
    assert np.array_equal(avg.values, values)


# ---------------------------------------------------------------------------
# decreasing_holder_from_averages


def test_decreasing_holder_linear():
    times = np.linspace(0.0, 1.0, 51)
    out = decreasing_holder_from_averages(times, -times, c0=0.5, alpha=1.0)
    assert out["hypothesis_ok"] and out["conclusion_ok"]
    assert out["worst_conclusion_ratio"] <= 1.0


def test_decreasing_holder_constant():
    times = np.linspace(0.0, 1.0, 21)
    out = decreasing_holder_from_averages(times, np.zeros(21), c0=0.1, alpha=0.5)
    assert out["passed"]
    assert out["worst_hypothesis_ratio"] == 0.0
    assert out["worst_conclusion_ratio"] == 0.0


def test_decreasing_holder_sqrt():
    times = np.linspace(0.0, 1.0, 101)
    f = -np.sqrt(times)
    # measure the empirical C0 at alpha = 1/2, then check the conclusion
    alpha = 0.5
    c0 = 0.0
    from pmaflow.regularize import _trailing_average
    for m in range(1, len(times)):
        eps = times[m]
        avg = _trailing_average(times, f.reshape(-1, 1), eps).ravel()
        c0 = max(c0, float(((avg - f) / eps**alpha).max()))
    out = decreasing_holder_from_averages(times, f, c0=c0, alpha=alpha)
    assert out["passed"]


def test_decreasing_holder_rejects_increasing():
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        decreasing_holder_from_averages(times, times, c0=1.0, alpha=0.5)


def test_decreasing_holder_on_flow_trajectory(generic_flow):
    traj = generic_flow[0]
    f = traj.values.reshape(traj.n_times, -1).mean(axis=1)  # spatial mean
    alpha = 0.9
    from pmaflow.regularize import _trailing_average
    c0 = 1e-12
    for m in range(1, traj.n_times):
        eps = traj.times[m]
        avg = _trailing_average(traj.times, f.reshape(-1, 1), eps).ravel()
        c0 = max(c0, float(((avg - f) / eps**alpha).max()))
    out = decreasing_holder_from_averages(traj.times, f, c0=c0, alpha=alpha)
    assert out["passed"]


# ---------------------------------------------------------------------------
# ball masses


def test_ball_mass_matches_summation_oracle():
    grid = TorusGrid(1, 64)
    x, y = grid.meshgrid()
    f = grid.scalar_field(np.cos(2 * np.pi * x) + 0.5 * np.sin(2 * np.pi * y))
    out = ball_mass_profile(f, centers=[(0.0, 0.0)], radii=[0.2])
    _, r_snap, mass = out["rows"][0]
    lap = np.abs(complex_laplacian(f))
    d2 = grid.periodic_distance_sq((0.0, 0.0))
    oracle = 0.0
    for li, di in zip(lap.ravel(), d2.ravel()):
        if di <= r_snap**2 + 1e-12:
            oracle += li * grid.cell_volume
    assert mass == pytest.approx(oracle, rel=1e-10)


def test_ball_mass_constant_field(grid64):
    out = ball_mass_profile(grid64.constant_field(3.0),
                            centers=[(0.0, 0.0)], radii=[0.1, 0.2])
    assert all(m == pytest.approx(0.0, abs=1e-10) for _, _, m in out["rows"])
    assert out["fitted_exponent"] == np.inf


def test_ball_mass_smooth_exponent_2n():
    grid = TorusGrid(1, 256)
    x, _ = grid.meshgrid()
    f = grid.scalar_field(np.cos(2.0 * np.pi * x))
    h = grid.spacing
    radii = np.geomspace(8 * h, 1.0 / 16.0, 5)
    out = ball_mass_profile(f, centers=[(0.0, 0.3), (0.5, 0.8)], radii=radii)
    assert abs(out["fitted_exponent"] - 2.0) <= 0.1


def test_ball_mass_rejects_large_radius(grid64):
    with pytest.raises(ValueError):
        ball_mass_profile(grid64.constant_field(0.0), [(0, 0)], [0.6])


def test_ball_lower_bound_surrogate(grid64):
    rng = np.random.default_rng(35)
    for _ in range(3):
        f = random_admissible_field(grid64, rng, margin=0.3)
        out = ball_lower_bound_check(f, eps=0.125)
        assert out["holds"], out
