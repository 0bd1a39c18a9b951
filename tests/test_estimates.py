"""Entropies, I-functional, level ladders, De Giorgi, inequalities, moduli."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmaflow import (
    FlowParams,
    HessianSymbol,
    RhsSpec,
    TorusGrid,
    Trajectory,
    integrate,
    random_admissible_field,
    solve_hessian_flow,
)
from pmaflow.estimates import (
    DeGiorgiParams,
    EstimateReport,
    de_giorgi_extinction,
    de_giorgi_ladder_check,
    entropy,
    exp_alpha_integral,
    holder_moduli,
    i_functional,
    i_series,
    level_stats,
    moser_trudinger,
    s_star_bound,
    stability_ratio,
)
from pmaflow.cli import RunConfig, run
from pmaflow.grid import load_trajectory, spacetime_integral
from pmaflow.regularize import time_average

from oracles import (
    complex_hessian_matrices,
    inequality_oracles,
    power_exp_split_constant,
)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_flat_zero_data(grid32):
    times = np.linspace(0.0, 1.0, 11)
    eF, F = RhsSpec.zero().sample(grid32, times)
    assert entropy(eF, F, p=2.0) == pytest.approx(1.0, abs=1e-12)
    assert entropy(eF, F, p=3.7, weight_power=1.0) == pytest.approx(1.0, abs=1e-12)


def test_entropy_constant_log2_closed_form(grid32):
    T = 1.0
    times = np.linspace(0.0, T, 21)
    rhs = RhsSpec.time_only(lambda t: np.log(2.0))
    eF, F = rhs.sample(grid32, times)
    expected = 2.0 * (np.log(2.0) ** 2 + 1.0) * T
    assert entropy(eF, F, p=2.0) == pytest.approx(expected, rel=1e-10)


def test_entropy_variants_and_weights(grid32):
    times = np.linspace(0.0, 1.0, 5)
    rhs = RhsSpec.time_only(lambda t: 0.5)
    eF, F = rhs.sample(grid32, times)
    quad_form = entropy(eF, F, p=2.0)
    assert quad_form == pytest.approx(np.exp(0.5) * 1.25, rel=1e-12)
    weighted = entropy(eF, F, p=2.0, weight_power=2.0)
    assert weighted == pytest.approx(np.exp(1.0) * 1.25, rel=1e-12)


def test_entropy_singular_family_stable_under_refinement():
    rhs = RhsSpec.mollified_log_singularity((0.5, 0.5), strength=0.35,
                                            moll_radius=0.02, p0=2.0)
    times = np.linspace(0.0, 1.0, 9)
    vals = []
    for N in (64, 128):
        grid = TorusGrid(1, N)
        eF, F = rhs.sample(grid, times)
        vals.append(entropy(eF, F, p=2.0))
    assert np.isfinite(vals).all()
    assert abs(vals[1] - vals[0]) / vals[1] <= 0.02


# ---------------------------------------------------------------------------
# I-functional


def test_i_functional_constant_field(grid32):
    assert i_functional(grid32.constant_field(0.7)) == pytest.approx(0.7, abs=1e-13)


def test_i_functional_constant_field_n2(grid2d):
    assert i_functional(grid2d.constant_field(-1.2)) == pytest.approx(-1.2, abs=1e-13)


def test_i_series_trivial_flow(trivial_flow):
    traj, eF, _, _ = trivial_flow
    series, resid = i_series(traj, eF)
    assert np.abs(series + traj.times).max() < 1e-10
    assert resid < 1e-10


def test_i_functional_matches_term_by_term_oracle(grid32, grid2d):
    rng = np.random.default_rng(21)
    f = random_admissible_field(grid32, rng, margin=0.1)
    # wedge expansion assembled independently: (1/2) int phi (w0 + w_phi)
    h = complex_hessian_matrices(f.values, grid32)[..., 0, 0].real
    term0 = (f.values * 1.0).mean()          # phi against w0
    term1 = (f.values * (1.0 + h)).mean()    # phi against w_phi
    oracle = 0.5 * (term0 + term1) * grid32.volume
    assert i_functional(f) == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    # n = 2: (1/3) int phi (w0^2 + w0 ^ w_phi + w_phi^2)
    #      = (1/3) int phi (1 + tr(I+H)/2 + det(I+H)), entrywise from H
    f = random_admissible_field(grid2d, rng, margin=0.1)
    a = np.eye(2) + complex_hessian_matrices(f.values, grid2d)
    trace = (a[..., 0, 0] + a[..., 1, 1]).real
    det = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]).real
    oracle = (f.values * (1.0 + 0.5 * trace + det)).mean() * grid2d.volume / 3.0
    assert i_functional(f) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_i_series_residual_halves_with_dt(grid64):
    from pmaflow.manufactured import ManufacturedSolution
    ms = ManufacturedSolution(grid64, curvature=1.0)
    resids = []
    for dt in (0.15 / 8, 0.15 / 16):
        traj = solve_hessian_flow(grid64.constant_field(0.0), ms, HessianSymbol.det(1),
                                  FlowParams(T=0.15, dt=dt))
        eF, _ = ms.sample(grid64, traj.times)
        _, resid = i_series(traj, eF)
        resids.append(resid)
    assert resids[0] / resids[1] >= 1.8


def test_i_series_nonincreasing(generic_flow):
    traj, eF, _, _, _ = generic_flow
    series, _ = i_series(traj, eF)
    assert np.all(np.diff(series) <= 1e-12)


@pytest.mark.parametrize("n_complex,N,count", [(1, 32, 100), (2, 8, 20)])
def test_integral_dominates_i_functional(n_complex, N, count):
    # int phi >= I(phi) for admissible fields (low modes keep quadrature exact)
    grid = TorusGrid(n_complex, N)
    rng = np.random.default_rng(22)
    for _ in range(count):
        f = random_admissible_field(grid, rng, margin=0.05)
        assert integrate(f) - i_functional(f) >= -1e-10


# ---------------------------------------------------------------------------
# level stats


def test_level_stats_trivial_flow_closed_form(trivial_flow):
    traj, eF, _, params = trivial_flow
    s_grid = np.array([0.0, 0.25, 0.5, 0.75])
    stats = level_stats(traj, eF, s_grid)
    for i, s in enumerate(s_grid):
        assert stats.A_s[i] == pytest.approx((1 - s) ** 2 / 2, abs=2e-4)
        # indicator integrals carry O(dt) quadrature error
        assert stats.phi_of_s[i] == pytest.approx(1 - s, abs=params.dt)


def test_level_stats_beyond_range_all_zero(trivial_flow):
    traj, eF, _, _ = trivial_flow
    stats = level_stats(traj, eF, np.array([1.5, 2.0]))
    assert np.all(stats.A_s == 0.0)
    assert np.all(stats.phi_of_s == 0.0)


def _ladder_oracle(traj, eF, s_grid, comparator=None, delta=None):
    """The ladders as one masked sum per time slice and level."""
    w = traj.time_weights()
    cell = traj.grid.cell_volume
    x = -traj.values if comparator is None else \
        (1.0 - delta) * comparator.values - traj.values
    mass = np.zeros(len(s_grid))
    excess = np.zeros(len(s_grid))
    vol = np.zeros(len(s_grid))
    for i, s in enumerate(s_grid):
        for k in range(traj.n_times):
            exc = x[k] - s
            excess[i] += w[k] * float((np.maximum(exc, 0) * eF.values[k]).sum()) * cell
            mass[i] += w[k] * float(((exc > 0) * eF.values[k]).sum()) * cell
            vol[i] += w[k] * float((exc > 0).sum()) * cell
    return vol, mass, excess


def test_level_stats_matches_summation_oracle(generic_flow):
    traj, eF, _, _, _ = generic_flow
    s_grid = np.array([0.05, 0.1, 0.2])
    stats = level_stats(traj, eF, s_grid)
    _, p_oracle, a_oracle = _ladder_oracle(traj, eF, s_grid)
    assert stats.A_s == pytest.approx(a_oracle, rel=1e-12, abs=1e-14)
    assert stats.phi_of_s == pytest.approx(p_oracle, rel=1e-12, abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_times=st.integers(1, 3),
       levels=st.lists(st.integers(-24, 24), min_size=1, max_size=6, unique=True),
       delta=st.one_of(st.sampled_from([0.0, 0.5, 0.75]), st.floats(0.0, 0.9)),
       with_comparator=st.booleans())
def test_level_stats_property_matches_summation_oracle(seed, n_times, levels, delta,
                                                       with_comparator):
    """Ladders of random slabs of one to three slices against the masked sums.

    Values are dyadic half of the time, so many lie exactly on a level (the
    first point of every slice always does, for phi and for the comparator
    gap when 1 - delta is a power of two), and the levels always reach
    below the minimum and above the maximum of the slab.
    """
    rng = np.random.default_rng(seed)
    grid = TorusGrid(1, 8)
    shape = (n_times,) + grid.shape
    s_grid = np.array(sorted(set(levels) | {-80, 80})) / 8.0

    def draw():
        dyadic = rng.integers(-24, 25, size=shape) / 8.0
        return np.where(rng.random(shape) < 0.5, dyadic, rng.uniform(-3.0, 3.0, shape))

    phi_vals = draw()
    phi_vals[:, 0, 0] = -s_grid[rng.integers(len(s_grid))]
    times = np.cumsum(rng.uniform(0.1, 1.0, n_times)) - 0.1
    traj = Trajectory(grid, times, phi_vals)
    eF = Trajectory(grid, times, np.exp(0.3 * rng.normal(size=shape)))
    comparator = None
    if with_comparator:
        v_vals = draw()
        v_vals[:, 0, 0] = (s_grid[rng.integers(len(s_grid))] + phi_vals[:, 0, 0]) \
            / (1.0 - delta)
        comparator = Trajectory(grid, times, v_vals)
    stats = level_stats(traj, eF, s_grid, comparator=comparator, delta=delta)
    _, mass, excess = _ladder_oracle(traj, eF, s_grid)
    assert stats.phi_of_s == pytest.approx(mass, rel=1e-12, abs=1e-300)
    assert stats.A_s == pytest.approx(excess, rel=1e-12, abs=1e-300)
    assert stats.A_s[-1] == 0.0 and stats.phi_of_s[-1] == 0.0
    if comparator is not None:
        vol, _, excess = _ladder_oracle(traj, eF, s_grid, comparator, delta)
        assert stats.omega_vol == pytest.approx(vol, rel=1e-12, abs=1e-300)
        assert stats.A_s_delta == pytest.approx(excess, rel=1e-12, abs=1e-300)


def test_level_stats_memory_below_the_slab():
    """The ladders of a README-shaped slab (101 x 64^2) need no slab-sized
    temporary: tracemalloc's peak stays below the slab's own bytes."""
    import tracemalloc

    rng = np.random.default_rng(5)
    grid = TorusGrid(1, 64)
    times = np.linspace(0.0, 1.0, 101)
    traj = Trajectory(grid, times, rng.normal(size=(101,) + grid.shape))
    eF = Trajectory(grid, times, np.exp(0.3 * rng.normal(size=traj.values.shape)))
    s_grid = np.linspace(0.0, 2.0, 17)
    tracemalloc.start()
    try:
        level_stats(traj, eF, s_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < traj.values.nbytes


def test_level_chebyshev_inequality(generic_flow):
    traj, eF, _, _, _ = generic_flow
    s_grid = np.linspace(0.0, 0.6, 13)
    stats = level_stats(traj, eF, s_grid)
    for i, s in enumerate(s_grid):
        for j in range(i + 1, len(s_grid)):
            r = s_grid[j] - s
            assert stats.A_s[i] >= r * stats.phi_of_s[j] - 1e-12


def test_level_stats_with_comparator(generic_flow):
    traj, eF, _, _, _ = generic_flow
    v = time_average(traj, 0.1)
    delta = 0.3
    s_grid = np.linspace(0.0, 0.5, 11)
    stats = level_stats(traj, eF, s_grid, comparator=v, delta=delta)
    assert stats.omega_vol is not None and stats.A_s_delta is not None
    assert np.all(np.diff(stats.omega_vol) <= 1e-12)
    # Chebyshev for volumes: vol(Omega_{s,delta}) <= (2/s)||(v-phi)^+||_1
    # whenever s >= 2 delta ||v||_inf
    sup_v = np.abs(v.values).max()
    l1 = spacetime_integral(Trajectory(traj.grid, traj.times,
                                       np.maximum(v.values - traj.values, 0.0)))
    for i, s in enumerate(s_grid):
        if s >= 2 * delta * sup_v and s > 0:
            assert stats.omega_vol[i] <= 2.0 / s * l1 + 1e-12


def test_level_stats_csv(tmp_path):
    """A run writes its ladders to levelstats.csv, one row per level, at
    full precision; the ladders it does not take are empty columns."""
    off = dict.fromkeys(("entropy", "i_series", "moser_trudinger", "exp_alpha",
                         "holder", "stability"), False)
    cfg = RunConfig.from_dict({
        "grid": {"n_complex": 1, "points_per_axis": 16},
        "flow": {"T": 0.1, "dt": 0.02}, "rhs": {"kind": "zero"},
        "estimates": {"s_count": 2, **off}})
    run(cfg, tmp_path)
    lines = (tmp_path / "levelstats.csv").read_text().strip().splitlines()
    assert lines[0] == "s,A_s,phi_s,vol_omega,A_s_delta"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    traj = load_trajectory(tmp_path / "trajectory.bin")
    eF, _ = RhsSpec.zero().sample(traj.grid, traj.times)
    stats = level_stats(traj, eF, np.array([float(row[0]) for row in rows]))
    assert [float(row[1]) for row in rows] == list(stats.A_s)
    assert [float(row[2]) for row in rows] == list(stats.phi_of_s)
    assert [row[3:] for row in rows] == [["", ""]] * 2


# ---------------------------------------------------------------------------
# De Giorgi


def test_de_giorgi_paper_case():
    p = DeGiorgiParams(B0=1.0, delta=1.0, s0=0.0, phi_s0=1.0)
    assert de_giorgi_extinction(p) == pytest.approx(4.0, abs=1e-15)


def test_de_giorgi_zero_ladder():
    p = DeGiorgiParams(B0=2.0, delta=0.5, s0=1.5, phi_s0=0.0)
    assert de_giorgi_extinction(p) == 1.5


def test_de_giorgi_synthetic_ladder():
    # ladder (1-s)^3 on s <= 1 satisfies the hypothesis with delta = 1/3
    s_grid = np.linspace(0.0, 2.0, 401)
    ladder = np.maximum(1.0 - s_grid, 0.0) ** 3
    delta = 1.0 / 3.0
    # fit B0 as the worst hypothesis quotient over the grid
    b0 = 0.0
    for i, s in enumerate(s_grid):
        r = s_grid[i + 1:] - s
        if ladder[i] > 0:
            b0 = max(b0, float((r * ladder[i + 1:]).max() / ladder[i] ** (1 + delta)))
    params = DeGiorgiParams(B0=b0, delta=delta, s0=0.0, phi_s0=1.0)
    threshold = de_giorgi_extinction(params)
    assert threshold >= 1.0  # true extinction point
    report = de_giorgi_ladder_check(s_grid, ladder, params)
    assert report["hypothesis_ok"]
    assert report["extinct_at_threshold"]


def test_de_giorgi_ladder_check_flags_violation():
    s_grid = np.linspace(0.0, 3.0, 31)
    ladder = 1.0 / (1.0 + s_grid)  # too slow: violates the hypothesis
    params = DeGiorgiParams(B0=0.1, delta=0.5, s0=0.0, phi_s0=1.0)
    report = de_giorgi_ladder_check(s_grid, ladder, params)
    assert not report["hypothesis_ok"] or not report["extinct_at_threshold"]


# ---------------------------------------------------------------------------
# inequalities


def test_power_exp_split_constant_closed_form():
    # sup_x p e^{x-1} x^p e^{-2x} is attained at x = p
    for p in (1.5, 2.0, 3.0):
        assert power_exp_split_constant(p) == pytest.approx(
            p ** (p + 1) * np.exp(-p - 1.0), rel=1e-6)


def test_inequality_battery_no_violations():
    results = inequality_oracles()
    total = 0
    for name, res in results.items():
        assert res["violations"] == 0, name
        total += res["count"]
    assert total >= 10**4


def test_inequality_spot_values():
    # Lemma endpoint cases quoted in closed form
    c2 = power_exp_split_constant(2.0)
    assert 1.0 <= 1.0 + c2 * np.e**2                     # x=1, y=0, p=2
    assert (1.0 * 1.0 ** (1 / 1)) ** 0.5 * 1.0 <= 1.0 + 1.0  # Young at ones
    assert np.e * 1.0 <= np.e * 1.0 + 1.0                # xy <= x log x + e^{y-1}


# ---------------------------------------------------------------------------
# Moser-Trudinger / exponential integrals


def test_mt_integrand_one_beyond_range(trivial_flow):
    traj, eF, _, _ = trivial_flow
    s_grid = np.array([0.0, 1.5])
    stats = level_stats(traj, eF, s_grid)
    vals = moser_trudinger(traj, stats, 1.5, beta=0.5)
    assert np.allclose(vals, traj.grid.volume, atol=1e-14)


def test_mt_trivial_flow_matches_quadrature(trivial_flow):
    traj, eF, _, _ = trivial_flow
    stats = level_stats(traj, eF, np.array([0.0, 0.5]))
    beta = 0.1
    vals = moser_trudinger(traj, stats, 0.0, beta=beta, exponent_base="n_plus_2")
    a0 = stats.A_s[0]
    oracle = np.exp(beta * a0 ** (-1.0 / 3.0) * traj.times ** 1.5)
    assert np.abs(vals - oracle).max() < 1e-8


def test_mt_monotone_in_beta(generic_flow):
    traj, eF, _, _, _ = generic_flow
    stats = level_stats(traj, eF, np.array([0.0, 0.05]))
    lo = moser_trudinger(traj, stats, 0.05, beta=0.2)
    hi = moser_trudinger(traj, stats, 0.05, beta=0.4)
    assert np.all(hi >= lo)
    assert hi.max() > lo.max()


def test_mt_both_exponent_bases(generic_flow):
    traj, eF, _, _, _ = generic_flow
    stats = level_stats(traj, eF, np.array([0.05]))
    v1 = moser_trudinger(traj, stats, 0.05, beta=0.3, exponent_base="n_plus_1")
    v2 = moser_trudinger(traj, stats, 0.05, beta=0.3, exponent_base="n_plus_2")
    assert np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))


def test_exp_alpha_flat_zero(grid32):
    times = np.linspace(0, 1, 6)
    traj = Trajectory(grid32, times, np.zeros((6,) + grid32.shape))
    assert np.allclose(exp_alpha_integral(traj, 1.0), 1.0, atol=1e-14)


def test_exp_alpha_trivial_flow(trivial_flow):
    traj = trivial_flow[0]
    vals = exp_alpha_integral(traj, 1.0)
    assert np.abs(vals - np.exp(traj.times)).max() < 1e-8
    assert vals.max() == pytest.approx(np.exp(1.0), rel=1e-8)


def test_exp_alpha_matches_summation_oracle(generic_flow):
    traj = generic_flow[0]
    alpha0 = 0.7
    vals = exp_alpha_integral(traj, alpha0)
    for k in (0, traj.n_times // 2, traj.n_times - 1):
        oracle = float(np.exp(-alpha0 * traj.values[k]).sum()
                       * traj.grid.cell_volume)
        assert vals[k] == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# stability


def test_stability_v_equals_phi(generic_flow):
    traj = generic_flow[0]
    out = stability_ratio(traj, traj, alpha=0.2)
    assert out["lhs"] == 0.0
    assert out["ratio"] == 0.0


def test_stability_constant_shift(generic_flow):
    traj = generic_flow[0]
    c = 0.04
    v = traj.map_values(lambda vals: vals + c)
    out = stability_ratio(v, traj, alpha=0.2)
    assert out["lhs"] == pytest.approx(c, abs=1e-14)
    assert out["ratio"] <= 1.0 + 1e-12


def test_stability_time_average_family(generic_flow):
    traj = generic_flow[0]
    alpha = 0.25
    ratios = []
    gaps = []
    for eps in (1.0 / 8, 1.0 / 16, 1.0 / 32):
        v = time_average(traj, eps)
        out = stability_ratio(v, traj, alpha)
        ratios.append(out["ratio"])
        gaps.append(out["lhs"])
    assert np.all(np.isfinite(ratios))
    assert gaps[0] >= gaps[-1]  # sup gap shrinks with eps
    assert max(ratios) <= 10.0 * max(min(ratios), 1e-12) or max(ratios) < 1.0


def test_stability_warns_on_bad_comparator(generic_flow):
    traj = generic_flow[0]
    ramp = traj.times.reshape((-1,) + (1,) * traj.grid.real_dim)
    v = Trajectory(traj.grid, traj.times.copy(),
                   np.broadcast_to(ramp, traj.values.shape).copy())
    with pytest.warns(UserWarning):
        stability_ratio(v, traj, alpha=0.2)


# ---------------------------------------------------------------------------
# Holder moduli


def test_holder_trivial_flow_linear_time(trivial_flow):
    traj = trivial_flow[0]
    fits = holder_moduli(traj)
    exp_t, c_t = fits["time"]
    assert exp_t == pytest.approx(1.0, abs=1e-6)
    assert c_t == pytest.approx(1.0, rel=1e-6)
    assert fits["space"][0] == np.inf
    assert fits["space"][1] == 0.0


def test_holder_manufactured_lipschitz():
    from pmaflow.manufactured import ManufacturedSolution
    grid = TorusGrid(1, 256)
    ms = ManufacturedSolution(grid, curvature=0.0)
    traj = ms.exact_trajectory(np.linspace(0.0, 0.15, 33))
    fits = holder_moduli(traj)
    assert fits["time"][0] >= 0.99   # exactly Lipschitz in t
    assert fits["space"][0] >= 0.99  # smooth single-mode profile


@pytest.mark.filterwarnings("ignore:comparator")   # v is random, not a subsolution
@pytest.mark.parametrize("n_complex,N", [(1, 32), (2, 8)])
def test_in_place_estimates_match_their_expressions(n_complex, N):
    """entropy, moser_trudinger, exp_alpha_integral, stability_ratio and
    holder_moduli evaluate in place; each equals its plain array expression
    bit for bit."""
    grid = TorusGrid(n_complex, N)
    rng = np.random.default_rng(4)
    times = np.linspace(0.0, 1.0, 9)
    shape = (len(times),) + grid.shape
    phi = Trajectory(grid, times, -0.3 * rng.random(shape))
    v = Trajectory(grid, times, phi.values + 0.01 * rng.standard_normal(shape))
    F = Trajectory(grid, times, 0.5 * rng.standard_normal(shape))
    eF = Trajectory(grid, times, np.exp(F.values))

    def integral(values):
        return spacetime_integral(Trajectory(grid, times, values))

    for p, w in ((2.0, 1.0), (3.7, n_complex + 1.0)):
        want = integral(np.exp(w * F.values) * (F.values**2 + 1.0) ** (p / 2.0))
        assert entropy(eF, F, p, weight_power=w) == want

    s, beta, base = 0.1, 0.3, n_complex + 2
    stats = level_stats(phi, eF, np.array([0.0, s]))
    arg = (beta * stats.A_s[1] ** (-1.0 / base)
           * np.maximum(-phi.values - s, 0.0) ** ((n_complex + 2.0) / (n_complex + 1.0)))
    want = np.exp(arg).reshape(len(times), -1).mean(axis=1) * grid.volume
    assert np.array_equal(moser_trudinger(phi, stats, s, beta), want)

    want = np.exp(-0.7 * phi.values).reshape(len(times), -1).mean(axis=1) * grid.volume
    assert np.array_equal(exp_alpha_integral(phi, 0.7), want)

    assert stability_ratio(v, phi, 0.5)["l1"] == integral(
        np.maximum(v.values - phi.values, 0.0))

    fits = holder_moduli(phi)
    time_gaps = [np.abs(phi.values[m:] - phi.values[:-m]).max() for m in (1, 2, 4)]
    space_gaps = [max(np.abs(np.roll(phi.values, -j, axis=a + 1) - phi.values).max()
                      for a in range(grid.real_dim))
                  for j in fits["space_points"][0] / grid.spacing]
    assert np.array_equal(fits["time_points"][1], time_gaps)
    assert np.array_equal(fits["space_points"][1], space_gaps)


def test_comparator_warns_on_any_rise_above_1e_9():
    """The monotonicity check of the comparator reads every pair of
    consecutive slices, the last one included, against the 1e-9 slack."""
    grid = TorusGrid(1, 8)
    times = np.linspace(0.0, 1.0, 5)
    values = -np.broadcast_to(times[:, None, None], (5,) + grid.shape).copy()
    values[4] = values[3] + 5e-10   # within the slack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stability_ratio(Trajectory(grid, times, values.copy()),
                        Trajectory(grid, times, values), 0.5)
    values[4] = values[3] + 2e-9
    with pytest.warns(UserWarning, match="comparator is not nonincreasing"):
        stability_ratio(Trajectory(grid, times, values.copy()),
                        Trajectory(grid, times, values), 0.5)


def test_holder_requires_enough_times(grid32):
    times = np.linspace(0, 1, 4)
    traj = Trajectory(grid32, times, np.zeros((4,) + grid32.shape))
    with pytest.raises(ValueError):
        holder_moduli(traj)


# ---------------------------------------------------------------------------
# s_* bound


def test_s_star_v_equals_phi(generic_flow):
    traj, eF, _, _, _ = generic_flow
    delta = 0.25
    s_grid = np.linspace(0.0, 0.5, 26)
    stats = level_stats(traj, eF, s_grid, comparator=traj, delta=delta)
    out = s_star_bound(traj, traj, delta, beta=2.0, stats=stats, q0=2.0)
    sup_v = np.abs(traj.values).max()
    assert out["terms"][0] == 0.0
    assert out["terms"][2] == 0.0
    assert out["bound"] == pytest.approx(2 * delta * sup_v, rel=1e-12)


def test_s_star_scan_below_bound_with_calibration(generic_flow):
    traj, eF, _, _, _ = generic_flow
    v = time_average(traj, 0.1)
    delta = 0.5
    s_grid = np.linspace(0.0, 1.0, 101)
    stats = level_stats(traj, eF, s_grid, comparator=v, delta=delta)
    out = s_star_bound(v, traj, delta, beta=4.0, stats=stats, q0=2.0, c1=50.0)
    assert out["scan_s_star"] is not None
    assert out["margin"] >= 0.0  # c1 large enough: bound dominates the scan


def test_s_star_trivial_flow_closed_form(trivial_flow):
    # trivial flow, v = phi + c: scan conditions solvable by hand
    traj, eF, _, _ = trivial_flow
    c = 0.2
    v = traj.map_values(lambda vals: vals + c)
    delta = 0.6
    s_grid = np.linspace(0.0, 2.0, 201)
    stats = level_stats(traj, eF, s_grid, comparator=v, delta=delta)
    out = s_star_bound(v, traj, delta, beta=2.0, stats=stats, q0=2.0, c1=1.0)
    # condition (1): s >= sup((1-delta)v_0 - phi_0)^+ = (1-delta) c
    # condition (3): s >= 2 delta sup|v|; sup|v| = 1 - c = 0.8
    # condition (2): A_{s,delta} <= delta^3 picks up from the ladder
    scan = out["scan_s_star"]
    gap0 = (1 - delta) * c
    lower = max(gap0, 2 * delta * (1.0 - c))
    idx = np.searchsorted(s_grid, lower - 1e-12)
    while stats.A_s_delta[idx] > delta**3:
        idx += 1
    assert scan == pytest.approx(s_grid[idx], abs=1e-12)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_roundtrip():
    rep = EstimateReport(entropy_p=1.5, I_series=[0.0, -0.5],
                         I_derivative_residual=1e-3,
                         holder_time=(1.0, 0.9), holder_space=(0.8, 1.1),
                         stability_ratio=0.4, extra={"note": "x"})
    back = EstimateReport.from_json(rep.to_json())
    assert back == rep


def test_i_series_identity_n2(grid2d):
    # independent validation of the three-term wedge expansion at n = 2:
    # the dissipation identity dI/dt = -int e^F only holds if I is right
    from pmaflow import random_admissible_field
    rng = np.random.default_rng(53)
    phi0 = random_admissible_field(grid2d, rng, margin=0.5)
    rhs = RhsSpec.time_only(lambda t: 0.1 * t)
    params = FlowParams(T=0.2, dt=0.0125)
    traj = solve_hessian_flow(phi0, rhs, HessianSymbol.det(2), params)
    eF, _ = rhs.sample(grid2d, traj.times)
    _, resid = i_series(traj, eF)
    assert resid <= 5.0 * (params.dt + grid2d.spacing**2)


@settings(max_examples=50, deadline=None)
@given(b0=st.floats(0.01, 10.0), delta=st.floats(0.05, 3.0),
       s0=st.floats(0.0, 5.0), phi0=st.floats(0.0, 100.0))
def test_de_giorgi_threshold_properties(b0, delta, s0, phi0):
    p = DeGiorgiParams(B0=b0, delta=delta, s0=s0, phi_s0=phi0)
    threshold = de_giorgi_extinction(p)
    assert threshold >= s0
    if phi0 > 0:
        bigger = de_giorgi_extinction(DeGiorgiParams(B0=b0, delta=delta,
                                                     s0=s0, phi_s0=2 * phi0))
        assert bigger >= threshold


def test_s_star_three_terms_direct_evaluation(generic_flow):
    # delta close to 1 minimizes the third term; the bound is the direct max
    traj, eF, _, _, _ = generic_flow
    v = time_average(traj, 0.1)
    delta, beta, q0, c1 = 0.9, 3.0, 2.0, 0.7
    s_grid = np.linspace(0.0, 1.0, 21)
    stats = level_stats(traj, eF, s_grid, comparator=v, delta=delta)
    out = s_star_bound(v, traj, delta, beta=beta, stats=stats, q0=q0, c1=c1)
    n = traj.grid.n_complex
    term1 = 2.0 * float(np.maximum(v.values[0] - traj.values[0], 0.0).max())
    term2 = 2.0 * delta * float(np.abs(v.values).max())
    l1 = spacetime_integral(Trajectory(
        traj.grid, traj.times, np.maximum(v.values - traj.values, 0.0)))
    term3 = c1 * delta ** (-q0 * (n + 1) / (1.0 - 1.0 / beta)) * l1
    assert out["bound"] == pytest.approx(max(term1, term2, term3), rel=1e-12)
    assert out["terms"] == pytest.approx((term1, term2, term3), rel=1e-12)


def test_mt_sup_stable_across_resolutions():
    # same continuum data at three resolutions shares the entropy budget;
    # the Moser-Trudinger sup must stay within a tight family band
    def spatial(x, y):
        return 0.4 * np.cos(2.0 * np.pi * x)

    rhs = RhsSpec.smooth_product(spatial, lambda t: np.exp(-t), p0=2.0)
    sups = []
    for N in (16, 32, 64):
        grid = TorusGrid(1, N)
        traj = solve_hessian_flow(grid.constant_field(0.0), rhs, HessianSymbol.det(1),
                                  FlowParams(T=0.5, dt=1.0 / 32))
        eF, _ = rhs.sample(grid, traj.times)
        stats = level_stats(traj, eF, np.array([0.0, 0.05]))
        sups.append(float(moser_trudinger(traj, stats, 0.05, beta=0.3).max()))
    assert max(sups) / min(sups) <= 1.05


@pytest.mark.parametrize("N", [8, 12])
def test_holder_space_fits_below_n16(N):
    """Below N = 16 the spatial separations start at 2 cells, so a smooth
    field gets a finite exponent instead of the one-separation sentinel."""
    grid = TorusGrid(2, N)
    times = np.linspace(0.0, 0.1, 9)
    x = grid.meshgrid()[0]
    values = np.stack([(1.0 + t) * np.cos(2.0 * np.pi * x) for t in times])
    fits = holder_moduli(Trajectory(grid, times, values))
    assert len(fits["space_points"][0]) == 2
    assert 0.0 < fits["space"][0] <= 1.05
