import math

import numpy as np
import pytest
from scipy import stats

import poislim as pl
from poislim.errors import CapabilityError, ConfigurationError, PreconditionError
from poislim.estimators import EstimatorSettings, bayes, mle, moments_preliminary, two_stage
from poislim.intensity import ParameterInterval
from poislim.likelihood import likelihood_curve
from poislim.simulate import RngStream, Sample, simulate_sample


def test_mle_constant_closed_form():
    c = pl.make_model("CONSTANT")
    for seed in range(40):
        s = simulate_sample((c, 3.0), 200, RngStream(seed, 0))
        target = s.total_events() / s.n
        if not (0.1 < target < 10.0):
            continue
        est = mle(c, s)
        assert abs(est.value - target) <= 1e-9, seed


def test_mle_flat_tie_breaks_left(flat_model):
    s = simulate_sample(pl.TrueIntensity(fn=lambda t: np.ones_like(t), horizon=1.0,
                                         lambda_max=1.0), 10, RngStream(1, 0))
    settings = EstimatorSettings(grid_size=401)
    est = mle(flat_model, s, settings)
    cell = flat_model.theta_interval.width / 400
    assert abs(est.value - flat_model.theta_interval.alpha) <= cell


def test_mle_degenerate_interval():
    c = pl.make_model("CONSTANT", theta_interval=(3.0, 3.0 + 1e-12))
    s = simulate_sample((pl.make_model("CONSTANT"), 3.0), 5, RngStream(2, 0))
    est = mle(c, s)
    assert est.value == pytest.approx(3.0 + 5e-13, abs=1e-13)


def test_estimates_stay_in_interval():
    reg = pl.make_model("REGULAR_EXP")
    for seed in range(5):
        s = simulate_sample((reg, 0.9), 10, RngStream(seed, 50))
        for est in (mle(reg, s), bayes(reg, s)):
            assert reg.theta_interval.alpha <= est.value <= reg.theta_interval.beta


def test_bayes_flat_uniform_prior(flat_model):
    s = simulate_sample(pl.TrueIntensity(fn=lambda t: np.ones_like(t), horizon=1.0,
                                         lambda_max=1.0), 10, RngStream(3, 0))
    est = bayes(flat_model, s)
    assert est.value == pytest.approx(flat_model.theta_interval.midpoint, abs=1e-9)


def test_bayes_constant_against_dense_oracle():
    c = pl.make_model("CONSTANT")
    for seed in (3, 11):
        s = simulate_sample((c, 3.0), 200, RngStream(seed, 0))
        n_events, n = s.total_events(), s.n
        grid = np.linspace(0.1, 10.0, 2_000_001)
        logw = n_events * np.log(grid) - n * grid
        w = np.exp(logw - logw.max())
        oracle = float(np.trapezoid(w * grid, grid) / np.trapezoid(w, grid))
        est = bayes(c, s)
        assert est.value == pytest.approx(oracle, abs=1e-7)
        assert c.theta_interval.alpha < est.value < c.theta_interval.beta


def test_bayes_prior_rescaling_invariance():
    c = pl.make_model("CONSTANT")
    s = simulate_sample((c, 3.0), 100, RngStream(4, 0))
    grid = np.linspace(0.1, 10.0, 64)
    dens = 1.0 + 0.5 * np.sin(grid)
    base = bayes(c, s, EstimatorSettings(prior=(grid, dens)))
    # powers of two rescale bit-exactly
    for c_scale in (2.0, 0.5, 2.0 ** 40):
        scaled = bayes(c, s, EstimatorSettings(prior=(grid, c_scale * dens)))
        assert scaled.value == base.value
    # arbitrary constants within float rounding
    almost = bayes(c, s, EstimatorSettings(prior=(grid, 3.0 * dens)))
    assert almost.value == pytest.approx(base.value, rel=1e-14)


@pytest.mark.parametrize("family", ["CHANGEPOINT", "CUSP", "DISCFI_KINK", "JUMP_SHIFT"])
def test_bayes_nonuniform_prior_against_dense_oracle(family):
    # the posterior mean splits Theta at sample-dependent breaks; the prior
    # must keep one scale over every segment
    model = pl.make_model(family)
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), 20, RngStream(3, 0))
    grid = np.linspace(iv.alpha, iv.beta, 5)
    dens = np.exp(8.0 * (grid - iv.alpha) / iv.width)
    est = bayes(model, s, EstimatorSettings(prior=(grid, dens)))
    curve = likelihood_curve(model, s, 200_001)
    w = np.exp(curve.values - curve.values.max()) * np.interp(curve.thetas, grid, dens)
    oracle = np.trapezoid(w * curve.thetas, curve.thetas) / np.trapezoid(w, curve.thetas)
    assert est.value == pytest.approx(oracle, abs=1e-4)


def test_bayes_prior_must_be_positive():
    grid = np.linspace(0.1, 10.0, 8)
    dens = np.ones(8)
    dens[3] = 0.0
    with pytest.raises(ConfigurationError):
        EstimatorSettings(prior=(grid, dens))


def test_mle_stochastically_monotone_in_theta0():
    c = pl.make_model("CONSTANT")
    lo, hi = [], []
    for r in range(500):
        lo.append(mle(c, simulate_sample((c, 2.0), 30, RngStream(5, r * 64)),
                      EstimatorSettings(grid_size=801)).value)
        hi.append(mle(c, simulate_sample((c, 3.0), 30, RngStream(6, r * 64)),
                      EstimatorSettings(grid_size=801)).value)
    res = stats.mannwhitneyu(hi, lo, alternative="greater")
    assert res.pvalue < 1e-3


def test_moments_preliminary():
    sw = pl.make_model("SUFFWIN_LINEAR")  # a=1, b=2, tau=1
    # noiseless inversion: replace the empirical mean count by the exact one
    theta0 = 0.5
    lam_tau = sw.mean_terminal_count(theta0)
    raw = sw.horizon - (lam_tau - sw.a * sw.horizon ** 2) / sw.b
    assert raw == pytest.approx(theta0, abs=1e-15)
    # Monte Carlo: within 4 delta-method standard errors
    n = 10_000
    s = simulate_sample((sw, theta0), n, RngStream(7, 0))
    est = moments_preliminary(sw, s)
    se = math.sqrt(lam_tau / (n * sw.b ** 2))
    assert abs(est.value - theta0) <= 4.0 * se
    # clamping
    tiny = s[:1]
    many = [t for t in s.trajectories if len(t) >= 4][:1]
    assert moments_preliminary(sw, Sample.from_trajectories(many, s.horizon)).value >= sw.theta_interval.alpha
    with pytest.raises(CapabilityError):
        moments_preliminary(pl.make_model("REGULAR_EXP"), s)


def test_two_stage_needs_nine():
    sw = pl.make_model("SUFFWIN_LINEAR")
    s = simulate_sample((sw, 0.5), 8, RngStream(8, 0))
    with pytest.raises(PreconditionError):
        two_stage(sw, s, stage="sufficient-window")


def test_two_stage_sufficient_window_improves_on_preliminary():
    sw = pl.make_model("SUFFWIN_LINEAR")  # a=1, b=2
    theta0, n, reps = 0.5, 2500, 500
    settings = EstimatorSettings(grid_size=1001, localize=True, estimators=("mle",))
    better = 0
    n1 = math.isqrt(n)
    for r in range(reps):
        s = simulate_sample((sw, theta0), n, RngStream(1000 + r, 0))
        prelim = moments_preliminary(sw, s[:n1])
        final = two_stage(sw, s, settings, stage="sufficient-window")
        win = pl.sufficient_window(prelim.value, n, sw.horizon)
        assert win.intervals[0][0] <= final.value <= win.intervals[0][1]
        if abs(final.value - theta0) <= abs(prelim.value - theta0):
            better += 1
    assert better >= 0.80 * reps, better


def test_two_stage_optimal_window_runs():
    ws = pl.make_model("WINDOW_SINE")
    s = simulate_sample((ws, 0.5), 100, RngStream(9, 0))
    settings = EstimatorSettings(grid_size=801)
    est = two_stage(ws, s, settings, stage="optimal-window", mu_star=0.5)
    assert est.method == "two-stage"
    assert abs(est.value - 0.5) < 0.5
    with pytest.raises(ConfigurationError):
        two_stage(ws, s, settings, stage="optimal-window")


def test_disc_fisher_kink_can_return_exact_kink():
    # at theta0=1 the curve's kink point competes as a candidate; over many
    # replicates some land exactly on it (the finite-n image of the atom)
    disc = pl.make_model("DISCFI_KINK")
    settings = EstimatorSettings(grid_size=513)
    hits = 0
    for r in range(60):
        s = simulate_sample((disc, 1.0), 300, RngStream(40 + r, 0))
        est = mle(disc, s, settings)
        if est.value == 1.0:
            hits += 1
    assert hits > 0


def test_jump_shift_mle_localized_matches_full():
    js = pl.make_model("JUMP_SHIFT")
    for seed in range(5):
        s = simulate_sample((js, 0.5), 60, RngStream(20 + seed, 0))
        full = mle(js, s, EstimatorSettings(grid_size=401, localize=False))
        local = mle(js, s, EstimatorSettings(grid_size=401, localize=True))
        assert local.value == pytest.approx(full.value, abs=1e-12), seed


def test_cusp_zoom_refines():
    cusp = pl.make_model("CUSP")
    s = simulate_sample((cusp, 0.5), 400, RngStream(30, 0))
    coarse = mle(cusp, s, EstimatorSettings(grid_size=257, zoom_rounds=0, refine=False))
    fine = mle(cusp, s, EstimatorSettings(grid_size=257, zoom_rounds=6, refine=False))
    assert fine.objective_at_value >= coarse.objective_at_value - 1e-12
    # the zoomed argmax genuinely dominates a dense-grid scan
    from poislim.likelihood import LikelihoodEvaluator
    ev = LikelihoodEvaluator(cusp)
    events = ev.prepare_events(s)
    dense = np.linspace(cusp.theta_interval.alpha, cusp.theta_interval.beta, 20001)
    assert fine.objective_at_value >= ev.values(dense, s, events).max() - 1e-6
