import math

import numpy as np
import pytest
from scipy.integrate import quad

import poislim as pl
from poislim.errors import DomainError
from poislim.likelihood import LikelihoodEvaluator, likelihood_curve, log_likelihood, normalized_lr
from poislim.simulate import RngStream, Sample, Trajectory, simulate_sample


def one_event_sample(t, horizon=1.0):
    return Sample.from_trajectories([Trajectory(np.array([t]), horizon)], horizon)


def naive_log_likelihood(model, theta, sample, window=None):
    """Independent per-event reference: math.log loop + adaptive quadrature."""
    intervals = window if window is not None else [(0.0, model.horizon)]
    total = 0.0
    for tr in sample.trajectories:
        for t in tr.events:
            if any(lo <= t <= hi for lo, hi in intervals):
                total += math.log(float(model.value(theta, t)))
    for lo, hi in intervals:
        breaks = [b for b in model.t_breakpoints(theta) if lo < b < hi]
        integ, _ = quad(lambda t: float(model.value(theta, t)) - 1.0, lo, hi,
                        points=breaks or None, limit=200)
        total -= sample.n * integ
    return total


def test_unit_intensity_gives_zero():
    c = pl.make_model("CONSTANT")
    s = simulate_sample((c, 1.0), 20, RngStream(0, 0))
    assert log_likelihood(c, 1.0, s) == 0.0


def test_single_event_closed_form():
    c = pl.make_model("CONSTANT")
    s = one_event_sample(0.5)
    for theta in (0.5, 2.0, 7.3):
        assert log_likelihood(c, theta, s) == pytest.approx(
            math.log(theta) - (theta - 1.0), abs=1e-12)


@pytest.mark.parametrize("cid,theta", [
    ("CONSTANT", 2.2), ("REGULAR_EXP", 0.4), ("NULLFI_SINE", -0.3),
    ("CHANGEPOINT", 0.45), ("JUMP_SHIFT", 0.6), ("CUSP", 0.33),
    ("WINDOW_SINE", 0.7), ("SUFFWIN_LINEAR", 0.52),
])
def test_against_naive_reference(cid, theta):
    model = pl.make_model(cid)
    for seed in range(3):
        s = simulate_sample((model, model.theta_interval.midpoint), 4, RngStream(seed, 0))
        mine = log_likelihood(model, theta, s)
        ref = naive_log_likelihood(model, theta, s)
        assert mine == pytest.approx(ref, abs=2e-9 * max(1.0, abs(ref)))


def test_window_additivity():
    reg = pl.make_model("REGULAR_EXP")
    rng = np.random.default_rng(4)
    s = simulate_sample((reg, 0.5), 30, RngStream(7, 0))
    for _ in range(5):
        cut = rng.uniform(0.2, 0.8)
        full = log_likelihood(reg, 0.3, s)
        left = log_likelihood(reg, 0.3, s, window=[(0.0, cut)])
        right = log_likelihood(reg, 0.3, s, window=[(cut, 1.0)])
        assert full == pytest.approx(left + right, abs=1e-10 * max(1, abs(full)))


def test_minus_inf_sentinel():
    sw = pl.make_model("SUFFWIN_LINEAR", params={"a": 0.0, "b": 2.0})
    s = one_event_sample(0.2)
    # event below the jump sees zero intensity: -inf, not an exception
    assert log_likelihood(sw, 0.5, s) == -np.inf
    assert log_likelihood(sw, 0.1, s) > -np.inf


def test_normalized_lr_contracts():
    reg = pl.make_model("REGULAR_EXP")
    s = simulate_sample((reg, 0.5), 50, RngStream(8, 0))
    assert normalized_lr(reg, 0.5, 0.0, 0.5, s) == 1.0
    with pytest.raises(DomainError, match="U_n"):
        normalized_lr(reg, 0.5, 100.0, 0.5, s)
    # log-space form agrees
    z = normalized_lr(reg, 0.5, 1.0, 0.5, s)
    lz = normalized_lr(reg, 0.5, 1.0, 0.5, s, log=True)
    assert z == pytest.approx(math.exp(lz), rel=1e-12)


def _lr_moment_check(model, theta0, u, rate, n, reps, seed):
    """E[Z] = 1 and E[sqrt(Z)] = exp(-n*hellinger/2), within 4 standard errors."""
    phi = float(n) ** (-rate)
    target_sqrt = math.exp(-0.5 * n * pl.hellinger_sq(model, theta0, theta0 + phi * u))
    zs = np.empty(reps)
    ev = LikelihoodEvaluator(model)
    true_int = pl.TrueIntensity.from_model(model, theta0)
    for r in range(reps):
        s = simulate_sample(true_int, n, RngStream(seed, r * 1024))
        events = ev.prepare_events(s)
        diff = ev.value(theta0 + phi * u, s, events) - ev.value(theta0, s, events)
        zs[r] = math.exp(diff)
    for vals, target in ((zs, 1.0), (np.sqrt(zs), target_sqrt)):
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 4.0 * se, (model.catalog_id, target, vals.mean(), se)


def test_lr_unit_expectation_and_hellinger_moment():
    # the strongest cross-module oracle: exact likelihood-ratio identities
    _lr_moment_check(pl.make_model("REGULAR_EXP"), 0.5, 1.0, 0.5, n=20, reps=4000, seed=21)
    _lr_moment_check(pl.make_model("NULLFI_SINE"), 0.0, 1.0, 1.0 / 6.0, n=20, reps=4000, seed=22)
    _lr_moment_check(pl.make_model("CHANGEPOINT"), 0.5, 1.0, 1.0, n=20, reps=4000, seed=23)


def test_likelihood_curve_flat(flat_model):
    s = simulate_sample(pl.TrueIntensity(fn=lambda t: np.ones_like(t), horizon=1.0,
                                         lambda_max=1.0), 10, RngStream(9, 0))
    curve = likelihood_curve(flat_model, s, 101)
    assert np.allclose(curve.values, curve.values[0])


def test_likelihood_curve_constant_model():
    c = pl.make_model("CONSTANT")
    s = simulate_sample((c, 3.0), 50, RngStream(10, 0))
    curve = likelihood_curve(c, s, 801)
    target = s.total_events() / s.n
    cell = c.theta_interval.width / 800
    assert abs(curve.thetas[np.argmax(curve.values)] - target) <= cell
    # curve values agree with pointwise evaluation
    for k in (0, 100, 400, 799):
        assert curve.values[k] == pytest.approx(
            log_likelihood(c, curve.thetas[k], s), rel=1e-12)


def test_likelihood_curve_sides_at_jumps():
    cp = pl.make_model("CHANGEPOINT")
    s = simulate_sample((cp, 0.5), 5, RngStream(11, 0))
    curve = likelihood_curve(cp, s, 101)
    inside = [t for tr in s.trajectories for t in tr.events if 0.1 < t < 0.9]
    assert curve.break_thetas.size == len(set(inside))
    # one-sided values straddle a genuine jump of size log(g2/g1) per event
    gaps = np.abs(curve.break_left - curve.break_right)
    assert np.all(gaps > 1e-12)


def test_grid_size_validation():
    c = pl.make_model("CONSTANT")
    s = one_event_sample(0.5)
    with pytest.raises(DomainError):
        likelihood_curve(c, s, 2)
