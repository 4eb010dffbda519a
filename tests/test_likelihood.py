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


def test_one_theta_likelihoods_take_direct_event_sums(monkeypatch):
    # a one-theta call builds no end-row anchors (2B + 2 event sums of N terms
    # on JUMP_SHIFT): one event_log_sums call of N pairs per theta
    model = pl.make_model("JUMP_SHIFT")
    s = simulate_sample((model, 0.5), 400, RngStream(3, 0))
    n_events = sum(tr.events.size for tr in s.trajectories)
    calls = []
    generic = type(model).event_log_sums

    def spy(self, thetas, events, theta_side=0, **kwargs):
        calls.append(np.size(thetas) * np.size(events))
        return generic(self, thetas, events, theta_side, **kwargs)

    monkeypatch.setattr(type(model), "event_log_sums", spy)
    for theta in (0.3, 0.5, 0.71):
        calls.clear()
        got = log_likelihood(model, theta, s)
        assert calls == [n_events]
        assert got == pytest.approx(naive_log_likelihood(model, theta, s), rel=1e-12)
    calls.clear()
    log_z = normalized_lr(model, 0.5, 10.0, 1.0, s, log=True)
    assert calls == [n_events, n_events]
    # each of the two values within rel 1e-12, so their difference within the sum of those
    shifted, at_0 = naive_log_likelihood(model, 0.525, s), naive_log_likelihood(model, 0.5, s)
    assert log_z == pytest.approx(shifted - at_0, abs=1e-12 * (abs(shifted) + abs(at_0)))


def _lr_moment_check(model, theta0, u, rate, n, reps, seed):
    """E[Z] = 1 and E[sqrt(Z)] = exp(-n*hellinger/2), within 4 standard errors."""
    phi = float(n) ** (-rate)
    target_sqrt = math.exp(-0.5 * n * pl.hellinger_sq(model, theta0, theta0 + phi * u))
    zs = np.empty(reps)
    true_int = pl.TrueIntensity.from_model(model, theta0)
    for r in range(reps):
        ev = LikelihoodEvaluator(model, simulate_sample(true_int, n, RngStream(seed, r * 1024)))
        diff = ev.value(theta0 + phi * u) - ev.value(theta0)
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


@pytest.mark.parametrize("family, sides", [("CUSP", [0]), ("CHANGEPOINT", [-1, 1]),
                                           ("REGULAR_EXP", [])])
def test_sides_evaluates_each_breakpoint_once_per_side(family, sides, monkeypatch):
    # a kink family's one side-0 array serves both sides; a family without
    # breakpoints makes no call
    model = pl.make_model(family)
    s = simulate_sample((model, model.theta_interval.midpoint), 20, RngStream(12, 0))
    ev = LikelihoodEvaluator(model, s)
    calls = []
    event_sums = LikelihoodEvaluator.event_sums

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas)))
        return event_sums(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "event_sums", counted)
    left, right = ev.sides
    assert ev.sides[0] is left
    assert [side for side, _ in calls] == sides
    assert all(np.array_equal(th, ev.breaks) for _, th in calls)
    assert left.shape == right.shape == ev.breaks.shape
    monkeypatch.undo()
    if family == "CUSP":
        assert left is right
        assert np.array_equal(left, ev.values(ev.breaks))
    curve = likelihood_curve(model, s, 101)
    assert np.array_equal(curve.break_left, left) and np.array_equal(curve.break_right, right)


@pytest.mark.parametrize("family", ["CUSP", "CHANGEPOINT"])
def test_likelihood_curve_evaluates_each_theta_once(family, monkeypatch):
    # a kink family's curve takes its breakpoint values from sides; a jump
    # family evaluates its breakpoints on side 0 as well as on both sides
    model = pl.make_model(family)
    s = simulate_sample((model, model.theta_interval.midpoint), 30, RngStream(13, 0))
    calls = []
    event_sums = LikelihoodEvaluator.event_sums

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas).size))
        return event_sums(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "event_sums", counted)
    curve = likelihood_curve(model, s, 101)
    monkeypatch.undo()
    breaks = curve.break_thetas.size
    assert breaks > 0
    if family == "CUSP":
        assert calls == [(0, breaks), (0, curve.thetas.size - breaks)]
    else:
        assert calls == [(-1, breaks), (1, breaks), (0, curve.thetas.size)]
    ev = LikelihoodEvaluator(model, s)
    assert np.array_equal(curve.values, ev.values(curve.thetas))


def test_grid_size_validation():
    c = pl.make_model("CONSTANT")
    s = one_event_sample(0.5)
    with pytest.raises(DomainError):
        likelihood_curve(c, s, 2)


_SLOPED = {
    "JUMP_SHIFT": pl.make_model("JUMP_SHIFT"),
    "JUMP_SHIFT c1<0": pl.make_model("JUMP_SHIFT", {"c0": 3.0, "c1": -0.5}),
    "JUMP_SHIFT r<0": pl.make_model("JUMP_SHIFT", {"r": -1.0}),
}


def _anchor_of(ev, theta, j):
    """(position, side) of the end row that anchor j of ``ev`` reads."""
    iv = ev.model.theta_interval
    edges = np.concatenate([[iv.alpha], ev.breaks, [iv.beta]])
    segments = edges.size - 1
    left = j < segments
    k = j if left else j - segments
    at = edges[k] if left else edges[k + 1]
    on_edge = at in (iv.alpha, iv.beta)
    return at, 0 if on_edge else (1 if left else -1)


@pytest.mark.parametrize("name", list(_SLOPED))
@pytest.mark.parametrize("n", [20, 100, 400, 1600])
def test_anchor_series_stays_within_its_bound(name, n):
    # inside a segment the event sum comes from the nearer end's row and its
    # series in delta.  It stays within 2R + E (E the anchors' error) of the
    # row-loop sums, and its series part within the tail after the anchor's
    # order (plus rounding) of the exact sum of log(1 + s*delta/lambda_i)
    model = _SLOPED[name]
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), n, RngStream(31, n))
    ev = LikelihoodEvaluator(model, s)
    big_n, rounding, slope = ev.events.size, model.event_sum_rounding(ev.events.size), model.c1
    edges = np.concatenate([[iv.alpha], ev.breaks, [iv.beta]])
    frac = np.array([0.01, 0.2, 0.45, 0.5, 0.55, 0.8, 0.99])
    thetas = (edges[:-1, None] + frac[None, :] * np.diff(edges)[:, None]).ravel()
    got = ev.event_sums(thetas)
    rows = [float(model.log_value(th, ev.events).sum()) for th in thetas]
    assert np.all(np.abs(got - rows) <= 2.0 * rounding + ev._limits[3].error), name
    anchors = ev._limits[3]
    j, delta, served = anchors.route(thetas)
    assert served.all(), name
    u = 2.0 ** -53
    every = max(1, thetas.size // 280)
    for th, jj, d, value in zip(*(x[::every] for x in (thetas, j, delta, got))):
        at, side = _anchor_of(ev, th, jj)
        lam = model.value(at, ev.events, side)
        anchor_sum = float(model.event_log_sums([at], ev.events, side)[0])
        exact = math.fsum(np.log1p(slope * d / lam))
        order = int(anchors.order[jj])
        x = abs(slope * d) / lam.min()
        tail = big_n * x ** (order + 1) / ((order + 1) * (1.0 - x))
        rounding_of_series = 2.0 * big_n * x / (1.0 - x) * (big_n + 5 * order) * u
        bound = tail + rounding_of_series + u * abs(value) + 4.0 * u * big_n * x
        assert abs((value - anchor_sum) - exact) <= bound, (name, th, order)


def test_values_do_not_depend_on_the_batch():
    # a theta's value depends on the evaluator and the theta only: anchored
    # thetas, thetas on breakpoints and on the edges, one by one or together
    for name, n in [("JUMP_SHIFT", 100), ("CHANGEPOINT", 100), ("JUMP_SHIFT", 5)]:
        model = pl.make_model(name)
        iv = model.theta_interval
        s = simulate_sample((model, iv.midpoint), n, RngStream(32, n))
        ev = LikelihoodEvaluator(model, s)
        rng = np.random.default_rng(5)
        thetas = np.concatenate([rng.uniform(iv.alpha, iv.beta, 200), ev.breaks[::7],
                                 [iv.alpha, iv.beta], iv.grid(101)])
        one_by_one = np.array([ev.value(th) for th in thetas])
        assert np.array_equal(ev.values(thetas), one_by_one), name
        fresh = LikelihoodEvaluator(model, s)
        assert np.array_equal(fresh.values(thetas[::-1]), one_by_one[::-1]), name


def test_steep_ramp_falls_back_to_direct_sums():
    # a small jump on a steep ramp, few events: near the middle of its widest
    # segments the tail bound of the highest order exceeds R, and those
    # thetas are evaluated directly, bit for bit
    model = pl.make_model("JUMP_SHIFT", {"r": 0.05, "c1": 2.0})
    iv = model.theta_interval
    s = simulate_sample((model, 0.5), 5, RngStream(3, 5))
    ev = LikelihoodEvaluator(model, s)
    thetas = iv.grid(4001)
    _, _, served = ev._limits[3].route(thetas)
    assert 0 < np.sum(~served) < thetas.size
    direct = model.event_log_sums(thetas, ev.events)
    got = ev.event_sums(thetas)
    assert np.array_equal(got[~served], direct[~served])
    rounding = model.event_sum_rounding(ev.events.size)
    assert np.all(np.abs(got - direct) <= 2.0 * rounding + ev._limits[3].error)


@pytest.mark.parametrize("name", ["CHANGEPOINT", "SUFFWIN_LINEAR"])
@pytest.mark.parametrize("n", [20, 400])
def test_slope_zero_sums_are_the_direct_sums(name, n):
    # log lambda is constant in theta on a segment: every theta inside one
    # takes the sum of its nearer end's row, the same float as a direct sum
    model = pl.make_model(name)
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), n, RngStream(33, n))
    ev = LikelihoodEvaluator(model, s)
    thetas = np.concatenate([iv.grid(4001), ev.breaks])
    _, _, served = ev._limits[3].route(thetas)
    assert served.sum() == 4001 - np.isin(iv.grid(4001), ev.breaks).sum()
    assert np.array_equal(ev.event_sums(thetas), model.event_log_sums(thetas, ev.events))
    assert ev._limits[3].error == 0.0


def test_an_edge_on_an_event_breakpoint_is_evaluated_directly():
    # an event at alpha: the side-0 row there is no limit from inside the first
    # segment, so it does not anchor it
    model = pl.make_model("CHANGEPOINT")
    s = Sample.from_trajectories([Trajectory(np.array([0.1, 0.3, 0.5, 0.7]), 1.0)], 1.0)
    ev = LikelihoodEvaluator(model, s)
    thetas = np.array([0.1, 0.12, 0.19, 0.25, 0.9])
    _, _, served = ev._limits[3].route(thetas)
    assert served.tolist() == [False, False, False, True, True]
    assert np.array_equal(ev.event_sums(thetas), model.event_log_sums(thetas, ev.events))
