import math

import numpy as np
import pytest
from scipy.integrate import quad

import poislim as pl
from poislim.likelihood import LikelihoodEvaluator, curve_grid
from poislim.simulate import RngStream, Sample, Trajectory, simulate_sample


def one_event_sample(t, horizon=1.0):
    return Sample.from_trajectories([Trajectory(np.array([t]), horizon)], horizon)


def log_l(model, theta, sample, window=None):
    """log L at one theta, from a fresh evaluator of the sample."""
    return LikelihoodEvaluator(model, sample, window).value(theta)


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
    assert log_l(c, 1.0, s) == 0.0


def test_single_event_closed_form():
    c = pl.make_model("CONSTANT")
    s = one_event_sample(0.5)
    for theta in (0.5, 2.0, 7.3):
        assert log_l(c, theta, s) == pytest.approx(
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
        mine = log_l(model, theta, s)
        ref = naive_log_likelihood(model, theta, s)
        assert mine == pytest.approx(ref, abs=2e-9 * max(1.0, abs(ref)))


def test_window_additivity():
    reg = pl.make_model("REGULAR_EXP")
    rng = np.random.default_rng(4)
    s = simulate_sample((reg, 0.5), 30, RngStream(7, 0))
    for _ in range(5):
        cut = rng.uniform(0.2, 0.8)
        full = log_l(reg, 0.3, s)
        left = log_l(reg, 0.3, s, window=[(0.0, cut)])
        right = log_l(reg, 0.3, s, window=[(cut, 1.0)])
        assert full == pytest.approx(left + right, abs=1e-10 * max(1, abs(full)))


def test_minus_inf_sentinel():
    sw = pl.make_model("SUFFWIN_LINEAR", params={"a": 0.0, "b": 2.0})
    s = one_event_sample(0.2)
    # event below the jump sees zero intensity: -inf, not an exception
    assert log_l(sw, 0.5, s) == -np.inf
    assert log_l(sw, 0.1, s) > -np.inf


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
    values = LikelihoodEvaluator(flat_model, s).values(curve_grid(flat_model, 101))
    assert np.allclose(values, values[0])


def test_likelihood_curve_constant_model():
    c = pl.make_model("CONSTANT")
    s = simulate_sample((c, 3.0), 50, RngStream(10, 0))
    grid = curve_grid(c, 801)
    values = LikelihoodEvaluator(c, s).values(grid)
    target = s.total_events() / s.n
    cell = c.theta_interval.width / 800
    assert abs(grid[np.argmax(values)] - target) <= cell
    # curve values agree with pointwise evaluation
    for k in (0, 100, 400, 799):
        assert values[k] == pytest.approx(log_l(c, grid[k], s), rel=1e-12)


def test_likelihood_curve_sides_at_jumps():
    cp = pl.make_model("CHANGEPOINT")
    s = simulate_sample((cp, 0.5), 5, RngStream(11, 0))
    ev = LikelihoodEvaluator(cp, s)
    inside = [t for tr in s.trajectories for t in tr.events if 0.1 < t < 0.9]
    assert ev.breaks.size == len(set(inside))
    # one-sided values straddle a genuine jump of size log(g2/g1) per event
    left, right = ev.sides
    assert np.all(np.abs(left - right) > 1e-12)


@pytest.mark.parametrize("family, sides", [("CUSP", [0]), ("CHANGEPOINT", [-1, 1]),
                                           ("REGULAR_EXP", [])])
def test_sides_evaluates_each_breakpoint_once_per_side(family, sides, monkeypatch, term_passes):
    # a jump family takes each side from one event_sums call; a kink family's
    # one side-0 pass over [alpha, *breaks, beta] serves both sides (and the
    # caps); a family without breakpoints makes no call
    model = pl.make_model(family)
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), 20, RngStream(12, 0))
    ev = LikelihoodEvaluator(model, s)
    calls = []
    event_sums = LikelihoodEvaluator.event_sums

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas)))
        return event_sums(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "event_sums", counted)
    left, right = ev.sides
    caps = ev.caps
    assert ev.sides[0] is left and (caps is None) == model.event_breakpoints_are_jumps
    if model.event_breakpoints_are_jumps:
        evaluated, expected = calls, ev.breaks
    else:
        evaluated, expected = term_passes, np.concatenate([[iv.alpha], ev.breaks, [iv.beta]])
        assert not calls
    assert [side for side, _ in evaluated] == sides
    assert all(np.array_equal(th, expected) for _, th in evaluated)
    assert left.shape == right.shape == ev.breaks.shape
    monkeypatch.undo()
    if family == "CUSP":
        assert left is right
        assert np.array_equal(left, ev.values(ev.breaks))


@pytest.mark.parametrize("family", ["CUSP", "CHANGEPOINT"])
def test_likelihood_curve_evaluates_each_theta_once(family, monkeypatch, term_passes):
    # log L over mle's grid and the breakpoints, from one evaluator: a kink
    # family's breakpoint values come from the one side-0 pass of sides,
    # which takes alpha and beta with them for the caps (the grid takes them
    # again); a jump family takes both sides there from its table, and the
    # grid off the breakpoints
    model = pl.make_model(family)
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), 30, RngStream(13, 0))
    ev = LikelihoodEvaluator(model, s)
    grid = curve_grid(model, 101)
    calls = []
    event_sums = LikelihoodEvaluator.event_sums

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas).size))
        return event_sums(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "event_sums", counted)
    left, right = ev.sides
    assert (ev.caps is None) == model.event_breakpoints_are_jumps
    off = grid[~np.isin(grid, ev.breaks)]
    values = ev.values(off)
    monkeypatch.undo()
    breaks = ev.breaks.size
    assert breaks > 0
    if family == "CUSP":
        edges = np.concatenate([[iv.alpha], ev.breaks, [iv.beta]])
        assert calls == [(0, off.size)]
        assert [side for side, _ in term_passes] == [0, 0]
        assert np.array_equal(term_passes[0][1], edges)
        assert np.array_equal(term_passes[1][1], off)
    else:
        assert calls == [(-1, breaks), (1, breaks), (0, off.size)]
        assert term_passes == []
    fresh = LikelihoodEvaluator(model, s)
    assert np.array_equal(values, fresh.values(off))
    if family == "CUSP":
        assert np.array_equal(left, fresh.values(ev.breaks))


_TABLED = {
    "JUMP_SHIFT": pl.make_model("JUMP_SHIFT"),
    "JUMP_SHIFT c1<0": pl.make_model("JUMP_SHIFT", {"c0": 3.0, "c1": -0.5}),
    "JUMP_SHIFT r<0": pl.make_model("JUMP_SHIFT", {"r": -1.0}),
    # a small jump on a steep ramp: two anchors
    "JUMP_SHIFT steep ramp": pl.make_model("JUMP_SHIFT", {"r": 0.05, "c1": 2.0}),
    "CHANGEPOINT": pl.make_model("CHANGEPOINT"),
    "SUFFWIN_LINEAR": pl.make_model("SUFFWIN_LINEAR"),
}
_U = 2.0 ** -53


def _table_check(ev, thetas, side):
    """Asserts the two bounds on the table's event sums at ``thetas``.

    The whole sum lies within E of math.fsum of the row-loop terms, with
    E = 2R + (N + 4)u*W + N*u + Q*(N + 5P + 5)*u + R*x/(2(1 - x)) where s != 0
    (R the family's rounding, W the largest sum of |log lambda_i| at an
    anchor, x the table's, Q = N*x/(1 - x)), and E = (N + 4)u*W where s = 0
    (the terms are the same floats at every theta of a segment).  Its series
    part, the sum less its entry L[j], lies within the tail after order P
    plus the rounding of the series of the exact sum of
    log1p(s*delta/lambda_i) over the intensities at the anchor: the sum over
    the events of |z_i|^(P+1)/((P+1)(1 - |z_i|)), z_i = s*delta/lambda_i,
    plus sum_p |c_p delta^p|*(N + 5p)*u for the coefficients, powers, running
    sums and Horner's rule, plus u*|sum| for the last addition, plus
    4u*sum|log1p(z_i)| + u*|reference| for the reference itself.
    """
    model, table, events = ev.model, ev._table, ev.events
    slope, big_n, order = model.event_term_slope(), events.size, ev._table.order
    events = events[np.argsort(model.event_branches(model.theta_interval.alpha, events)[0],
                               kind="stable")]
    rows = [model.event_branches(a, events)[1:] for a in table.anchors]
    logs = [np.maximum(np.abs(np.log(before)), np.abs(np.log(after))) for before, after in rows]
    big_w = max(float(w.sum()) for w in logs)
    bound = (big_n + 4) * _U * big_w
    if slope:
        rounding = model.event_sum_rounding(big_n)
        x = max(0.5 * abs(slope) * table.step / min(b.min(), a.min()) for b, a in rows)
        q = big_n * x / (1.0 - x)
        bound += (2.0 * rounding + big_n * _U + q * (big_n + 5 * order + 5) * _U
                  + rounding * x / (2.0 * (1.0 - x)))
    got = ev.event_sums(thetas, side)
    k, j, direct = table.locate(thetas, side)
    for theta, value, kk, jj, off in zip(thetas, got, k, j, direct):
        terms = model.log_value(theta, ev.events, side)
        assert abs(value - math.fsum(terms)) <= bound, (theta, side)
        if off or not slope:
            continue
        before, after = rows[kk]
        lam = np.concatenate([after[:jj], before[jj:]])
        delta = theta - table.anchors[kk]
        z = slope * delta / lam
        exact = np.log1p(z)
        reference = math.fsum(exact)
        at = kk * (big_n + 1) + jj
        series = value - table.logs[at]
        p = np.arange(1, order + 1)
        coeff = np.abs(table.coeff[:, at] * delta ** p)
        tail = float(np.sum(np.abs(z) ** (order + 1) / ((order + 1) * (1.0 - np.abs(z)))))
        slack = (tail + float(np.sum(coeff * (big_n + 5 * p))) * _U + _U * abs(value)
                 + 4.0 * _U * float(np.abs(exact).sum()) + _U * abs(reference))
        assert abs(series - reference) <= slack, (theta, side, order)


@pytest.mark.parametrize("name", list(_TABLED))
@pytest.mark.parametrize("n", [5, 20, 100, 400, 1600])
def test_table_sums_stay_within_their_bounds(name, n):
    # every grid point, breakpoint and random theta, on each side
    model = _TABLED[name]
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), n, RngStream(31, n))
    ev = LikelihoodEvaluator(model, s)
    rng = np.random.default_rng(n)
    thetas = np.concatenate([iv.grid(4001), ev.breaks, rng.uniform(iv.alpha, iv.beta, 200)])
    # at most about 2M row terms a side against math.fsum
    thetas = thetas[::max(1, thetas.size * ev.events.size // 2_000_000)]
    for side in (-1, 0, 1):
        _table_check(ev, thetas, side)


def test_table_series_bound_is_tight_on_one_event():
    # one event whose intensity is 1 + 1e-6 at alpha and grows by s*h/8 to the
    # anchor: x = 1/9 there, the most that the anchor spacing allows, so the
    # series needs order 15, and its last term (2.9u at alpha and beta) is
    # more than the series part's bound leaves (about 1.7u)
    model = pl.make_model("JUMP_SHIFT", {"c0": 1.000001 - 0.5 * 0.3, "c1": 0.5})
    s = Sample.from_trajectories([Trajectory(np.array([0.05]), 1.0)], 1.0)
    ev = LikelihoodEvaluator(model, s)
    iv = model.theta_interval
    assert ev._table.anchors.tolist() == [iv.midpoint] and ev._table.order == 15
    for side in (-1, 0, 1):
        _table_check(ev, iv.grid(101), side)


@pytest.mark.parametrize("name", ["JUMP_SHIFT", "CHANGEPOINT", "SUFFWIN_LINEAR"])
def test_table_leaves_side_0_breakpoints_to_direct_sums(name):
    # a side-0 theta on an event's breakpoint, alpha among them here, is not a
    # limit from either side: it takes its direct sum, bit for bit
    model = _TABLED[name]
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), 40, RngStream(33, 0))
    at_alpha = iv.alpha if name != "JUMP_SHIFT" else model.s_star - iv.alpha
    events = np.append(s.trajectories[0].events, at_alpha)
    s = Sample.from_trajectories([Trajectory(np.sort(events), 1.0), *s.trajectories[1:]], 1.0)
    ev = LikelihoodEvaluator(model, s)
    thetas = np.concatenate([[iv.alpha], ev.breaks])
    assert ev._table.locate(thetas, 0)[2].all()
    assert np.array_equal(ev.event_sums(thetas), model.event_log_sums(thetas, ev.events))


def test_table_gives_minus_inf_where_the_direct_sums_do():
    # a = 0: an event before theta sees zero intensity on the after-branch, so
    # every running sum past it is -inf; the table never subtracts one sum
    # from another, so no entry turns NaN
    model = pl.make_model("SUFFWIN_LINEAR", {"a": 0.0})
    iv = model.theta_interval
    s = simulate_sample((model, iv.midpoint), 30, RngStream(34, 0))
    ev = LikelihoodEvaluator(model, s)
    thetas = np.concatenate([iv.grid(401), ev.breaks])
    for side in (-1, 0, 1):
        got, direct = ev.event_sums(thetas, side), model.event_log_sums(thetas, ev.events, side)
        assert not np.isnan(got).any(), side
        assert np.array_equal(got == -np.inf, direct == -np.inf), side
        assert (got == -np.inf).any() and np.isfinite(got).any(), side
        finite = np.isfinite(direct)
        assert np.allclose(got[finite], direct[finite], rtol=0, atol=1e-12), side



def test_a_table_past_about_64_anchors_is_not_built():
    # lam_min = 0.01 and |c1|*|Theta| = 0.25 > 16*lam_min: JUMP_SHIFT states R
    # but declares no slope, so its event sums stay direct
    model = pl.make_model("JUMP_SHIFT", {"c0": 0.3, "r": -0.415})
    assert model.event_sum_rounding(100) is not None and model.event_term_slope() is None
    s = simulate_sample((model, 0.5), 20, RngStream(35, 0))
    ev = LikelihoodEvaluator(model, s)
    assert ev._table is None
    thetas = model.theta_interval.grid(101)
    assert np.array_equal(ev.event_sums(thetas), model.event_log_sums(thetas, ev.events))

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
