import math

import numpy as np
import pytest
from scipy import stats

import poislim as pl
from poislim.errors import CapabilityError, ConfigurationError, DomainError, PreconditionError
from poislim import estimators
from poislim.estimators import (EstimatorSettings, bayes, mle, moments_preliminary,
                                two_stage_window)
from poislim.intensity import ParameterInterval
from poislim.likelihood import LikelihoodEvaluator, likelihood_curve
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


def _bayes_reference(model, sample, settings, window=None):
    """The posterior mean segment by segment: one np.linspace, Simpson pattern and
    values call per segment, the nodes at a jump cut evaluated again one-sided."""
    iv = model.theta_interval
    ev = LikelihoodEvaluator(model, sample, window)
    jump_breaks = ev.breaks if model.event_breakpoints_are_jumps else np.empty(0)
    cuts = np.unique(np.concatenate([
        ev.breaks,
        np.array([k for k in model.theta_kinks if iv.alpha < k < iv.beta]),
    ]))
    edges = np.concatenate([[iv.alpha], cuts, [iv.beta]])
    shares = np.maximum(4, (estimators._BAYES_PANELS * np.diff(edges) / iv.width).astype(int))
    shares += shares % 2
    segments = []
    for a, b, p in zip(edges[:-1], edges[1:], shares):
        nodes = np.linspace(a, b, p + 1)
        vals = ev.values(nodes)
        if a in jump_breaks:
            vals[0] = ev.value(a, theta_side=+1)
        if b in jump_breaks:
            vals[-1] = ev.value(b, theta_side=-1)
        pattern = np.ones(p + 1)
        pattern[1:-1:2], pattern[2:-1:2] = 4.0, 2.0
        coeff = pattern / 3.0 * ((b - a) / p)
        segments.append((nodes, vals, coeff))
    max_ll = max(float(np.max(v)) for _, v, _ in segments)
    # the prior is normalized by its maximum over all nodes
    prior = np.split(estimators._prior_weights(settings.prior, np.concatenate(
        [nodes for nodes, _, _ in segments])), np.cumsum(shares + 1)[:-1])
    num = den = 0.0
    for (nodes, vals, coeff), p in zip(segments, prior):
        w = np.exp(vals - max_ll) * p
        mass, moment = w * coeff, w * nodes * coeff
        den += float(np.sum(mass))
        num += float(np.sum(moment))
    return estimators._clamp(num / den, iv)


DEFAULT = EstimatorSettings()


def _bayes_oracle_cases():
    cusp = pl.make_model("CUSP")
    iv = cusp.theta_interval
    grid = np.linspace(iv.alpha, iv.beta, 5)
    tilted = EstimatorSettings(prior=(grid, np.exp(8.0 * (grid - iv.alpha) / iv.width)))
    jump = pl.make_model("JUMP_SHIFT")
    return [
        ("CUSP", cusp, 40, DEFAULT, None),
        ("CUSP prior", cusp, 40, tilted, None),
        ("JUMP_SHIFT", jump, 60, DEFAULT, None),
        ("JUMP_SHIFT window", jump, 60, DEFAULT,
         [(0.0, 0.3 * jump.horizon), (0.45 * jump.horizon, 0.8 * jump.horizon)]),
        ("CHANGEPOINT", pl.make_model("CHANGEPOINT"), 40, DEFAULT, None),
        ("DISCFI_KINK", pl.make_model("DISCFI_KINK"), 40, DEFAULT, None),
        ("FREQ_MOD_DISC", pl.make_model("FREQ_MOD_DISC"), 3, DEFAULT, None),
        ("PHASE_MOD_DISC", pl.make_model("PHASE_MOD_DISC"), 20, DEFAULT, None),
    ]


@pytest.mark.parametrize("case", range(len(_bayes_oracle_cases())))
def test_bayes_matches_per_segment_reference(case, monkeypatch):
    # the one-pass node layout, its single evaluation of each (theta, side) and its
    # grouped segment sums reproduce the per-segment loop bit for bit
    name, model, n, settings, window = _bayes_oracle_cases()[case]
    iv = model.theta_interval
    s = simulate_sample((model, iv.alpha + 0.4 * iv.width), n, RngStream(21, case))
    expected = _bayes_reference(model, s, settings, window)
    seen = {-1: [], 0: [], 1: []}
    values = LikelihoodEvaluator.values

    def counted(self, thetas, theta_side=0):
        seen[theta_side].append(np.atleast_1d(thetas))
        return values(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "values", counted)
    est = bayes(model, s, settings, window)
    assert est.value == expected, name
    # every case cuts Theta: at sample breakpoints, or at DISCFI_KINK's declared kink
    breaks = LikelihoodEvaluator(model, s, window).breaks
    assert breaks.size or model.theta_kinks
    jumps = breaks if model.event_breakpoints_are_jumps else np.empty(0)
    thetas = {side: np.concatenate(calls or [np.empty(0)]) for side, calls in seen.items()}
    for side, th in thetas.items():
        assert np.unique(th).size == th.size, (name, side)
    # one-sided values at the jump cuts only, and none on side 0 there
    assert np.array_equal(thetas[-1], jumps) and np.array_equal(thetas[1], jumps), name
    assert not np.isin(jumps, thetas[0]).any(), name
    # a kink family's breakpoints once each, on side 0
    if not model.event_breakpoints_are_jumps:
        assert np.isin(breaks, thetas[0]).all(), name


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
        two_stage_window(sw, s, None, "sufficient")


def test_two_stage_sufficient_window_improves_on_preliminary():
    sw = pl.make_model("SUFFWIN_LINEAR")  # a=1, b=2
    theta0, n, reps = 0.5, 2500, 500
    settings = EstimatorSettings(grid_size=1001, estimators=("mle",))
    better = 0
    n1 = math.isqrt(n)
    for r in range(reps):
        s = simulate_sample((sw, theta0), n, RngStream(1000 + r, 0))
        prelim = moments_preliminary(sw, s[:n1])
        win, rest = two_stage_window(sw, s, settings, "sufficient")
        assert win == pl.sufficient_window(prelim, n, sw.horizon)
        assert np.array_equal(rest.events, s[n1:].events)
        final = mle(sw, rest, settings, window=win)
        assert win.intervals[0][0] <= final.value <= win.intervals[0][1]
        if abs(final.value - theta0) <= abs(prelim.value - theta0):
            better += 1
    assert better >= 0.80 * reps, better


def test_two_stage_optimal_window_runs():
    ws = pl.make_model("WINDOW_SINE")
    s = simulate_sample((ws, 0.5), 100, RngStream(9, 0))
    settings = EstimatorSettings(grid_size=801)
    win, rest = two_stage_window(ws, s, settings, "optimal", mu_star=0.5)
    assert win == pl.optimal_window(ws, mle(ws, s[:10], settings).value, 0.5)
    assert rest.n == 90
    for final in (mle, bayes):
        assert abs(final(ws, rest, settings, window=win).value - 0.5) < 0.5
    with pytest.raises(ConfigurationError):
        two_stage_window(ws, s, settings, "optimal")
    with pytest.raises(DomainError):
        two_stage_window(ws, s, settings, "optimal-window", mu_star=0.5)


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


@pytest.mark.parametrize("family, seed", [("JUMP_SHIFT", 78), ("CHANGEPOINT", 8),
                                          ("SUFFWIN_LINEAR", 19)])
def test_mle_attains_the_likelihood_maximum(family, seed):
    # on these samples a higher mode lies well away from the grid argmax, so a
    # search confined to a window around the grid argmax would miss it
    model = pl.make_model(family)
    s = simulate_sample((model, model.theta_interval.midpoint), 400, RngStream(seed, 0))
    curve = likelihood_curve(model, s, 4001)
    best = max(curve.values.max(), curve.break_left.max(), curve.break_right.max())
    assert mle(model, s).objective_at_value == best


def test_mle_evaluates_each_breakpoint_once_per_side(monkeypatch):
    # the zoom rounds read the breakpoints inside their windows off
    # LikelihoodEvaluator.sides instead of evaluating them again
    cusp = pl.make_model("CUSP")
    s = simulate_sample((cusp, 0.5), 400, RngStream(30, 0))
    calls = []
    values = LikelihoodEvaluator.values

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas).copy()))
        return values(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "values", counted)
    mle(cusp, s, EstimatorSettings(grid_size=257, zoom_rounds=3))
    monkeypatch.undo()
    breaks = LikelihoodEvaluator(cusp, s).breaks
    fine = [th for _, th in calls if th.size == 129]
    assert len(fine) == 3
    inside = [np.sum((breaks > th[0]) & (breaks < th[-1])) for th in fine]
    assert inside[0] > 0, inside
    for side in (-1, 0, 1):
        seen = np.sort(np.concatenate([th for sd, th in calls if sd == side] or [np.empty(0)]))
        hits = np.searchsorted(seen, breaks, side="right") - np.searchsorted(seen, breaks)
        assert hits.max() <= 1, side


def test_cusp_zoom_refines():
    cusp = pl.make_model("CUSP")
    s = simulate_sample((cusp, 0.5), 400, RngStream(30, 0))
    coarse = mle(cusp, s, EstimatorSettings(grid_size=257, zoom_rounds=0))
    fine = mle(cusp, s, EstimatorSettings(grid_size=257, zoom_rounds=6))
    assert fine.objective_at_value >= coarse.objective_at_value - 1e-12
    # the zoomed argmax genuinely dominates a dense-grid scan
    ev = LikelihoodEvaluator(cusp, s)
    dense = np.linspace(cusp.theta_interval.alpha, cusp.theta_interval.beta, 20001)
    assert fine.objective_at_value >= ev.values(dense).max() - 1e-6


def _exhaustive_mle(model, sample, settings=DEFAULT, window=None):
    # every grid point on side 0 and both sides of every breakpoint, G + 2B
    # candidates; the first maximum in (theta, side) order wins
    ev = LikelihoodEvaluator(model, sample, window)
    iv = model.theta_interval
    grid = np.linspace(iv.alpha, iv.beta, settings.grid_size)
    br = ev.breaks
    thetas = np.concatenate([grid, br, br])
    sides = np.repeat([0, -1, 1], [grid.size, br.size, br.size])
    vals = np.concatenate([ev.values(grid), ev.values(br, theta_side=-1),
                           ev.values(br, theta_side=1)])
    order = np.lexsort((sides, thetas))
    i = int(np.argmax(vals[order]))
    return float(thetas[order][i]), float(vals[order][i])


_BOUNDED = {
    "JUMP_SHIFT": pl.make_model("JUMP_SHIFT"),
    "JUMP_SHIFT c1<0": pl.make_model("JUMP_SHIFT", {"c0": 3.0, "c1": -0.5}),
    "JUMP_SHIFT r<0": pl.make_model("JUMP_SHIFT", {"r": -1.0}),
    "CHANGEPOINT": pl.make_model("CHANGEPOINT"),
    "SUFFWIN_LINEAR": pl.make_model("SUFFWIN_LINEAR"),
}


@pytest.mark.parametrize("name", list(_BOUNDED))
@pytest.mark.parametrize("n", [20, 100, 400, 1600])
def test_bounded_mle_equals_exhaustive_search(name, n, monkeypatch):
    # the slope bound skips grid points but returns the exhaustive argmax and
    # value bit for bit
    model = _BOUNDED[name]
    assert model.log_lik_slope_bound(n, 10, [(0.0, model.horizon)]) is not None
    iv = model.theta_interval
    evaluated = []
    values = LikelihoodEvaluator.values

    def counted(self, thetas, theta_side=0):
        if theta_side == 0:
            evaluated.append(np.size(thetas))
        return values(self, thetas, theta_side)

    for seed in range(4):
        s = simulate_sample((model, iv.alpha + 0.45 * iv.width), n, RngStream(300 + seed, n))
        expected = _exhaustive_mle(model, s)
        with monkeypatch.context() as m:
            m.setattr(LikelihoodEvaluator, "values", counted)
            est = mle(model, s)
        assert (est.value, est.objective_at_value) == expected, (name, n, seed)
    if n >= 400:
        # most of the grid is ruled out
        assert sum(evaluated) < DEFAULT.grid_size, (name, n, evaluated)


def test_bounded_mle_finds_an_interior_grid_maximum():
    # a small jump on a steep ramp: on these samples log L peaks inside a
    # segment, at a grid point, which the bound must keep
    model = pl.make_model("JUMP_SHIFT", {"r": 0.05, "c1": 2.0})
    for seed in (4, 5, 15, 20):
        s = simulate_sample((model, 0.5), 5, RngStream(seed, 0))
        expected = _exhaustive_mle(model, s)
        assert expected[0] not in LikelihoodEvaluator(model, s).breaks, seed
        est = mle(model, s)
        assert (est.value, est.objective_at_value) == expected, seed


@pytest.mark.parametrize("family", ["JUMP_SHIFT", "SUFFWIN_LINEAR"])
def test_bounded_mle_in_a_sufficient_window(family):
    # the final search of two-stage estimation runs on a window of Theta's neighbourhood
    model = pl.make_model(family)
    settings = EstimatorSettings(grid_size=1001, estimators=("mle",))
    n = 900
    n1 = math.isqrt(n)
    for seed in range(4):
        s = simulate_sample((model, 0.5), n, RngStream(400 + seed, 0))
        if family == "SUFFWIN_LINEAR":
            prelim = moments_preliminary(model, s[:n1])
        else:
            prelim = mle(model, s[:n1], settings)
        win, rest = two_stage_window(model, s, settings, "sufficient")
        assert win == pl.sufficient_window(prelim, n, model.horizon)
        est = mle(model, rest, settings, window=win)
        assert est.value == _exhaustive_mle(model, s[n1:], settings, win)[0], (family, seed)


def test_jump_shift_bound_falls_back_without_a_positive_floor(monkeypatch):
    # c0 + c1*alpha + min(r, 0) < 0: no slope bound, so mle evaluates the whole grid
    model = pl.make_model("JUMP_SHIFT", {"c0": 0.3, "c1": 0.5, "r": -0.5})
    assert model.log_lik_slope_bound(100, 300, [(0.0, model.horizon)]) is None
    s = simulate_sample((model, 0.5), 100, RngStream(7, 0))
    calls = []
    values = LikelihoodEvaluator.values

    def counted(self, thetas, theta_side=0):
        calls.append((theta_side, np.atleast_1d(thetas).size))
        return values(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "values", counted)
    est = mle(model, s)
    monkeypatch.undo()
    assert (est.value, est.objective_at_value) == _exhaustive_mle(model, s)
    assert (0, DEFAULT.grid_size) in calls


@pytest.mark.parametrize("name", list(_BOUNDED))
def test_slope_bound_holds_inside_segments(name):
    # log L moves by at most slope * dtheta between two thetas of one segment
    model = _BOUNDED[name]
    s = simulate_sample((model, model.theta_interval.midpoint), 200, RngStream(12, 0))
    ev = LikelihoodEvaluator(model, s)
    slope, rounding = model.log_lik_slope_bound(ev.n, ev.events.size, ev.intervals)
    assert 0.0 < rounding < 1e-6
    br = ev.breaks
    lo, hi = br[:-1] + 0.1 * np.diff(br), br[1:] - 0.1 * np.diff(br)
    step = np.abs(ev.values(hi) - ev.values(lo))
    assert np.all(step <= slope * (hi - lo) + 1e-9), name


def test_jump_shift_sides_are_the_limits_from_inside():
    # for some events t + (s_star - t) rounds away from s_star, yet the
    # one-sided values at each breakpoint are the limits of log L from inside
    # its two segments (a side test on t + theta read one jump off there)
    model = pl.make_model("JUMP_SHIFT", {"s_star": 2.9}, theta_interval=(0.0, 2.5), horizon=3.0)
    s = simulate_sample((model, 1.2), 30, RngStream(5, 0))
    ev = LikelihoodEvaluator(model, s)
    br = ev.breaks
    assert np.any(ev.events + (model.s_star - ev.events) != model.s_star)
    gap = 0.01 * np.min(np.diff(br))
    left, right = ev.sides
    assert np.allclose(left, ev.values(br - gap), rtol=0, atol=1e-3)
    assert np.allclose(right, ev.values(br + gap), rtol=0, atol=1e-3)
    est = mle(model, s)
    assert (est.value, est.objective_at_value) == _exhaustive_mle(model, s)


def test_estimators_of_one_sample_share_its_evaluator(monkeypatch):
    # one row evaluates each breakpoint once per side across mle and bayes
    from poislim.experiments import Scenario, _estimate_row

    scenario = Scenario.from_dict({"model": "JUMP_SHIFT", "theta0": 0.5, "n": [200],
                                   "replicates": 1, "seed": 3})
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    seen = {-1: [], 0: [], 1: []}
    values = LikelihoodEvaluator.values
    built = []

    def counted(self, thetas, theta_side=0):
        seen[theta_side].append(np.atleast_1d(thetas))
        built.append(self)
        return values(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "values", counted)
    row = _estimate_row(scenario, model, true_int, scenario.build_settings(), 200, 0, 0)
    monkeypatch.undo()
    assert row["status"] == "ok"
    assert len({id(ev) for ev in built}) == 1
    breaks = built[0].breaks
    assert breaks.size > 0
    for side in (-1, 1):
        assert np.array_equal(np.concatenate(seen[side]), breaks), side


def test_evaluator_must_match_its_sample():
    model = pl.make_model("JUMP_SHIFT")
    s = simulate_sample((model, 0.5), 50, RngStream(8, 0))
    other = LikelihoodEvaluator(model, s[:10])
    with pytest.raises(PreconditionError):
        mle(model, s, evaluator=other)
    with pytest.raises(PreconditionError):
        bayes(model, s, window=[(0.0, 0.5)], evaluator=LikelihoodEvaluator(model, s))
