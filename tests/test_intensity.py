import math

import numpy as np
import pytest

import poislim as pl
from poislim import intensity
from poislim.errors import CapabilityError, ConfigurationError, DomainError

SMOOTH_IDS = [cid for cid in pl.CATALOG if pl.make_model(cid).smoothness_order >= 1]
ALL_IDS = list(pl.CATALOG)


def interior_grid(model, k):
    iv = model.theta_interval
    pad = 0.02 * iv.width
    return np.linspace(iv.alpha + pad, iv.beta - pad, k)


def test_evaluate_examples():
    null = pl.make_model("NULLFI_SINE")
    for t in (0.0, 0.3, 1.0):
        assert pl.evaluate(null, 0.0, t) == pytest.approx(2.0, abs=0)
    disc = pl.make_model("DISCFI_KINK")
    for t in (0.0, 0.5, 1.0):
        assert pl.evaluate(disc, 1.0, t) == pytest.approx(15.0, abs=0)
    reg = pl.make_model("REGULAR_EXP")
    assert pl.evaluate(reg, 0.5, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)


def test_evaluate_domain_errors():
    reg = pl.make_model("REGULAR_EXP")
    with pytest.raises(DomainError, match="theta"):
        pl.evaluate(reg, 1.5, 0.5)
    with pytest.raises(DomainError, match="t "):
        pl.evaluate(reg, 0.5, 1.5)


def test_cumulative_examples():
    for cid in ("REGULAR_EXP", "CHANGEPOINT", "CUSP"):
        m = pl.make_model(cid)
        assert pl.cumulative(m, m.theta_interval.midpoint, 0.0) == 0.0
    sw = pl.make_model("SUFFWIN_LINEAR", params={"a": 1.3, "b": 2.1})
    theta, tau = 0.37, sw.horizon
    assert pl.cumulative(sw, theta, tau) == pytest.approx(
        1.3 * tau ** 2 + 2.1 * (tau - theta), abs=1e-10)
    reg = pl.make_model("REGULAR_EXP")
    assert pl.cumulative(reg, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_cumulative_monotone(cid):
    m = pl.make_model(cid)
    rng = np.random.default_rng(5)
    theta = m.theta_interval.midpoint
    ts = np.sort(rng.uniform(0.0, m.horizon, 12))
    vals = [pl.cumulative(m, theta, t) for t in ts]
    assert all(b - a >= -1e-10 for a, b in zip(vals[:-1], vals[1:]))


def test_theta_derivative_examples():
    null = pl.make_model("NULLFI_SINE")
    t = np.array([0.1, 0.5, 0.9])
    assert np.allclose(pl.theta_derivative(null, 0.0, t, 1), 0.0)
    assert np.allclose(pl.theta_derivative(null, 0.0, t, 2), 0.0)
    assert np.allclose(pl.theta_derivative(null, 0.0, t, 3), 6.0 * t ** 2, rtol=1e-14)
    disc = pl.make_model("DISCFI_KINK")
    assert np.allclose(pl.theta_derivative(disc, 1.0, t, 1, side="left"), 3.0 * t)
    assert np.allclose(pl.theta_derivative(disc, 1.0, t, 1, side="right"), 5.0 * t ** 2)


def test_theta_derivative_errors():
    cusp = pl.make_model("CUSP")
    with pytest.raises(CapabilityError):
        pl.theta_derivative(cusp, 0.5, 0.3, 1)
    disc = pl.make_model("DISCFI_KINK")
    with pytest.raises(DomainError, match="side"):
        pl.theta_derivative(disc, 1.0, 0.3, 1)
    reg = pl.make_model("REGULAR_EXP")
    with pytest.raises(DomainError):
        pl.theta_derivative(reg, 0.5, 0.3, 4)


@pytest.mark.parametrize("cid", SMOOTH_IDS)
def test_first_derivative_matches_finite_difference(cid):
    m = pl.make_model(cid)
    thetas = interior_grid(m, 50)
    ts = np.linspace(0.0, m.horizon, 50)
    h = 1e-5
    for theta in thetas:
        analytic = m.dtheta(theta, ts, 1)
        fd = (m.value(theta + h, ts) - m.value(theta - h, ts)) / (2 * h)
        assert np.all(np.abs(analytic - fd) <= 1e-6 * (1.0 + np.abs(analytic))), cid


@pytest.mark.parametrize("cid", ALL_IDS)
def test_bounded_by_lambda_max(cid):
    m = pl.make_model(cid)
    th = np.linspace(m.theta_interval.alpha, m.theta_interval.beta, 100)
    tt = np.linspace(0.0, m.horizon, 100)
    vals = m.value(th[:, None], tt[None, :])
    assert np.max(vals) <= m.lambda_max * (1 + 1e-9)


@pytest.mark.parametrize("cid", ALL_IDS)
def test_integral_hint_against_adaptive_oracle(cid):
    from scipy.integrate import quad

    from poislim.analysis import integrate

    m = pl.make_model(cid)
    cases = [(m, interior_grid(m, 7))]
    if cid.startswith("FREQ_MOD"):
        # theta = 0 and negative frequencies: the 1/theta scaling and its limit
        neg = pl.make_model(cid, theta_interval=(-0.6, 0.4))
        cases.append((neg, np.append(interior_grid(neg, 7), 0.0)))
    # Simpson converges only algebraically across a cusp point, so the
    # package-quadrature cross-check gets a looser band there
    simpson_rel = 1e-4 if cid == "CUSP" else 1e-9
    spans = [(0.0, m.horizon), (0.13 * m.horizon, 0.71 * m.horizon)]
    for model, thetas in cases:
        for lo, hi in spans:
            hint = model.integral_hint(thetas, lo, hi)
            for i, th in enumerate(thetas):
                breaks = [b for b in model.t_breakpoints(th) if lo < b < hi]
                oracle, err = quad(lambda t, th=th: float(model.value(th, t)), lo, hi,
                                   points=breaks or None, limit=200)
                assert hint[i] == pytest.approx(oracle, rel=1e-8, abs=1e-9), (cid, th)
                simpson = integrate(lambda t, th=th: model.value(th, t), lo, hi, breakpoints=breaks)
                assert simpson == pytest.approx(oracle, rel=simpson_rel, abs=1e-9), (cid, th)


def test_nonident_fixed_truly_coincides():
    m = pl.make_model("NONIDENT_FIXED")
    t = np.linspace(0, 1, 201)
    assert np.allclose(m.value(1.0, t), m.value(2.0, t), atol=1e-15)
    assert np.allclose(m.value(1.0, t), 1.0)
    # distinct elsewhere and positive everywhere
    assert not np.allclose(m.value(1.5, t), m.value(1.0, t))
    th = np.linspace(0, 3, 301)
    assert np.min(m.value(th[:, None], t[None, :])) > 0


def test_side_conventions_at_breakpoints():
    cp = pl.make_model("CHANGEPOINT", params={"g1": 1.0, "g2": 2.0})
    # event exactly at theta: plain/left give g2, right limit gives g1
    assert cp.value(0.5, 0.5) == 2.0
    assert cp.value(0.5, 0.5, theta_side=-1) == 2.0
    assert cp.value(0.5, 0.5, theta_side=+1) == 1.0
    js = pl.make_model("JUMP_SHIFT")
    tj = js.s_star - 0.5
    lam_lo, lam_hi = js.jump_values()
    assert js.value(0.5, tj) == pytest.approx(lam_hi)
    assert js.value(0.5, tj, theta_side=-1) == pytest.approx(lam_lo)
    assert js.value(0.5, tj, theta_side=+1) == pytest.approx(lam_hi)
    sw = pl.make_model("SUFFWIN_LINEAR")
    assert sw.value(0.5, 0.5) == pytest.approx(2 * 0.5)
    assert sw.value(0.5, 0.5, theta_side=-1) == pytest.approx(2 * 0.5 + 2.0)


@pytest.mark.parametrize("cid, t", [
    ("PHASE_MOD_DISC", 0.25), ("PHASE_MOD_DISC", 0.75),
    ("FREQ_MOD_DISC", 2.0), ("FREQ_MOD_DISC", 4.0),
])
def test_disc_modulation_one_sided_values(cid, t):
    m = pl.make_model(cid)
    breaks = m.event_theta_breakpoints(np.array([t]))
    assert breaks.size >= 2
    for th in breaks:
        assert m.value(th, t, theta_side=-1) == m.value(th - 1e-9, t), th
        assert m.value(th, t, theta_side=+1) == m.value(th + 1e-9, t), th
    # every breakpoint of 300 events: theta_b * t_i may round off k/2, and the
    # one-sided value must still be the limit from the requested side
    sweep = np.random.default_rng(0).uniform(0.0, m.horizon, 300)
    mismatches = [(th, t_i, side) for t_i in sweep
                  for th in m.event_theta_breakpoints(np.array([t_i])) for side in (-1, 1)
                  if m.value(th, t_i, theta_side=side) != m.value(th + side * 1e-9, t_i)]
    assert mismatches == []
    pm = pl.make_model("PHASE_MOD_DISC")
    # y = t + theta: the base drops 3 -> 1 at y = 1/2 and rises 1 -> 3 at y = 1
    assert (pm.value(0.25, 0.25, theta_side=-1), pm.value(0.25, 0.25, theta_side=+1)) == (3.0, 1.0)
    assert (pm.value(0.25, 0.75, theta_side=-1), pm.value(0.25, 0.75, theta_side=+1)) == (1.0, 3.0)


GENERIC_SUM_IDS = [cid for cid in ALL_IDS
                   if pl.CATALOG[cid].event_log_sums is intensity.IntensityModel.event_log_sums]


@pytest.mark.parametrize("cid", GENERIC_SUM_IDS)
def test_event_log_sums_blocks_match_row_loop(cid):
    # the block size must not change a single bit: every block row is one
    # whole theta row, summed as the per-theta loop sums it
    m = pl.make_model(cid)
    rng = np.random.default_rng(3)
    for n_events, n_thetas in ((0, 4), (1, 16_001), (7, 5_000), (15_999, 3), (16_000, 3), (16_001, 3)):
        events = np.sort(rng.uniform(0.0, m.horizon, n_events))
        # theta counts that are no multiple of the block rows, plus a few
        # breakpoints, where the one-sided values differ
        thetas = np.concatenate([interior_grid(m, n_thetas),
                                 m.event_theta_breakpoints(events[:3])[:4]])
        for side in (-1, 0, 1):
            got = m.event_log_sums(thetas, events, theta_side=side)
            ref = np.array([m.log_value(th, events, side).sum() for th in thetas])
            assert np.array_equal(got, ref), (n_events, side)


def test_event_theta_breakpoints():
    js = pl.make_model("JUMP_SHIFT")
    ev = np.array([0.3, 0.6, 0.95])
    br = js.event_theta_breakpoints(ev)
    assert np.allclose(np.sort(br), np.sort([1.0 - 0.3, 1.0 - 0.6]))
    cusp = pl.make_model("CUSP")
    assert np.allclose(cusp.event_theta_breakpoints(np.array([0.1, 0.5, 0.9])), [0.5])


def test_parameter_interval_validation():
    with pytest.raises(ConfigurationError):
        intensity.ParameterInterval(1.0, 1.0)
    iv = intensity.ParameterInterval(0.0, 2.0)
    assert iv.contains(0.0) and not iv.contains(0.0, closed=False)


def test_construction_guards():
    with pytest.raises(ConfigurationError):
        pl.make_model("CUSP", params={"kappa": 0.7})
    with pytest.raises(ConfigurationError):
        pl.make_model("CHANGEPOINT", params={"g1": 2.0, "g2": 1.0})
    with pytest.raises(ConfigurationError):
        pl.make_model("JUMP_SHIFT", theta_interval=(1.5, 2.5))
    with pytest.raises(ConfigurationError):
        pl.make_model("NOT_A_MODEL")
    # lambda_max override must stay above the analytic bound
    with pytest.raises(ConfigurationError):
        pl.make_model("CONSTANT", params={"lambda_max_override": 1.0})
    m = pl.make_model("CONSTANT", params={"lambda_max_override": 25.0})
    assert m.lambda_max == 25.0


def test_true_intensity_constructors():
    reg = pl.make_model("REGULAR_EXP")
    ti = pl.TrueIntensity.from_model(reg, 0.5)
    t = np.linspace(0, 1, 5)
    assert np.allclose(ti.value(t), np.exp(0.5 * t))
    with pytest.raises(DomainError):
        pl.TrueIntensity.from_model(reg, 3.0)
    with pytest.raises(ConfigurationError):
        pl.TrueIntensity.contaminated(reg, 0.0, lambda t: -5.0 * np.ones_like(t), h_max=0.0)
    cp = pl.TrueIntensity.changepoint(1.0, 2.0, 0.25, -0.25, 0.5)
    assert np.allclose(cp.value(np.array([0.2, 0.8])), [1.25, 1.75])
    with pytest.raises(ConfigurationError):
        pl.TrueIntensity.changepoint(1.0, 2.0, -1.5, 0.0, 0.5)
