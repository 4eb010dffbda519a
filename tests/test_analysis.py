import math

import numpy as np
import pytest
from scipy import optimize

import poislim as pl
from poislim import analysis
from poislim.analysis import golden_search, integrate, kl_objective_grid
from poislim.errors import (
    DegenerateCurvatureError,
    DomainError,
    PreconditionError,
    SingularityError,
)


def riemann(fn, a, b, n=1_000_000):
    """Dense midpoint Riemann sum: the independent quadrature oracle."""
    t = a + (b - a) * (np.arange(n) + 0.5) / n
    return float(np.sum(fn(t))) * (b - a) / n


def test_integrate_against_riemann():
    val = integrate(np.sin, 0.0, 2.0)
    assert val == pytest.approx(1.0 - math.cos(2.0), abs=1e-12)
    # piecewise split lands exactly on the discontinuity
    fn = lambda t: np.where(t < 0.3, 1.0, 4.0)
    assert integrate(fn, 0.0, 1.0, breakpoints=[0.3]) == pytest.approx(0.3 + 2.8, abs=1e-9)


def test_simpson_layout_matches_linspace_per_segment():
    edges = np.array([0.0, 0.3, 0.30001, 1.7, 2.0])
    panels = analysis._panel_counts(edges, 64, 4)
    assert panels.tolist() == [10, 4, 44, 10]  # floor(64 * share), at least 4, then even
    nodes, coeff, starts = analysis._simpson_layout(edges[:-1], edges[1:], panels)
    assert nodes.size == coeff.size == starts[-1] + panels[-1] + 1
    for s, a, b, p in zip(starts, edges[:-1], edges[1:], panels):
        assert np.array_equal(nodes[s:s + p + 1], np.linspace(a, b, p + 1))
        assert np.sum(coeff[s:s + p + 1]) == pytest.approx(b - a, rel=1e-13)
    # one call of the integrand covers every segment
    calls = []

    def fn(t):
        calls.append(t.size)
        return np.where(t < 0.3, 1.0, 4.0) * t

    assert integrate(fn, 0.0, 1.0, breakpoints=[0.6, 0.3]) == pytest.approx(
        0.045 + 2.0 * (1.0 - 0.09), rel=1e-12)
    assert len(calls) == 1


def test_golden_section():
    x = golden_search(lambda t: (t - 0.7) ** 2, 0.0, 2.0, tol=1e-11)
    assert x == pytest.approx(0.7, abs=1e-9)


def test_fisher_information_examples():
    disc = pl.make_model("DISCFI_KINK")
    assert pl.fisher_information(disc, 1.0, side="left") == pytest.approx(0.2, abs=1e-8)
    assert pl.fisher_information(disc, 1.0, side="right") == pytest.approx(1.0 / 3.0, abs=1e-8)
    null = pl.make_model("NULLFI_SINE")
    assert pl.fisher_information(null, 0.0) == pytest.approx(0.0, abs=1e-15)
    reg = pl.make_model("REGULAR_EXP")
    assert pl.fisher_information(reg, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("cid, theta, horizon", [
    ("REGULAR_EXP", 0.4, None),
    ("NULLFI_SINE", 0.4, None),
    ("WINDOW_SINE", 0.4, None),
    ("FREQ_MOD_SMOOTH", 1.0137, None),
    # a long record: the panel budget must grow with the horizon
    ("FREQ_MOD_SMOOTH", 1.0137, 4000.0),
])
def test_fisher_information_against_adaptive_oracle(cid, theta, horizon):
    from scipy.integrate import quad

    m = pl.make_model(cid, horizon=horizon)

    def integrand(t):
        dot = float(m.dtheta(theta, t, 1))
        return dot * dot / float(m.value(theta, t))

    # one adaptive call per unit of t
    edges = np.append(np.arange(0.0, m.horizon, 1.0), m.horizon)
    oracle = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                 for lo, hi in zip(edges[:-1], edges[1:]))
    assert pl.fisher_information(m, theta) == pytest.approx(oracle, rel=1e-8)


def test_higher_order_information_examples():
    null = pl.make_model("NULLFI_SINE")
    assert pl.higher_order_information(null, 0.0) == pytest.approx(0.1, abs=1e-8)
    reg = pl.make_model("REGULAR_EXP")
    assert pl.higher_order_information(reg, 0.0) == pytest.approx(1.0 / 252.0, rel=1e-7)
    ws = pl.make_model("WINDOW_SINE")  # third derivative vanishes identically
    assert pl.higher_order_information(ws, 0.3) == 0.0
    with pytest.raises(DomainError):
        pl.higher_order_information(reg, 0.0, order=2)


def test_hellinger_examples_and_symmetry():
    reg = pl.make_model("REGULAR_EXP")
    assert pl.hellinger_sq(reg, 0.3, 0.3) == 0.0
    oracle = riemann(lambda t: (np.sqrt(np.exp(0.2 * t)) - 1.0) ** 2, 0.0, 1.0)
    assert pl.hellinger_sq(reg, 0.0, 0.2) == pytest.approx(oracle, abs=1e-6)
    cp = pl.make_model("CHANGEPOINT", params={"g1": 1.0, "g2": 4.0})
    assert pl.hellinger_sq(cp, 0.3, 0.5) == pytest.approx(0.2, abs=1e-9)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t1, t2 = rng.uniform(-0.9, 0.9, 2)
        assert pl.hellinger_sq(reg, t1, t2) == pytest.approx(pl.hellinger_sq(reg, t2, t1), rel=1e-12)


def _sandwich(model, theta0, offsets, power):
    ratios = []
    for d in offsets:
        h = pl.hellinger_sq(model, theta0, theta0 + d)
        ratios.append(h / d ** power)
    return min(ratios), max(ratios)


def test_hellinger_quadratic_sandwich_regular():
    reg = pl.make_model("REGULAR_EXP")
    offsets = np.linspace(0.05, 0.45, 9)
    lo, hi = _sandwich(reg, 0.3, offsets, 2)
    assert lo > 0
    # constants fitted once on the grid: every ratio lies inside [lo, hi]
    for d in offsets:
        r = pl.hellinger_sq(reg, 0.3, 0.3 + d) / d ** 2
        assert lo - 1e-12 <= r <= hi + 1e-12
    assert hi / lo < 3.0  # genuinely quadratic: ratios stay bounded


def test_hellinger_sixth_power_near_null_information():
    null = pl.make_model("NULLFI_SINE")
    offsets = np.array([0.02, 0.04, 0.08, 0.16])
    lo, hi = _sandwich(null, 0.0, offsets, 6)
    assert lo > 0
    assert hi / lo < 4.0  # exponent 6 keeps the ratio bounded where power 2 would blow up
    lo2, hi2 = _sandwich(null, 0.0, offsets, 2)
    assert hi2 / lo2 > 1e3  # wrong exponent degenerates


def test_kl_objective_examples():
    cp = pl.make_model("CHANGEPOINT", params={"g1": 1.0, "g2": 2.0})
    true = pl.TrueIntensity.from_model(cp, 0.5)
    assert pl.kl_objective(true, cp, 0.5) == 0.0
    expect = 0.1 * (2.0 - 1.0 - math.log(2.0))
    oracle = riemann(lambda t: np.where((t >= 0.4) & (t < 0.5),
                                        2.0 - 1.0 - np.log(2.0), 0.0), 0.0, 1.0)
    val = pl.kl_objective(true, cp, 0.4)
    assert val == pytest.approx(expect, abs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-6)
    # nonnegative, zero only at theta0 for an identifiable family
    reg = pl.make_model("REGULAR_EXP")
    treg = pl.TrueIntensity.from_model(reg, 0.5)
    for th in np.linspace(-0.9, 0.9, 13):
        v = pl.kl_objective(treg, reg, th)
        assert v >= 0.0
        if abs(th - 0.5) > 0.05:
            assert v > 1e-4


def test_kl_objective_grid_matches_scalar():
    reg = pl.make_model("REGULAR_EXP")
    true = pl.TrueIntensity.from_model(reg, 0.2)
    thetas = np.linspace(-0.8, 0.8, 9)
    grid_vals = kl_objective_grid(true, reg, thetas)
    for th, gv in zip(thetas, grid_vals):
        assert gv == pytest.approx(pl.kl_objective(true, reg, th), rel=1e-6, abs=1e-12)
    cp = pl.make_model("CHANGEPOINT")
    tcp = pl.TrueIntensity.from_model(cp, 0.5)
    thetas = np.linspace(0.15, 0.85, 15)
    grid_vals = kl_objective_grid(tcp, cp, thetas)
    for th, gv in zip(thetas, grid_vals):
        assert gv == pytest.approx(pl.kl_objective(tcp, cp, th), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("cid, theta0, interval", [
    ("PHASE_MOD_DISC", 0.37, None),
    ("CHANGEPOINT", 0.5, (0.0, 1.0)),  # no t-breakpoint at theta = 0 and 1
])
def test_kl_objective_grid_matches_scalar_with_varying_breakpoints(cid, theta0, interval):
    m = pl.make_model(cid, theta_interval=interval) if interval else pl.make_model(cid)
    true = pl.TrueIntensity.from_model(m, theta0)
    thetas = m.theta_interval.grid(41)
    assert len({len(m.t_breakpoints(th)) for th in thetas}) > 1
    grid_vals = kl_objective_grid(true, m, thetas)
    for th, gv in zip(thetas, grid_vals):
        assert gv == pytest.approx(pl.kl_objective(true, m, th), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("block_nodes", [17, 17 * 40, 1 << 15])
def test_kl_objective_grid_values_do_not_depend_on_blocks(monkeypatch, block_nodes):
    # FREQ_MOD_DISC on a long record: the t-breakpoint count grows with theta,
    # so blocks of one theta, of a few thetas and of many all occur
    m = pl.make_model("FREQ_MOD_DISC", horizon=10.0)
    true = pl.TrueIntensity.from_model(m, 1.0137)
    thetas = m.theta_interval.grid(301)
    expect = kl_objective_grid(true, m, thetas)
    monkeypatch.setattr(analysis, "_KL_BLOCK_NODES", block_nodes)
    assert np.array_equal(kl_objective_grid(true, m, thetas), expect)
    singles = [kl_objective_grid(true, m, thetas[i:i + 1])[0] for i in (0, 150, 300)]
    assert np.array_equal(singles, expect[[0, 150, 300]])


@pytest.mark.parametrize("d", [1e-5, 1e-6])
def test_short_segments_keep_their_branch(d):
    # the only contribution is a segment of length d next to the jump at 0.5;
    # an endpoint nudge below float spacing would evaluate it on the far branch
    cp = pl.make_model("CHANGEPOINT")
    true = pl.TrueIntensity.changepoint(cp.g1, cp.g2, 0.0, 0.0, 0.5)
    kl_exact = (2.0 * math.log(2.0) - 1.0) * d
    assert pl.hellinger_sq(cp, 0.5, 0.5 + d) == pytest.approx(
        (math.sqrt(2.0) - 1.0) ** 2 * d, rel=1e-9)
    assert pl.kl_objective(true, cp, 0.5 + d) == pytest.approx(kl_exact, rel=1e-9)
    assert kl_objective_grid(true, cp, np.array([0.5 + d]))[0] == pytest.approx(kl_exact, rel=1e-9)


def test_theta_star_well_specified():
    for cid, th0 in (("REGULAR_EXP", 0.5), ("CHANGEPOINT", 0.5), ("WINDOW_SINE", 0.3)):
        m = pl.make_model(cid)
        true = pl.TrueIntensity.from_model(m, th0)
        assert pl.theta_star(true, m) == pytest.approx(th0, abs=2e-4)


def test_theta_star_consistency_region():
    # inside the region the minimizer stays at theta0, outside it drifts
    x = 2.0
    h1_max, _ = pl.consistency_region(x)
    cp = pl.make_model("CHANGEPOINT", params={"g1": 1.0, "g2": 2.0})
    inside = pl.TrueIntensity.changepoint(1.0, 2.0, 0.4, 0.0, 0.5)
    assert pl.theta_star(inside, cp) == pytest.approx(0.5, abs=1e-3)
    outside = pl.TrueIntensity.changepoint(1.0, 2.0, 0.5, 0.0, 0.5)
    drifted = pl.theta_star(outside, cp)
    assert abs(drifted - 0.5) > 0.05
    # brute-force oracle on a dense Riemann evaluation of the KL integrand
    thetas = np.linspace(cp.theta_interval.alpha, cp.theta_interval.beta, 2001)
    tgrid = np.linspace(0, 1, 100_001)[:-1] + 0.5e-5
    lam_true = outside.value(tgrid)
    best = None
    for th in thetas:
        lam = cp.value(th, tgrid)
        vals = lam - lam_true - lam_true * np.log(lam / lam_true)
        j = float(np.mean(vals))
        if best is None or j < best[1]:
            best = (th, j)
    assert drifted == pytest.approx(best[0], abs=2e-3)
    assert 0.4 < h1_max < 0.5  # the flip indeed happens between the probed h1 values


def test_misspec_asymptotics_well_specified():
    reg = pl.make_model("REGULAR_EXP")
    true = pl.TrueIntensity.from_model(reg, 0.5)
    ma = pl.misspec_asymptotics(true, reg)
    info = pl.fisher_information(reg, ma.theta_star)
    assert ma.theta_star == pytest.approx(0.5, abs=1e-6)
    assert ma.d_star_sq == pytest.approx(info, rel=1e-5)
    assert ma.i_star == pytest.approx(info, rel=1e-5)
    assert ma.d_big_sq == pytest.approx(1.0 / info, rel=1e-5)


def test_misspec_asymptotics_contaminated_vs_oracle():
    reg = pl.make_model("REGULAR_EXP")
    true = pl.TrueIntensity.contaminated(reg, 0.5, lambda t: np.full_like(t, 0.1), 0.1)
    ma = pl.misspec_asymptotics(true, reg)

    # theta* solves the first-order condition of the KL objective,
    # int_0^1 t e^(theta t) dt = int_0^1 t (e^(t/2) + 0.1) dt, in closed form
    def t_exp(a):  # int_0^1 t e^(a t) dt
        return (math.exp(a) * (a - 1.0) + 1.0) / a ** 2

    ts_oracle = optimize.brentq(lambda th: t_exp(th) - t_exp(0.5) - 0.05, 0.55, 0.65,
                                xtol=1e-14)
    assert ma.theta_star == pytest.approx(ts_oracle, abs=1e-6)

    tgrid = np.linspace(0, 1, 1_000_001)[:-1] + 0.5e-6
    lam_true = np.exp(0.5 * tgrid) + 0.1
    lam_star = np.exp(ma.theta_star * tgrid)
    d_oracle = float(np.mean(tgrid ** 2 * lam_star ** 2 * lam_true / lam_star ** 2))
    i_oracle = d_oracle + float(np.mean(tgrid ** 2 * lam_star * (1.0 - lam_true / lam_star)))
    assert ma.d_star_sq == pytest.approx(d_oracle, abs=1e-6)
    assert ma.i_star == pytest.approx(i_oracle, abs=1e-6)
    assert ma.d_big_sq == pytest.approx(d_oracle / i_oracle ** 2, abs=1e-6)


def test_misspec_degenerate_at_null_information():
    null = pl.make_model("NULLFI_SINE")
    true = pl.TrueIntensity.from_model(null, 0.0)
    with pytest.raises(DegenerateCurvatureError):
        pl.misspec_asymptotics(true, null)


def test_consistency_region_values():
    h1, h2 = pl.consistency_region(2.0)
    assert h1 == pytest.approx(1.0 / math.log(2.0) - 1.0, abs=1e-12)
    assert h2 == pytest.approx(1.0 / math.log(2.0) - 2.0, abs=1e-12)
    h1, h2 = pl.consistency_region(math.e)
    assert h1 == pytest.approx(math.e - 2.0, abs=1e-12)
    assert h2 == pytest.approx((math.e - 1.0) - math.e, abs=1e-12)  # = -1
    h1, h2 = pl.consistency_region(1.0 + 1e-10)
    assert h1 == pytest.approx(0.0, abs=1e-9)
    assert h2 == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        pl.consistency_region(1.0)
    with pytest.raises(DomainError):
        pl.consistency_region(0.5)


def test_nonident_covariance():
    nf = pl.make_model("NONIDENT_FIXED")
    single = pl.nonident_covariance(nf, [1.0])
    assert single.rho.shape == (1, 1) and single.rho[0, 0] == 1.0
    cov = pl.nonident_covariance(nf, [1.0, 2.0])
    assert np.all(np.diag(cov.rho) == 1.0)
    assert -1.0 <= cov.rho[0, 1] <= 1.0
    assert np.min(np.linalg.eigvalsh(cov.rho)) >= -1e-10
    assert cov.informations[0] == pytest.approx(31.0 / 30.0, rel=1e-9)
    assert cov.informations[1] == pytest.approx(38.0 / 15.0, rel=1e-9)
    # dense-grid oracle for the off-diagonal entry
    t = np.linspace(0, 1, 200_001)[:-1] + 2.5e-6
    cross = float(np.mean(nf.dtheta(1.0, t, 1) * nf.dtheta(2.0, t, 1) / nf.value(2.0, t)))
    expect = cross / math.sqrt(31.0 / 30.0 * 38.0 / 15.0)
    assert cov.rho[0, 1] == pytest.approx(expect, abs=1e-8)
    with pytest.raises(PreconditionError):
        pl.nonident_covariance(nf, [1.0, 1.5])


def test_fisher_windowed_and_singularity():
    ws = pl.make_model("WINDOW_SINE")
    win = [(0.1, 0.2), (0.6, 0.7)]
    manual = 4.0 * sum(
        (b - a) / 2.0 - (math.sin(2 * ws.omega * b) - math.sin(2 * ws.omega * a)) / (4 * ws.omega)
        for a, b in win)
    assert pl.fisher_information(ws, 0.4, window=win) == pytest.approx(manual, abs=1e-10)
    sw = pl.make_model("SUFFWIN_LINEAR", params={"a": 0.0, "b": 2.0})
    # lambda = 0 on [0, theta]: Fisher integrand undefined there
    with pytest.raises((SingularityError, DomainError)):
        pl.fisher_information(sw, 0.5)
