import math

import numpy as np
import pytest
from scipy import integrate, special

import poislim as pl
from poislim import intensity, limits
from poislim.errors import CapabilityError, ConfigurationError, DomainError, PreconditionError
from poislim.experiments import Scenario, run_scenario
from poislim.limits import (
    _JUMP_BLOCK,
    BoundaryParams,
    CuspParams,
    DiscFisherParams,
    JumpParams,
    MisspecifiedParams,
    NonidentParams,
    NullFisherParams,
    RegularParams,
    _JumpBlock,
    cusp_gamma_sq,
    limit_params,
    sample_limit_batch,
    simulate_fbm,
)
from poislim.simulate import RngStream


def test_limit_params_disc_fisher():
    disc = pl.make_model("DISCFI_KINK")
    lim = limit_params("disc-fisher", disc, 1.0)
    assert lim.info_left == pytest.approx(0.2, abs=1e-8)
    assert lim.info_right == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert lim.corr == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-10)
    assert lim.rate_exponent == 0.5


def test_limit_params_null_fisher():
    null = pl.make_model("NULLFI_SINE")
    lim = limit_params("null-fisher", null, 0.0)
    assert lim.i3 == pytest.approx(0.1, abs=1e-8)
    assert lim.rate_exponent == pytest.approx(1.0 / 6.0)


def test_limit_params_cusp_gamma_vanishes_as_kappa_to_zero():
    vals = [cusp_gamma_sq(1.0, 2.0, k) for k in (0.1, 0.08, 0.06, 0.04, 0.02, 0.01)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 0.02


@pytest.mark.parametrize("kappa", [0.1, 0.25, 0.4])
def test_cusp_gamma_sq_against_quad(kappa):
    # (a^2 / lam0) * integral of (|v - 1|^kappa - |v|^kappa)^2 over the real line; the
    # integrand is symmetric about v = 1/2, so twice the integral over [1/2, inf).
    # Past v = 2 it is taken in s = 1/v: s^(-2 kappa) ((1 - (1 - s)^kappa) / s)^2 on (0, 1/2]
    def f(v):
        return (abs(v - 1.0) ** kappa - abs(v) ** kappa) ** 2

    kw = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    half = sum(integrate.quad(f, lo, hi, **kw)[0] for lo, hi in ((0.5, 1.0), (1.0, 2.0)))

    def g(s):
        return kappa ** 2 if s == 0.0 else ((1.0 - (1.0 - s) ** kappa) / s) ** 2

    half += integrate.quad(g, 0.0, 0.5, weight="alg", wvar=(-2.0 * kappa, 0.0), **kw)[0]
    a, lam0 = 1.5, 2.0
    assert cusp_gamma_sq(a, lam0, kappa) == pytest.approx(a ** 2 / lam0 * 2.0 * half, rel=1e-12)


def test_limit_params_boundary_requires_endpoint():
    reg = pl.make_model("REGULAR_EXP", theta_interval=(0.5, 1.0))
    lim = limit_params("boundary", reg, 0.5)
    assert lim.orientation == 1.0
    lim2 = limit_params("boundary", reg, 1.0)
    assert lim2.orientation == -1.0
    with pytest.raises(PreconditionError):
        limit_params("boundary", reg, 0.7)


def test_limit_params_jump_and_capability():
    js = pl.make_model("JUMP_SHIFT")
    lim = limit_params("jump", js, 0.5)
    assert lim.lam_left == pytest.approx(2.5)
    assert lim.lam_right == pytest.approx(4.5)
    assert lim.rate_exponent == 1.0
    with pytest.raises(CapabilityError):
        limit_params("jump", pl.make_model("REGULAR_EXP"), 0.5)
    with pytest.raises(CapabilityError):
        limit_params("nonidentifiable", pl.make_model("REGULAR_EXP"), 0.5)


@pytest.mark.parametrize("model, regime, theta0", [
    ("NULLFI_SINE", "disc-fisher", 0.0),  # both one-sided informations vanish
    ("REGULAR_EXP", "regular", float("nan")),
    ("REGULAR_EXP", "null-fisher", float("nan")),
    ("REGULAR_EXP", "disc-fisher", float("nan")),
])
def test_limit_params_rejects_vanishing_or_nan_information(model, regime, theta0):
    with pytest.raises(PreconditionError):
        limit_params(regime, pl.make_model(model), theta0)


def test_regime_limit_validation():
    # the rate exponent is a class constant (cusp: 1/(2H)); each lies in (0, 1]
    assert all(0.0 < lim.rate_exponent <= 1.0 for lim in _all_regime_limits().values())
    with pytest.raises(ConfigurationError, match="I must be positive"):
        RegularParams(fisher_information=-1.0)
    with pytest.raises(DomainError):
        limit_params("not-a-regime", pl.make_model("REGULAR_EXP"), 0.5)
    with pytest.raises(ConfigurationError, match="gamma_sq"):
        CuspParams(kappa=0.25, hurst=0.75, gamma_sq=float("nan"))


def test_regular_sampler_variance():
    lim = RegularParams(fisher_information=4.0)
    d = sample_limit_batch(lim, RngStream(1, 0), "mle", 100_000)
    assert d.var() == pytest.approx(0.25, abs=0.005)
    assert sample_limit_batch(lim, RngStream(1, 0), "mle", 1)[0] == d[0]


def test_boundary_sampler_atom_and_half_normal():
    lim = BoundaryParams(fisher_information=1.0, orientation=1.0)
    d = sample_limit_batch(lim, RngStream(2, 0), "mle", 100_000)
    assert np.mean(d == 0.0) == pytest.approx(0.5, abs=0.005)
    nz = d[d > 0]
    ref = np.abs(RngStream(3, 0).generator().standard_normal(100_000))
    assert pl.ks_two_sample(nz, ref) < 0.01


def test_boundary_bayes_vs_erfcx_oracle():
    lim = BoundaryParams(fisher_information=2.0, orientation=1.0)
    d = sample_limit_batch(lim, RngStream(4, 0), "bayes", 20_000)
    zs = RngStream(4, 0).generator().standard_normal(20_000)
    oracle = (zs + np.sqrt(2.0 / np.pi) / special.erfcx(-zs / np.sqrt(2.0))) / math.sqrt(2.0)
    assert np.max(np.abs(d - oracle)) < 1e-6
    assert d.min() > 0.0  # no atom for the posterior-mean limit


def test_disc_fisher_sampler_branches():
    rho = math.sqrt(15.0) / 4.0
    lim = DiscFisherParams(info_left=0.2, info_right=1.0 / 3.0, corr=rho)
    d = sample_limit_batch(lim, RngStream(5, 0), "mle", 200_000)
    p0 = 0.25 - math.asin(rho) / (2.0 * math.pi)
    # bivariate-normal orthant oracle
    g = RngStream(77, 0).generator()
    z1 = g.standard_normal(400_000)
    z2 = rho * z1 + math.sqrt(1 - rho ** 2) * g.standard_normal(400_000)
    p0_mc = np.mean((z1 > 0) & (z2 < 0))
    assert p0 == pytest.approx(p0_mc, abs=0.002)
    assert np.mean(d == 0.0) == pytest.approx(p0, abs=0.005)
    # three-way classification sums to one
    neg = np.mean(d < 0)
    pos = np.mean(d > 0)
    zero = np.mean(d == 0)
    assert neg + pos + zero == 1.0
    db = sample_limit_batch(lim, RngStream(6, 0), "bayes", 2_000)
    hw = 20.0 / math.sqrt(0.2)
    assert np.all(np.abs(db) <= hw)


class _FixedNormals:
    """Stands in for a Generator: each standard_normal call returns the next given column."""

    def __init__(self, *columns):
        self.columns = [np.asarray(c, dtype=float) for c in columns]

    def standard_normal(self, size):
        return self.columns.pop(0)


def _posterior_mean_oracle(pieces):
    """integral u Z / integral Z by quad, Z = exp(log_z) on each (lo, hi, log_z, peak)
    piece; exponents are shifted by their common maximum so that none overflows."""
    top = max(log_z(peak) for _, _, log_z, peak in pieces)
    mass = first = 0.0
    for lo, hi, log_z, peak in pieces:
        points = [peak] if lo < peak < hi else None
        kw = dict(points=points, epsabs=0.0, epsrel=1e-13, limit=200)
        mass += integrate.quad(lambda u: math.exp(log_z(u) - top), lo, hi, **kw)[0]
        first += integrate.quad(lambda u: u * math.exp(log_z(u) - top), lo, hi, **kw)[0]
    return first / mass


@pytest.mark.parametrize("z", [-40.0, -35.0, -30.0, -2.0, 0.0, 1.5, 30.0, 35.0, 40.0])
@pytest.mark.parametrize("info, orientation", [(0.5, 1.0), (2.0, -1.0), (10.0, 1.0)])
def test_boundary_bayes_closed_form_against_quad(z, info, orientation):
    # at |z| >= 30 the old 40-wide Simpson grid truncated the mass and exp(z^2/2) overflowed
    lim = BoundaryParams(fisher_information=info, orientation=orientation)
    _, functionals = next(lim.draw(_FixedNormals([z]), 1))
    got = float(functionals["bayes"]()[0])
    scale = math.sqrt(info)
    peak = max(z, 0.0) / scale
    oracle = _posterior_mean_oracle([
        (0.0, peak + 60.0 / scale, lambda u: u * z * scale - u * u * info / 2.0, peak)])
    assert math.isfinite(got)
    assert got == pytest.approx(orientation * oracle, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("zl, zr", [(0.3, -0.4), (-2.0, 1.5), (1.2, 2.5), (-35.0, -30.0),
                                    (35.0, -35.0), (-40.0, 40.0), (30.0, 38.0), (-0.5, -40.0)])
@pytest.mark.parametrize("il, ir", [(0.2, 1.0 / 3.0), (10.0, 0.5)])
def test_disc_fisher_bayes_closed_form_against_quad(zl, zr, il, ir):
    # corr = 0 makes the second standard normal z_r exactly
    lim = DiscFisherParams(info_left=il, info_right=ir, corr=0.0)
    _, functionals = next(lim.draw(_FixedNormals([zl], [zr]), 1))
    got = float(functionals["bayes"]()[0])
    sl, sr = math.sqrt(il), math.sqrt(ir)
    peak_l, peak_r = min(zl, 0.0) / sl, max(zr, 0.0) / sr
    oracle = _posterior_mean_oracle([
        (peak_l - 60.0 / sl, 0.0, lambda u: u * zl * sl - u * u * il / 2.0, peak_l),
        (0.0, peak_r + 60.0 / sr, lambda u: u * zr * sr - u * u * ir / 2.0, peak_r)])
    assert math.isfinite(got)
    assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_null_fisher_sampler_moments():
    lim = NullFisherParams(i3=0.1)
    d = sample_limit_batch(lim, RngStream(7, 0), "mle", 200_000)
    # E[((zeta/I3)^(1/3))^2] with zeta ~ N(0, I3): closed Gamma-moment form
    i3 = 0.1
    sigma = math.sqrt(i3)
    expect = (sigma / i3) ** (2.0 / 3.0) * 2 ** (1.0 / 3.0) * special.gamma(5.0 / 6.0) / math.sqrt(math.pi)
    assert d.var() == pytest.approx(expect, rel=0.02)
    db = sample_limit_batch(lim, RngStream(8, 0), "bayes", 1_000)
    assert np.all(np.abs(db) <= 8.0 / i3 ** (1.0 / 6.0))


# Per-draw reference: the scalar jump sampler the batched kernels must match bit for bit.
def _jump_mle_one(tp, tm, log_ratio, drift, u_max):
    best_u, best_v = 0.0, 0.0
    ks = np.arange(1, tp.size + 1)
    for times, counts in ((tp, ks), (tp, ks - 1)):
        if times.size:
            vals = log_ratio * counts - drift * times
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_u, best_v = float(times[i]), float(vals[i])
    tail = log_ratio * tp.size - drift * u_max
    if tail > best_v:
        best_u, best_v = u_max, tail
    ms = np.arange(1, tm.size + 1)
    for times, counts in ((tm, ms), (tm, ms - 1)):
        if times.size:
            vals = -log_ratio * counts + drift * times
            i = int(np.argmax(vals))
            if vals[i] > best_v:
                best_u, best_v = -float(times[i]), float(vals[i])
    tail = -log_ratio * tm.size + drift * u_max
    if tail > best_v:
        best_u, best_v = -u_max, tail
    return best_u


def _jump_seg_sums(edges, levels, r, m):
    a, b = edges[:-1], edges[1:]
    if abs(r) < 1e-14:
        amp = np.exp(levels - m)
        i0 = amp * (b - a)
        i1 = amp * 0.5 * (b * b - a * a)
    else:
        ea, eb = np.exp(levels - m - r * a), np.exp(levels - m - r * b)
        i0 = (ea - eb) / r
        i1 = (a / r + 1.0 / r ** 2) * ea - (b / r + 1.0 / r ** 2) * eb
    return float(i0.sum()), float(i1.sum())


def _jump_seg_peak(edges, levels, r):
    # exp(level - r*s) is largest at a segment's left end for r >= 0, else its right end
    return float(np.max(levels - r * (edges[:-1] if r >= 0 else edges[1:])))


def _jump_bayes_one(tp, tm, log_ratio, drift, u_max):
    edges_p = np.concatenate([[0.0], tp, [u_max]])
    levels_p = log_ratio * np.arange(tp.size + 1)
    edges_m = np.concatenate([[0.0], tm, [u_max]])
    levels_m = -log_ratio * np.arange(tm.size + 1)
    m = max(_jump_seg_peak(edges_p, levels_p, drift), _jump_seg_peak(edges_m, levels_m, -drift))
    den_p, num_p = _jump_seg_sums(edges_p, levels_p, drift, m)
    den_m, num_m = _jump_seg_sums(edges_m, levels_m, -drift, m)
    return (num_p - num_m) / (den_p + den_m)


def _jump_reference(limit, rng, which, size):
    g = rng.generator()
    u_max = limit.u_halfwidth
    log_ratio = math.log(limit.lam_right / limit.lam_left)
    drift = limit.lam_right - limit.lam_left
    n_plus = g.poisson(limit.lam_left * u_max, size)
    n_minus = g.poisson(limit.lam_right * u_max, size)
    fn = _jump_mle_one if which == "mle" else _jump_bayes_one
    out = np.empty(size)
    for i in range(size):
        tp = np.sort(g.uniform(0.0, u_max, n_plus[i]))
        tm = np.sort(g.uniform(0.0, u_max, n_minus[i]))
        out[i] = fn(tp, tm, log_ratio, drift, u_max)
    return out


def _jump_one(which, tp, tm, log_ratio, drift, u_max):
    """One draw through the batched block: each side is one tile of one row."""
    block = _JumpBlock(np.concatenate([tp, tm]), np.array([[tp.size, tm.size]]),
                       log_ratio, drift, u_max)
    return float(getattr(block, which)()[0])


def _tile_rows(rate, halfwidth):
    """The draws that one tile holds on a side whose every count is its mean."""
    return intensity._BLOCK_PAIRS // (round(rate * halfwidth) + 2)


def _assert_tiles_match_per_draw_loop(lim, rng):
    """Both estimators' draws at sizes on both sides of one tile and one block."""
    tile = _tile_rows(max(lim.lam_left, lim.lam_right), lim.u_halfwidth)
    for size in sorted({1, tile - 1, tile + 1, _JUMP_BLOCK + 1} - {0}):
        got = sample_limit_batch(lim, rng, ["mle", "bayes"], size)
        for row, which in zip(got, ("mle", "bayes")):
            assert np.array_equal(row, _jump_reference(lim, rng, which, size)), (size, which)


@pytest.mark.parametrize("which", ["mle", "bayes"])
@pytest.mark.parametrize("seed", [1, 7919])
def test_jump_sampler_matches_per_draw_loop(which, seed):
    lim = JumpParams(lam_left=2.5, lam_right=4.5, u_halfwidth=60.0)
    tiles = [_tile_rows(rate, 60.0) + d for rate in (2.5, 4.5) for d in (-1, 1)]
    for size in (1, 5, *tiles, _JUMP_BLOCK - 1, _JUMP_BLOCK + 1, 8000):
        got = sample_limit_batch(lim, RngStream(seed, size), which, size)
        assert np.array_equal(got, _jump_reference(lim, RngStream(seed, size), which, size)), size


@pytest.mark.parametrize("halfwidth", [60.0, 750.0])
@pytest.mark.parametrize("rates", [(2.5, 4.5), (4.5, 2.5), (3.0, 3.0)])
def test_jump_tiles_match_per_draw_loop(rates, halfwidth):
    # as for half-width 0.4 above; at 750 a tile holds a few rows of thousands
    # of events
    lim = JumpParams(lam_left=rates[0], lam_right=rates[1], u_halfwidth=halfwidth)
    _assert_tiles_match_per_draw_loop(lim, RngStream(6, 0))


def test_jump_draws_do_not_depend_on_tiles_or_blocks(monkeypatch):
    lim = JumpParams(lam_left=2.5, lam_right=4.5, u_halfwidth=60.0)
    want = sample_limit_batch(lim, RngStream(8, 0), ["mle", "bayes"], 300)
    for pairs, block in ((1, 7), (500, 64), (10 ** 7, 300)):
        monkeypatch.setattr(intensity, "_BLOCK_PAIRS", pairs)  # 1: one row per tile
        monkeypatch.setattr(limits, "_JUMP_BLOCK", block)
        got = sample_limit_batch(lim, RngStream(8, 0), ["mle", "bayes"], 300)
        assert np.array_equal(got, want), (pairs, block)


@pytest.mark.parametrize("rates", [(2.5, 4.5), (4.5, 2.5), (3.0, 3.0), (1.0, 2.0)])
def test_jump_bayes_peak_is_the_mle_best_value(rates):
    # the m that bayes takes its exponents against, per draw the largest of
    # log Z at the segment ends, is the mle's best value bit for bit
    lam_left, lam_right = rates
    u_max, log_ratio, drift = 30.0, math.log(lam_right / lam_left), lam_right - lam_left
    rng = np.random.default_rng(17)
    sides = [(np.sort(rng.uniform(0.0, u_max, rng.poisson(lam_left * u_max))),
              np.sort(rng.uniform(0.0, u_max, rng.poisson(lam_right * u_max))))
             for _ in range(400)]
    sides[0] = (np.empty(0), np.empty(0))  # no event on either side
    block = _JumpBlock(np.concatenate([t for pair in sides for t in pair]),
                       np.array([[tp.size, tm.size] for tp, tm in sides]),
                       log_ratio, drift, u_max)
    peaks = [max(_jump_seg_peak(np.concatenate([[0.0], tp, [u_max]]),
                                log_ratio * np.arange(tp.size + 1), drift),
                 _jump_seg_peak(np.concatenate([[0.0], tm, [u_max]]),
                                -log_ratio * np.arange(tm.size + 1), -drift))
             for tp, tm in sides]
    assert np.array_equal(block.best[1], peaks)


@pytest.mark.parametrize("rates", [(2.5, 4.5), (4.5, 2.5), (3.0, 3.0)])
def test_jump_sampler_matches_per_draw_loop_few_events(rates):
    # a half-width of 0.4 leaves many sides with no event (tiles of count 0);
    # equal rates take the zero-drift branch of the segment integrals
    lim = JumpParams(lam_left=rates[0], lam_right=rates[1], u_halfwidth=0.4)
    _assert_tiles_match_per_draw_loop(lim, RngStream(2, 0))


@pytest.mark.parametrize("rates", [(1.0, 2.0), (2.0, 1.0)])
def test_jump_bayes_finite_at_large_halfwidth(rates):
    # exp(level - m) and exp(-r*s) taken apart overflowed here, and exit 3 followed
    lim = JumpParams(lam_left=rates[0], lam_right=rates[1], u_halfwidth=750.0)
    got = sample_limit_batch(lim, RngStream(4, 0), "bayes", 40)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, _jump_reference(lim, RngStream(4, 0), "bayes", 40))


def test_jump_halfwidth_scales_with_the_rates():
    # 50 / (min rate (ln rho)^2): 57.9 for the default JUMP_SHIFT rates, about 3,380 at r = 0.2
    assert limit_params("jump", pl.make_model("JUMP_SHIFT"), 0.5).u_halfwidth == 60.0
    lim = limit_params("jump", pl.make_model("JUMP_SHIFT", params={"r": 0.2}), 0.5)
    assert (lim.lam_left, lim.lam_right) == (2.5, 2.7)
    assert lim.u_halfwidth == pytest.approx(50.0 / (2.5 * math.log(2.7 / 2.5) ** 2))
    explicit = JumpParams.from_set({"lam_left": 2.5, "lam_right": 2.7, "halfwidth": 7.0})
    assert explicit.u_halfwidth == 7.0
    with pytest.raises(ConfigurationError, match="explicit halfwidth"):
        JumpParams(lam_left=3.0, lam_right=3.0)
    draws = sample_limit_batch(lim, RngStream(1, 0), "mle", 400)
    assert np.all(np.abs(draws) < 0.99 * lim.u_halfwidth)
    # the same stream on the old fixed window of 60 piles draws on its edge
    fixed = JumpParams(lam_left=2.5, lam_right=2.7, u_halfwidth=60.0)
    assert np.any(np.abs(sample_limit_batch(fixed, RngStream(1, 0), "mle", 400)) >= 0.99 * 60.0)


def test_jump_window_cap_raises_before_any_draw():
    # the default window grows as 1 / (ln rho)^2: at r = 0.01 it would hold about
    # 6.3 million events per draw
    with pytest.raises(ConfigurationError, match="6.28756e\\+06 expected events per draw"):
        limit_params("jump", pl.make_model("JUMP_SHIFT", params={"r": 0.01}), 0.5)
    # (lam_left + lam_right) u_halfwidth may reach 2^16, not pass it
    assert JumpParams(lam_left=1.0, lam_right=3.0, u_halfwidth=2.0 ** 14).u_halfwidth == 2.0 ** 14
    with pytest.raises(ConfigurationError, match="more than the 65536"):
        JumpParams(lam_left=1.0, lam_right=3.0, u_halfwidth=2.0 ** 14 + 1.0)


def test_jump_sampler_against_dense_oracle():
    log_ratio = math.log(4.5 / 2.5)
    drift = 2.0
    rng = np.random.default_rng(9)
    for _ in range(25):
        tp = np.sort(rng.uniform(0, 30.0, rng.poisson(2.5 * 30)))
        tm = np.sort(rng.uniform(0, 30.0, rng.poisson(4.5 * 30)))
        u_mle = _jump_one("mle", tp, tm, log_ratio, drift, 30.0)

        def log_z(u):
            u = np.asarray(u, dtype=float)
            return np.where(u >= 0, log_ratio * np.searchsorted(tp, u, side="right"),
                            -log_ratio * np.searchsorted(tm, -u, side="right")) - drift * u

        # dense evaluation over candidate one-sided limits; the sup is a
        # one-sided limit at the returned point, so compare both sides there
        eps = 1e-9
        cands = np.concatenate([[0.0], tp, tp - eps, -tm, -(tm - eps), [30.0, -30.0]])
        vals = log_z(cands)
        attained = max(log_z(u_mle - eps), log_z(u_mle), log_z(u_mle + eps))
        assert attained >= vals.max() - 1e-6

        u_bayes = _jump_one("bayes", tp, tm, log_ratio, drift, 30.0)
        grid = np.linspace(-30, 30, 600_001)
        lz = log_z(grid)
        w = np.exp(lz - lz.max())
        oracle = float(np.trapezoid(w * grid, grid) / np.trapezoid(w, grid))
        assert u_bayes == pytest.approx(oracle, abs=5e-4)


def test_jump_sampler_halfwidth_stability():
    base = {"lam_left": 2.5, "lam_right": 4.5}
    lim1 = JumpParams(**base, u_halfwidth=60.0)
    lim2 = JumpParams(**base, u_halfwidth=120.0)
    d1 = sample_limit_batch(lim1, RngStream(10, 0), "bayes", 30_000)
    d2 = sample_limit_batch(lim2, RngStream(11, 0), "bayes", 30_000)
    se = math.sqrt(d1.var() / d1.size + d2.var() / d2.size)
    assert abs(d1.mean() - d2.mean()) <= 0.01 * d1.std() + 4.0 * se


def test_fbm_covariance_properties():
    grid = np.linspace(-2.0, 2.0, 401)
    for hurst in (0.6, 0.75):
        draws = np.array([simulate_fbm(hurst, grid, RngStream(12, i)) for i in range(1)])
        assert draws.shape == (1, 401)
    from poislim.limits import _fbm_batch
    for hurst in (0.55, 0.75, 0.9):
        w = _fbm_batch(hurst, grid, RngStream(13, 0).generator(), 40_000)
        i0 = np.argmin(np.abs(grid))
        i1 = np.argmin(np.abs(grid - 1.0))
        i2 = np.argmin(np.abs(grid - 2.0))
        assert np.all(w[:, i0] == 0.0)
        assert w[:, i1].var() == pytest.approx(1.0, abs=0.02)
        assert w[:, i2].var() == pytest.approx(2.0 ** (2 * hurst), rel=0.03)
    w = _fbm_batch(0.5, grid, RngStream(14, 0).generator(), 40_000)
    i0 = np.argmin(np.abs(grid))
    i1 = np.argmin(np.abs(grid - 1.0))
    i2 = np.argmin(np.abs(grid - 2.0))
    inc1 = w[:, i1] - w[:, i0]
    inc2 = w[:, i2] - w[:, i1]
    assert abs(np.corrcoef(inc1, inc2)[0, 1]) < 0.02


class _UnitNormals:
    """Stands in for a Generator: its normals are the unit vectors e_0, e_1, ... in turn,
    so the paths drawn from it are the columns of the sampler's normals-to-path map."""

    def __init__(self):
        self.drawn = 0

    def standard_normal(self, size, out):
        out[...] = 0.0
        out[np.arange(size[0]), self.drawn + np.arange(size[0])] = 1.0
        self.drawn += size[0]
        return out


def _fbm_covariance_formula(hurst, u, v):
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(u)[:, None] ** h2 + np.abs(v)[None, :] ** h2
                  - np.abs(u[:, None] - v[None, :]) ** h2)


@pytest.mark.parametrize("hurst", [0.55, 0.75, 0.9, 0.99])
def test_fbm_covariance_matches_formula(hurst):
    # the map's implied covariance, the sum of the outer products of its columns,
    # against the fBm covariance, on a subset of the columns of the larger grids:
    # the zero node in the middle, at the left and at the right end of 61 points, in
    # the middle of the cusp default and of the widest cusp grid, and at both ends
    # of the widest grid for the least well-conditioned embedding
    grids = [(-3.0, 3.0, 61), (0.0, 3.0, 61), (-3.0, 0.0, 61), (-20.0, 20.0, 2001),
             (-60.0, 60.0, 4001)]
    if hurst == 0.99:
        grids += [(0.0, 60.0, 4001), (-60.0, 0.0, 4001)]
    for lo, hi, points in grids:
        grid = np.linspace(lo, hi, points)
        cols = np.unique(np.r_[np.linspace(0, points - 1, min(points, 25)).astype(int),
                               np.flatnonzero(grid == 0.0)])
        cov = np.zeros((points, cols.size))
        for w, _ in limits._fbm_chunks(hurst, grid, _UnitNormals(), 2 * (points - 1)):
            cov += w.T @ w[:, cols]
        want = _fbm_covariance_formula(hurst, grid, grid[cols])
        assert np.max(np.abs(cov - want)) <= 1e-10 * np.max(np.abs(want)), (lo, hi, points)
        assert limits._fgn_spectrum(hurst, points - 1, grid[1] - grid[0]).min() > 0.0


def test_fbm_draws_do_not_depend_on_chunk(monkeypatch):
    grid = np.linspace(-20.0, 20.0, 2001)
    draws = []
    for chunk in (1, 7, limits._fbm_chunk_rows(grid.size - 1)):
        monkeypatch.setattr(limits, "_fbm_chunk_rows", lambda n, chunk=chunk: chunk)
        draws.append(limits._fbm_batch(0.75, grid, RngStream(30, 0).generator(), 300))
    monkeypatch.undo()
    assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
    lim = CuspParams(kappa=0.25, gamma_sq=1.0)
    mle = [sample_limit_batch(lim, RngStream(30, 1), "mle", size) for size in (1, 300)]
    assert mle[0][0] == mle[1][0]


def test_fbm_chunk_rows_follow_the_byte_budget(monkeypatch):
    # a path's buffers take 7n + 3 doubles; whole groups of 16 paths, 16 to 128
    assert [limits._fbm_chunk_rows(n) for n in (2, 400, 2000, 4000)] == [128, 128, 32, 16]
    for n in (400, 2000, 4000):
        rows = limits._fbm_chunk_rows(n)
        assert rows % 16 == 0
        assert rows == 128 or rows * 8 * (7 * n + 3) <= limits._FBM_CHUNK_BYTES
    # the cusp draw sizes of the benchmark and of the entry point's defaults give
    # the same bayes draws as chunks of 128 paths
    lim = CuspParams(kappa=0.25, gamma_sq=1.5)
    for size in (200, 1000, 8000):
        got = sample_limit_batch(lim, RngStream(35, 0), ("mle", "bayes"), size)
        monkeypatch.setattr(limits, "_fbm_chunk_rows", lambda n: 128)
        want = sample_limit_batch(lim, RngStream(35, 0), ("mle", "bayes"), size)
        monkeypatch.undo()
        assert np.array_equal(got, want), size


def _fbm_reference(hurst, grid, g, size):
    """fBm paths by circulant embedding as plain numpy on one array of normals."""
    n = grid.size - 1
    m = 2 * n
    k = np.arange(n + 1.0)
    h2 = 2.0 * hurst
    gamma = 0.5 * (grid[1] - grid[0]) ** h2 * (np.abs(k + 1.0) ** h2 + np.abs(k - 1.0) ** h2
                                               - 2.0 * k ** h2)
    lam = np.fft.rfft(np.r_[gamma, gamma[n - 1:0:-1]]).real
    z = g.standard_normal((size, m))
    spec = np.zeros((size, n + 1), dtype=complex)
    spec[:, 0] = np.sqrt(lam[0] * m) * z[:, 0]
    spec[:, n] = np.sqrt(lam[n] * m) * z[:, n]
    spec[:, 1:n] = np.sqrt(lam[1:n] * (m / 2)) * (z[:, 1:n] + 1j * z[:, n + 1:])
    path = np.zeros((size, n + 1))
    path[:, 1:] = np.cumsum(np.fft.irfft(spec, n=m)[:, :n], axis=1)
    return path - path[:, grid == 0.0]


def _grid_posterior_mean_reference(u, log_z):
    m = np.max(log_z, axis=-1, keepdims=True)
    w = np.exp(log_z - m)
    coeff = limits.analysis._simpson_weights(u.size - 1) * ((u[1] - u[0]) / 3.0)
    return (w @ (coeff * u)) / (w @ coeff)


@pytest.mark.parametrize("grid", [
    np.linspace(-3.0, 3.0, 61),                      # zero in the middle
    np.linspace(0.0, 3.0, 31),                       # zero at the left end
    np.linspace(-3.0, 0.0, 31),                      # zero at the right end
    np.linspace(0.1, 3.0, 30),                       # no zero node
    np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 2.5]),     # not uniform
], ids=["middle", "left", "right", "absent", "uneven"])
def test_fbm_triangular_product_matches_dense(grid):
    # the chunked, buffered sampler against the plain reference; a grid without
    # an exact 0.0 node or not uniform is rejected
    zero = grid == 0.0
    if not zero.any() or np.ptp(np.diff(grid)) > 1e-9:
        for fn in (simulate_fbm, lambda h, u, rng: limits._fbm_batch(h, u, rng.generator(), 5)):
            with pytest.raises(DomainError, match="exact 0.0 node"):
                fn(0.75, grid, RngStream(31, 0))
        return
    for hurst in (0.55, 0.9):
        for size in (1, 300):
            want = _fbm_reference(hurst, grid, RngStream(31, size).generator(), size)
            got = limits._fbm_batch(hurst, grid, RngStream(31, size).generator(), size)
            assert got.shape == want.shape == (size, grid.size)
            assert np.all(got[:, zero] == 0.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        want = limits._fbm_batch(hurst, grid, RngStream(31, 1).generator(), 1)[0]
        assert np.array_equal(simulate_fbm(hurst, grid, RngStream(31, 1)), want)


def test_cusp_draws_match_dense_product():
    lim = limit_params("cusp", pl.make_model("CUSP"), 0.5)
    u = np.linspace(-lim.grid_halfwidth, lim.grid_halfwidth, lim.grid_points)
    pen = np.abs(u) ** (2.0 * lim.hurst) * lim.gamma_sq / 2.0
    for size in (1, 2 * limits._fbm_chunk_rows(lim.grid_points - 1) + 1):  # two chunk ends
        log_z = _fbm_reference(lim.hurst, u, RngStream(33, size).generator(), size)
        log_z = log_z * math.sqrt(lim.gamma_sq) - pen
        got = sample_limit_batch(lim, RngStream(33, size), ("mle", "bayes"), size)
        assert np.array_equal(got[0], u[np.argmax(log_z, axis=1)])
        np.testing.assert_allclose(got[1], _grid_posterior_mean_reference(u, log_z), rtol=0,
                                   atol=1e-12)


def test_null_fisher_bayes_matches_fresh_temporaries():
    # the posterior mean forms exp(log Z - max) in one scratch array: same bits
    lim = NullFisherParams(i3=0.3)
    zeta = RngStream(34, 0).generator().normal(0.0, math.sqrt(lim.i3), 5000)
    v = np.linspace(-8.0, 8.0, 1601)
    zs = zeta[:, None] / math.sqrt(lim.i3)
    want = np.concatenate([
        _grid_posterior_mean_reference(v, v ** 3 * zs[lo:lo + 4096] - v ** 6 / 2.0)
        for lo in range(0, zeta.size, 4096)]) / lim.i3 ** (1.0 / 6.0)
    assert np.array_equal(sample_limit_batch(lim, RngStream(34, 0), "bayes", 5000), want)


def test_fbm_guards():
    with pytest.raises(DomainError, match="hurst"):
        simulate_fbm(1.5, np.linspace(-1, 1, 11), RngStream(1, 0))
    for grid in (np.zeros(1), np.linspace(1, -1, 11), np.r_[np.linspace(-1, 1, 11)[:-1], np.nan]):
        with pytest.raises(DomainError):
            simulate_fbm(0.7, grid, RngStream(1, 0))
    # the grid size is bounded only by CuspParams, not by the sampler
    assert simulate_fbm(0.7, np.linspace(-1, 1, 4003), RngStream(1, 0)).shape == (4003,)


def test_cusp_sampler_argmax_consistency():
    lim = limit_params("cusp", pl.make_model("CUSP"), 0.5)
    u = np.linspace(-lim.grid_halfwidth, lim.grid_halfwidth,
                    lim.grid_points)
    gamma = math.sqrt(lim.gamma_sq)
    pen = np.abs(u) ** (2 * lim.hurst) * lim.gamma_sq / 2.0
    from poislim.limits import _fbm_batch
    g = RngStream(15, 0).generator()
    w = _fbm_batch(lim.hurst, u, g, 64)
    log_z = gamma * w - pen[None, :]
    # the sampler reproduces exactly this construction given the same stream
    d = sample_limit_batch(lim, RngStream(15, 0), "mle", 64)
    assert np.allclose(d, u[np.argmax(log_z, axis=1)])
    db = sample_limit_batch(lim, RngStream(15, 0), "bayes", 16)
    assert np.all(np.abs(db) <= lim.grid_halfwidth)


def test_nonidentifiable_sampler():
    nf = pl.make_model("NONIDENT_FIXED")
    lim = limit_params("nonidentifiable", nf, 1.0)
    d = sample_limit_batch(lim, RngStream(16, 0), "mle", 50_000)
    assert set(np.unique(d)) <= {1.0, 2.0}
    # frequency of picking root 1 vs |zeta_1| > |zeta_2| oracle
    rho = np.asarray(lim.rho)
    g = RngStream(55, 0).generator()
    chol = np.linalg.cholesky(rho + 1e-12 * np.eye(2))
    z = g.standard_normal((200_000, 2)) @ chol.T
    p1 = np.mean(np.abs(z[:, 0]) > np.abs(z[:, 1]))
    assert np.mean(d == 1.0) == pytest.approx(p1, abs=0.01)
    db = sample_limit_batch(lim, RngStream(17, 0), "bayes", 5_000)
    assert np.all((db >= 1.0) & (db <= 2.0))


def test_nonidentifiable_bayes_limit_weights_the_roots_by_the_prior():
    nf = pl.make_model("NONIDENT_FIXED")
    lim = limit_params("nonidentifiable", nf, 1.0)
    assert lim.prior_weights == [1.0, 1.0]
    plain = NonidentParams(lim.roots, lim.informations, lim.rho, [1.0, 1.0])
    expect = sample_limit_batch(plain, RngStream(17, 0), ("mle", "bayes"), 2_000)
    # a uniform prior, named or as a flat density, leaves the draws bit-identical
    for prior in ("uniform", (np.array([0.0, 3.0]), np.array([2.5, 2.5]))):
        flat = limit_params("nonidentifiable", nf, 1.0, prior=prior)
        assert flat == lim
        assert np.array_equal(sample_limit_batch(flat, RngStream(17, 0), ("mle", "bayes"),
                                                 2_000), expect)
    # density 1 + 29 theta / 3 is 32/3 at root 1 and 61/3 at root 2
    tilted = limit_params("nonidentifiable", nf, 1.0,
                          prior=(np.array([0.0, 3.0]), np.array([1.0, 30.0])))
    assert tilted.prior_weights == pytest.approx([32.0 / 61.0, 1.0], rel=1e-15)
    mle, bayes = sample_limit_batch(tilted, RngStream(17, 0), ("mle", "bayes"), 2_000)
    assert np.array_equal(mle, expect[0])
    assert bayes.mean() > expect[1].mean()


def test_nonidentifiable_harness_compares_bayes_with_the_prior_limit():
    # the estimates weight the roots by the prior, and so must the limit law:
    # weighted equally the Bayes KS statistic read 0.99995
    doc = {"model": "NONIDENT_FIXED", "theta0": 1.0, "regime": "nonidentifiable",
           "n": [400], "replicates": 120, "seed": 4, "limit_draws": 20_000,
           "estimator": {"prior": [[0, 3], [1, 30]], "estimators": ["bayes"]}}
    report = run_scenario(Scenario.from_dict(doc))
    assert report.summary["limit"]["prior_weights"] == pytest.approx([32.0 / 61.0, 1.0])
    assert report.summary["estimates"]["bayes"]["by_n"]["400"]["ks_statistic"] <= 0.2


def test_unsupported_which():
    lim = RegularParams(fisher_information=1.0)
    with pytest.raises(CapabilityError):
        sample_limit_batch(lim, RngStream(1, 0), "median", 1)
    for which in ((), ("mle", "mle"), ["mle", "median"], ("bayes", "bayes", "mle")):
        with pytest.raises(CapabilityError):
            sample_limit_batch(lim, RngStream(1, 0), which, 5)


def _all_regime_limits():
    return {
        "regular": RegularParams(fisher_information=2.0),
        "misspecified": MisspecifiedParams(d_big_sq=0.7),
        "null-fisher": NullFisherParams(i3=0.3),
        "disc-fisher": DiscFisherParams(info_left=1.5, info_right=0.7, corr=0.3),
        "boundary": BoundaryParams(fisher_information=2.0, orientation=-1.0),
        # a coarser grid than the default keeps the test fast; chunks count draws
        "cusp": CuspParams(kappa=0.25, hurst=0.75, gamma_sq=0.256, grid_points=401),
        "jump": JumpParams(lam_left=2.5, lam_right=4.5, u_halfwidth=60.0),
        "nonidentifiable": limit_params("nonidentifiable", pl.make_model("NONIDENT_FIXED"), 1.0),
    }


@pytest.mark.parametrize("regime", limits.REGIMES)
def test_limit_batch_rows_match_single_calls(regime):
    lim = _all_regime_limits()[regime]
    # 2,047 and 2,049 draws straddle one cusp chunk, 1,025 one jump block
    for size in (1, 2047, 2049, _JUMP_BLOCK + 1):
        for which in (("mle", "bayes"), ("bayes", "mle"), ["bayes"]):
            rows = sample_limit_batch(lim, RngStream(3, size), which, size)
            assert rows.shape == (len(which), size)
            for name, row in zip(which, rows):
                single = sample_limit_batch(lim, RngStream(3, size), name, size)
                assert np.array_equal(row, single), (size, which, name)
