"""The lookahead golden-section and score searches of ``mle`` against the
one-point-at-a-time searches they replace, kept here as the reference."""

import math

import numpy as np
import pytest

import poislim as pl
from poislim import analysis, estimators
from poislim.analysis import golden_search
from poislim.estimators import _golden_refine, _lookahead, _score_bisect, mle
from poislim.likelihood import LikelihoodEvaluator, curve_grid
from poislim.simulate import RngStream, simulate_sample

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def ref_golden_section_min(fn, a, b, tol=1e-11, max_iter=200):
    a, b = float(a), float(b)
    if b <= a:
        return a, float(fn(a))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = float(fn(c)), float(fn(d))
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(fn(d))
    x = 0.5 * (a + b)
    return x, float(fn(x))


def ref_golden_section_max(fn, a, b, tol=1e-11, max_iter=200):
    x, v = ref_golden_section_min(lambda s: -fn(s), a, b, tol=tol, max_iter=max_iter)
    return x, -v


def ref_score_bisect(f, x, lo, hi, iters=64):
    h = 1e-5 * max(1.0, abs(x))
    a = max(lo, x - 64.0 * h)
    b = min(hi, x + 64.0 * h)
    if a - h < lo or b + h > hi or a >= b:
        return x

    def score(t):
        return f(t + h) - f(t - h)

    da, db = score(a), score(b)
    if da <= 0.0 or db >= 0.0:
        return x
    for _ in range(iters):
        mid = 0.5 * (a + b)
        dm = score(mid)
        if dm > 0.0:
            a = mid
        elif dm < 0.0:
            b = mid
        else:
            return mid
        if b - a <= 1e-13 * max(1.0, abs(mid)):
            break
    return 0.5 * (a + b)


def ref_golden_refine(ev, grid, best_theta, best_val):
    i = int(np.searchsorted(grid, best_theta))
    i = min(max(i, 0), grid.size - 1)
    if not math.isclose(grid[i], best_theta, rel_tol=0, abs_tol=1e-15):
        return best_theta, best_val
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    kinks = [k for k in ev.model.theta_kinks if lo < k < hi]
    edges = [lo, *sorted(kinks), hi]
    segments = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    iv = ev.model.theta_interval
    best = (best_theta, best_val)
    for a, b in segments:
        x, v = ref_golden_section_max(ev.value, a, b, tol=1e-8)
        if ev.model.is_theta_smooth:
            x = ref_score_bisect(ev.value, x, iv.alpha, iv.beta)
            x = min(max(x, a), b)
            v = ev.value(x)
        if v > best[1]:
            best = (x, v)
    return best


_SMOOTH = ["REGULAR_EXP", "CONSTANT", "NULLFI_SINE", "WINDOW_SINE", "NONIDENT_FIXED",
           "FREQ_MOD_SMOOTH", "PHASE_MOD_SMOOTH"]


def _evaluator(family, n, seed):
    model = pl.make_model(family)
    iv = model.theta_interval
    theta0 = iv.alpha + (0.3 + 0.1 * (seed % 4)) * iv.width
    sample = simulate_sample((model, theta0), n, RngStream(seed, 7))
    return LikelihoodEvaluator(model, sample)


def _grid_best(ev, grid_size=4001):
    grid = curve_grid(ev.model, grid_size)
    vals = ev.values(grid)
    i = int(np.argmax(vals))
    return grid, float(grid[i]), float(vals[i])


@pytest.mark.parametrize("family", _SMOOTH + ["DISCFI_KINK"])
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_golden_search_matches_one_point_search(family, n, seed):
    ev = _evaluator(family, n, seed)
    grid, theta, _ = _grid_best(ev)
    i = int(np.searchsorted(grid, theta))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    x_ref, v_ref = ref_golden_section_max(ev.value, a, b, tol=1e-8)
    for depth in range(1, 8):
        x = golden_search(lambda t: -ev.values(t), a, b, tol=1e-8, depth=depth)
        assert x == x_ref, depth
    assert ev.value(x_ref) == v_ref


@pytest.mark.parametrize("family", _SMOOTH)
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_score_bisect_matches_one_score_search(family, n, seed):
    ev = _evaluator(family, n, seed)
    grid, theta, _ = _grid_best(ev)
    i = int(np.searchsorted(grid, theta))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    x0, _ = ref_golden_section_max(ev.value, a, b, tol=1e-8)
    iv = ev.model.theta_interval
    # from the golden point and from points off the score's root, which bracket
    # differently or not at all
    for x in (x0, x0 + 3e-4, x0 - 1e-3):
        if not iv.alpha <= x <= iv.beta:
            continue
        expected = ref_score_bisect(ev.value, x, iv.alpha, iv.beta)
        for depth in range(1, 8):
            assert _score_bisect(ev.values, x, iv.alpha, iv.beta, depth) == expected, (x, depth)


@pytest.mark.parametrize("family", _SMOOTH + ["DISCFI_KINK"])
@pytest.mark.parametrize("n", [20, 200])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_golden_refine_matches_one_point_refine(family, n, seed):
    ev = _evaluator(family, n, seed)
    grid, theta, val = _grid_best(ev)
    assert _golden_refine(ev, grid, theta, val) == ref_golden_refine(ev, grid, theta, val)


def test_golden_search_evaluates_the_one_point_sequence():
    seen, ref_seen = [], []

    def f(points):
        seen.extend(points.tolist())
        return np.array([(t - 0.7) ** 2 - 0.1 * math.sin(40 * t) for t in points])

    def g(t):
        ref_seen.append(t)
        return -(t - 0.7) ** 2 + 0.1 * math.sin(40 * t)

    x, _ = ref_golden_section_max(g, 0.0, 2.0)
    assert golden_search(f, 0.0, 2.0, tol=1e-11) == x
    # the reference also evaluates its result
    assert seen == ref_seen[:-1]


def test_theta_star_matches_one_point_search():
    model = pl.make_model("REGULAR_EXP")
    true = pl.TrueIntensity.contaminated(model, 0.3, lambda t: np.full_like(t, 0.5), h_max=0.5)
    grid = model.theta_interval.grid(2001)
    vals = analysis.kl_objective_grid(true, model, grid)
    i = int(np.argmin(vals))
    x, _ = ref_golden_section_min(lambda th: analysis.kl_objective(true, model, th),
                                  grid[i - 1], grid[i + 1])
    assert pl.theta_star(true, model) == x


def test_lookahead_follows_the_cost_of_a_theta():
    closed = _evaluator("REGULAR_EXP", 200, 0)
    assert closed.model.event_sums_are_closed_form
    assert _lookahead(closed) == (estimators._MAX_LOOKAHEAD, estimators._MAX_LOOKAHEAD)
    many = _evaluator("NULLFI_SINE", 4000, 0)
    assert many.events.size > estimators._CALL_PAIRS
    # one golden point per call, and the score's t + h and t - h in one call
    assert _lookahead(many) == (1, 1)


def test_mle_regular_exp_makes_few_values_calls(monkeypatch):
    model = pl.make_model("REGULAR_EXP")
    sample = simulate_sample((model, 0.3), 2000, RngStream(1, 0))
    calls = []
    values = LikelihoodEvaluator.values

    def counted(self, thetas, theta_side=0):
        calls.append(np.size(thetas))
        return values(self, thetas, theta_side)

    monkeypatch.setattr(LikelihoodEvaluator, "values", counted)
    mle(model, sample)
    assert len(calls) <= 20, calls
