import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poislim as pl
from poislim.errors import DomainError, EstimationError, SingularityError
from poislim.windows import Window, jump_sufficient_window, level_threshold, optimal_window, sufficient_window


def test_window_type_invariants():
    w = Window(intervals=((0.1, 0.3), (0.5, 0.9)))
    assert w.measure == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(DomainError):
        Window(intervals=((0.1, 0.5), (0.4, 0.9)))
    with pytest.raises(DomainError):
        Window(intervals=((0.5, 0.1),))
    back = Window.from_json_obj(w.to_json_obj())
    assert back.intervals == w.intervals


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

ends = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def disjoint_intervals(draw, min_size=0):
    """Sorted, disjoint intervals (touching and zero-length ones allowed)."""
    pts = sorted(draw(st.lists(ends, min_size=2 * min_size, max_size=12)))
    pts = pts[:len(pts) - len(pts) % 2]
    return tuple(zip(pts[0::2], pts[1::2]))


@PROPERTY
@given(disjoint_intervals())
def test_window_measure_and_json_round_trip(ivs):
    w = Window(intervals=ivs)
    assert w.intervals == ivs
    assert w.measure == sum(hi - lo for lo, hi in ivs)
    assert w.measure == pytest.approx(math.fsum(hi - lo for lo, hi in ivs), rel=1e-12)
    back = Window.from_json_obj(json.loads(json.dumps(w.to_json_obj())))
    assert back.intervals == w.intervals
    assert back.measure == w.measure


@PROPERTY
@given(disjoint_intervals(min_size=2), st.data())
def test_window_rejects_overlapping_and_reversed_intervals(ivs, data):
    i = data.draw(st.integers(1, len(ivs) - 1))
    # interval i starts before interval i - 1 ends, but is not itself reversed
    start = data.draw(st.floats(-2e6, ivs[i - 1][1], exclude_max=True))
    with pytest.raises(DomainError):
        Window(intervals=(*ivs[:i], (start, ivs[i][1]), *ivs[i + 1:]))
    lo, hi = data.draw(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]).map(sorted))
    with pytest.raises(DomainError):
        Window(intervals=(*ivs[:i], (hi, lo), *ivs[i:]))


def test_level_threshold_window_sine_closed_form():
    ws = pl.make_model("WINDOW_SINE")
    for mu in (0.2, 0.5, 0.8):
        r = level_threshold(ws, 0.4, mu)
        expect = 4.0 * math.sin((2.0 * math.pi - mu * ws.omega) / 4.0) ** 2
        assert r == pytest.approx(expect, abs=1e-6)
    # mu* -> tau: threshold collapses to zero
    assert level_threshold(ws, 0.4, 0.999999) == pytest.approx(0.0, abs=1e-4)


def test_level_threshold_sort_oracle():
    reg = pl.make_model("REGULAR_EXP")
    mu = 0.5
    r = level_threshold(reg, 0.0, mu)
    # sort-based oracle: the mu-quantile of integrand values on a dense grid
    t = np.linspace(0, 1, 2_000_001)
    g = t ** 2  # dtheta = t e^{0t}, lambda = 1
    r_oracle = float(np.quantile(g, 1.0 - mu))
    assert r == pytest.approx(r_oracle, abs=1e-5)


def test_level_threshold_contracts():
    ws = pl.make_model("WINDOW_SINE")
    with pytest.raises(DomainError):
        level_threshold(ws, 0.4, 0.0)
    with pytest.raises(DomainError):
        level_threshold(ws, 0.4, 1.5)
    null = pl.make_model("NULLFI_SINE")
    with pytest.raises(SingularityError):
        level_threshold(null, 0.0, 0.5)  # integrand identically zero


def test_optimal_window_window_sine_closed_form():
    ws = pl.make_model("WINDOW_SINE")
    tau, mu = ws.horizon, 0.5
    win = optimal_window(ws, 0.5, mu)
    expect = (((tau - mu) / 4, (tau + mu) / 4), ((3 * tau - mu) / 4, (3 * tau + mu) / 4))
    assert len(win.intervals) == 2
    for (a, b), (c, d) in zip(win.intervals, expect):
        assert a == pytest.approx(c, abs=1e-6)
        assert b == pytest.approx(d, abs=1e-6)
    assert win.measure == pytest.approx(mu, abs=1e-5)


def test_optimal_window_near_full_measure():
    ws = pl.make_model("WINDOW_SINE")
    win = optimal_window(ws, 0.5, 0.999)
    assert len(win.intervals) >= 1
    assert win.measure == pytest.approx(0.999, abs=1e-4)
    assert win.intervals[0][0] < 0.01 and win.intervals[-1][1] > 0.99


def test_optimal_window_beats_random_competitors():
    ws = pl.make_model("WINDOW_SINE")
    mu = 0.5
    win = optimal_window(ws, 0.5, mu)
    best = pl.fisher_information(ws, 0.5, window=win)
    rng = np.random.default_rng(12)
    for _ in range(20):
        lo = rng.uniform(0.0, ws.horizon - mu)
        rival = [(lo, lo + mu)]
        assert best >= pl.fisher_information(ws, 0.5, window=rival) - 1e-9


def test_optimal_window_nesting_and_information_monotone():
    ws = pl.make_model("WINDOW_SINE")
    mus = [0.2, 0.4, 0.6, 0.8]
    wins = [optimal_window(ws, 0.5, m) for m in mus]
    infos = [pl.fisher_information(ws, 0.5, window=w) for w in wins]
    assert all(b >= a - 1e-9 for a, b in zip(infos[:-1], infos[1:]))
    for small, big in zip(wins[:-1], wins[1:]):
        for lo, hi in small.intervals:
            assert any(lo >= a - 1e-5 and hi <= b + 1e-5 for a, b in big.intervals)


def test_sufficient_window_examples():
    w = sufficient_window(0.5, 256, 1.0)
    assert w.intervals == ((0.0, 1.0),)
    w = sufficient_window(0.5, 2 ** 16, 1.0)
    assert w.intervals[0][0] == pytest.approx(0.25, abs=1e-12)
    assert w.intervals[0][1] == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(EstimationError):
        sufficient_window(-5.0, 256, 1.0)
    with pytest.raises(DomainError):
        sufficient_window(0.5, 1, 1.0)


def test_jump_sufficient_window_examples():
    w = jump_sufficient_window((0.2, 0.4), 0.1, 1.0)
    assert w.intervals[0][0] == pytest.approx(0.3, abs=1e-12)
    assert w.intervals[0][1] == pytest.approx(0.5, abs=1e-12)
    tiny = jump_sufficient_window((0.3, 0.3 + 1e-9), 0.1, 1.0)
    assert tiny.measure == pytest.approx(1e-9, abs=1e-12)
    with pytest.raises(DomainError):
        jump_sufficient_window((-0.2, 0.4), 0.1, 1.0)
    with pytest.raises(DomainError):
        jump_sufficient_window((0.2, 0.95), 0.1, 1.0)
