"""Log-likelihood, normalized likelihood ratio, and curve materialization.

log L(theta) = sum_j sum_{t_i in W} ln lambda(theta, t_i)
             - n * integral_W (lambda(theta, t) - 1) dt

The "-1" reference intensity inside the integral is kept verbatim; it shifts
the log-likelihood by a theta-free constant and cancels in every ratio.
The integral term is each family's closed-form ``integral_hint`` summed over
the window's intervals.  Everything is computed in log space; ratios are
exponentiated only at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import DomainError
from .intensity import IntensityModel
from .simulate import Sample

__all__ = [
    "LogLikelihoodCurve",
    "LikelihoodEvaluator",
    "log_likelihood",
    "normalized_lr",
    "likelihood_curve",
]


def _window_measure(intervals):
    return sum(hi - lo for lo, hi in intervals)


def _events_in(events, intervals):
    if not intervals:
        return events[:0]
    mask = np.zeros(events.shape, dtype=bool)
    for lo, hi in intervals:
        mask |= (events >= lo) & (events <= hi)
    return events[mask]


class LikelihoodEvaluator:
    """Shared evaluation context for one (model, window)."""

    def __init__(self, model: IntensityModel, window=None):
        self.model = model
        self.intervals = analysis._window_intervals(window, model.horizon)
        self.measure = _window_measure(self.intervals)

    # -- integral term ------------------------------------------------------

    def intensity_integral(self, thetas) -> np.ndarray:
        """integral_W lambda(theta, t) dt for each theta (vectorized)."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        total = np.zeros(thetas.shape)
        for lo, hi in self.intervals:
            total += self.model.integral_hint(thetas, lo, hi)
        return total

    # -- event term ---------------------------------------------------------

    def prepare_events(self, sample: Sample) -> np.ndarray:
        return _events_in(sample.pooled_events(), self.intervals)

    # -- full log-likelihood --------------------------------------------------

    def values(self, thetas, sample: Sample, events=None, theta_side=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if events is None:
            events = self.prepare_events(sample)
        term = self.model.event_log_sums(thetas, events, theta_side=theta_side)
        integ = self.intensity_integral(thetas)
        vals = term - sample.n * (integ - self.measure)
        return np.where(np.isnan(vals), -np.inf, vals)

    def value(self, theta, sample: Sample, events=None, theta_side=0) -> float:
        return float(self.values(np.array([float(theta)]), sample, events, theta_side)[0])


def log_likelihood(model: IntensityModel, theta: float, sample: Sample,
                   window=None, theta_side=0) -> float:
    """Windowed log-likelihood; -inf (not an exception) if an event has zero rate."""
    theta = float(theta)
    iv = model.theta_interval
    if not iv.contains(theta):
        raise DomainError(f"theta={theta} outside [{iv.alpha}, {iv.beta}]")
    return LikelihoodEvaluator(model, window).value(theta, sample, theta_side=theta_side)


def normalized_lr(model: IntensityModel, theta0: float, u: float, rate_exponent: float,
                  sample: Sample, window=None, log: bool = False) -> float:
    """Z_n(u): likelihood ratio at theta0 + n^{-rate_exponent} * u versus theta0."""
    n = sample.n
    phi = float(n) ** (-float(rate_exponent))
    shifted = float(theta0) + phi * float(u)
    iv = model.theta_interval
    if not iv.contains(shifted):
        lo = (iv.alpha - theta0) / phi
        hi = (iv.beta - theta0) / phi
        raise DomainError(
            f"u={u} leaves the local parameter set U_n = [{lo:.6g}, {hi:.6g}]"
        )
    ev = LikelihoodEvaluator(model, window)
    events = ev.prepare_events(sample)
    diff = ev.value(shifted, sample, events) - ev.value(float(theta0), sample, events)
    return diff if log else float(np.exp(diff))


@dataclass(frozen=True)
class LogLikelihoodCurve:
    """Materialized log L(., X^n) on a grid, with one-sided values at jumps."""

    thetas: np.ndarray
    values: np.ndarray
    break_thetas: np.ndarray
    break_left: np.ndarray
    break_right: np.ndarray


def curve_grid(model: IntensityModel, grid_size: int) -> np.ndarray:
    """Uniform grid over Theta's closure plus the declared kinks."""
    iv = model.theta_interval
    grid = np.linspace(iv.alpha, iv.beta, grid_size)
    kinks = [k for k in model.theta_kinks if iv.alpha < k < iv.beta]
    if kinks:
        grid = np.unique(np.concatenate([grid, np.array(kinks)]))
    return grid


def split_breaks(model: IntensityModel, events, lo: float, hi: float):
    """Sample-dependent breakpoints in (lo, hi), split by whether the curve jumps there.

    Returns (jumps, kinks); one of the two is always empty.
    """
    br = np.unique(model.event_theta_breakpoints(events))
    br = br[(br > lo) & (br < hi)]
    if model.event_breakpoints_are_jumps:
        return br, np.empty(0)
    return np.empty(0), br


def likelihood_curve(model: IntensityModel, sample: Sample, grid_size: int,
                     window=None) -> LogLikelihoodCurve:
    """log L over a uniform grid with kinks inserted and one-sided jump values."""
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    ev = LikelihoodEvaluator(model, window)
    events = ev.prepare_events(sample)
    grid = curve_grid(model, grid_size)
    iv = model.theta_interval
    breaks = np.union1d(*split_breaks(model, events, iv.alpha, iv.beta))
    full = np.unique(np.concatenate([grid, breaks])) if breaks.size else grid
    values = ev.values(full, sample, events)
    if breaks.size:
        left = ev.values(breaks, sample, events, theta_side=-1)
        right = ev.values(breaks, sample, events, theta_side=+1)
    else:
        left = right = np.empty(0)
    return LogLikelihoodCurve(thetas=full, values=values,
                              break_thetas=breaks, break_left=left, break_right=right)
