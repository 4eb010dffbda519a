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
from functools import cached_property

import numpy as np
import numpy.ma  # noqa: F401  np.unique loads it lazily; load it before workers fork

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


class LikelihoodEvaluator:
    """log L(theta, X^n) of one sample, over ``window`` (None = [0, horizon]).

    The windowed pooled events and ``sample.n`` are stored once; every
    estimator search and curve evaluates this one object.
    """

    def __init__(self, model: IntensityModel, sample: Sample, window=None):
        self.model = model
        self.n = sample.n
        self.intervals = analysis._window_intervals(window, model.horizon)
        self.measure = sum(hi - lo for lo, hi in self.intervals)
        events = sample.pooled_events()
        inside = np.zeros(events.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (events >= lo) & (events <= hi)
        self.events = events[inside]

    @cached_property
    def breaks(self) -> np.ndarray:
        """The events' theta-breakpoints inside Theta, sorted and distinct."""
        iv = self.model.theta_interval
        br = np.unique(self.model.event_theta_breakpoints(self.events))
        return br[(br > iv.alpha) & (br < iv.beta)]

    @cached_property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) limits of log L at ``breaks``.

        Where the family's curve only kinks (``event_breakpoints_are_jumps``
        false) one side-0 array serves as both.
        """
        if not self.breaks.size:
            return self.breaks, self.breaks
        if not self.model.event_breakpoints_are_jumps:
            both = self.values(self.breaks)
            return both, both
        return self.values(self.breaks, theta_side=-1), self.values(self.breaks, theta_side=1)

    def values(self, thetas, theta_side=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        term = self.model.event_log_sums(thetas, self.events, theta_side=theta_side)
        integ = sum(self.model.integral_hint(thetas, lo, hi) for lo, hi in self.intervals)
        vals = term - self.n * (integ - self.measure)
        return np.where(np.isnan(vals), -np.inf, vals)

    def value(self, theta, theta_side=0) -> float:
        return float(self.values(np.array([float(theta)]), theta_side)[0])


def log_likelihood(model: IntensityModel, theta: float, sample: Sample,
                   window=None, theta_side=0) -> float:
    """Windowed log-likelihood; -inf (not an exception) if an event has zero rate."""
    theta = float(theta)
    iv = model.theta_interval
    if not iv.contains(theta):
        raise DomainError(f"theta={theta} outside [{iv.alpha}, {iv.beta}]")
    return LikelihoodEvaluator(model, sample, window).value(theta, theta_side)


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
    ev = LikelihoodEvaluator(model, sample, window)
    diff = ev.value(shifted) - ev.value(float(theta0))
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


def likelihood_curve(model: IntensityModel, sample: Sample, grid_size: int,
                     window=None) -> LogLikelihoodCurve:
    """log L over a uniform grid with kinks inserted and one-sided jump values."""
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    ev = LikelihoodEvaluator(model, sample, window)
    grid = curve_grid(model, grid_size)
    full = np.union1d(grid, ev.breaks)
    left, right = ev.sides
    values = np.empty(full.size)
    fresh = np.ones(full.size, dtype=bool)
    if left is right:  # the curve only kinks: sides holds the side-0 values
        at = np.searchsorted(full, ev.breaks)
        values[at], fresh[at] = left, False
    values[fresh] = ev.values(full[fresh])
    return LogLikelihoodCurve(thetas=full, values=values,
                              break_thetas=ev.breaks, break_left=left, break_right=right)
