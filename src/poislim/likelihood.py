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
        # while ``_limits`` or ``caps`` evaluates on a kink family: takes each
        # block of event log terms (the ``rows`` of ``event_log_sums``)
        self._rows = None

    @cached_property
    def breaks(self) -> np.ndarray:
        """The events' theta-breakpoints inside Theta, sorted and distinct."""
        iv = self.model.theta_interval
        br = np.unique(self.model.event_theta_breakpoints(self.events))
        return br[(br > iv.alpha) & (br < iv.beta)]

    @property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) limits of log L at ``breaks``.

        Where the family's curve only kinks (``event_breakpoints_are_jumps``
        false) one side-0 array serves as both.
        """
        return self._limits[:2]

    @cached_property
    def caps(self) -> np.ndarray | None:
        """Caps on the event sum of log L over the segments that ``breaks``
        cut Theta into, or None where the family states no
        ``event_sum_rounding``.

        Entry k caps the segment that ends at breaks[k] (k = 0 starts at
        Theta's lower edge, k = B ends at its upper edge): the sum over the
        events of the larger of the two limits of log lambda(theta, t_i) from
        inside the segment, which bounds the term on the whole segment where
        it is monotone.  Where every term moves one way on the segment (a
        jump family), that sum is the larger of the segment's two end sums.
        The limits at the breakpoints come with ``sides``; those at the two
        edges are their side-0 values, from one more ``event_sums`` call (an
        outer segment whose edge is itself an event's breakpoint is capped by
        +inf).
        """
        bounds = self._limits[2]
        if bounds is None:
            return None
        inner, first, last = bounds
        iv = self.model.theta_interval
        ends = np.array([iv.alpha, iv.beta])
        if self.model.event_breakpoints_are_jumps:
            at_alpha, at_beta = self.event_sums(ends)
        else:
            rows = []
            self._rows = rows.append
            try:
                self.event_sums(ends)
            finally:
                self._rows = None
            at_alpha, at_beta = np.concatenate(rows)
        plain = ~np.isin(ends, self.model.event_theta_breakpoints(self.events))
        # sums on a jump family, rows of terms on a kink family
        return np.concatenate([
            [np.maximum(at_alpha, first).sum() if plain[0] else np.inf], inner,
            [np.maximum(last, at_beta).sum() if plain[1] else np.inf]])

    @cached_property
    def _limits(self):
        """(left, right, bounds) of ``sides`` and ``caps``.

        ``bounds`` is None or (the caps of the B - 1 segments between
        breakpoints, the limit from the left at the first breakpoint, the
        limit from the right at the last: event sums on a jump family, rows
        of terms on a kink family).  On a jump family every term moves one way
        on a segment, so its cap is the larger of the sum from the right at
        one breakpoint and the sum from the left at the next.  Where the
        curve only kinks the terms move both ways: the one side-0 call streams
        its terms block by block as ``event_log_sums`` computes them
        (``_rows``), and each segment sums the maxima of two consecutive rows,
        at no log evaluation of its own.
        """
        br, model = self.breaks, self.model
        if not br.size:
            return br, br, None
        capped = model.event_sum_rounding(self.events.size) is not None
        if model.event_breakpoints_are_jumps:
            from_left, from_right = self.event_sums(br, -1), self.event_sums(br, 1)
            integral = self.integral_terms(br)
            bounds = (np.maximum(from_right[:-1], from_left[1:]), from_left[0], from_right[-1])
            return (_log_l(from_left, integral), _log_l(from_right, integral),
                    bounds if capped else None)
        inner = np.empty(br.size - 1)
        first = last = None
        at = 0

        def pair(terms):
            # a segment runs from one row to the next and takes the sum of
            # their maxima
            nonlocal first, last, at
            if last is None:
                first = terms[0].copy()
            else:
                inner[at - 1] = np.maximum(last, terms[0]).sum()
            inner[at:at + len(terms) - 1] = np.maximum(terms[:-1], terms[1:]).sum(axis=1)
            # a copy: a view would keep the whole block alive past the call
            last, at = terms[-1].copy(), at + len(terms)

        self._rows = pair if capped else None
        try:
            both = self.values(br)
        finally:
            self._rows = None
        return both, both, (inner, first, last) if capped else None

    def integral_terms(self, thetas) -> np.ndarray:
        """-n * (integral of lambda(theta, .) - 1 over the window): log L less its
        event sums."""
        integ = sum(self.model.integral_hint(thetas, lo, hi) for lo, hi in self.intervals)
        return -self.n * (integ - self.measure)

    def event_sums(self, thetas, theta_side=0) -> np.ndarray:
        """sum_i log lambda(theta, t_i) over the window's events: log L less its
        integral terms."""
        extra = {} if self._rows is None else {"rows": self._rows}
        return self.model.event_log_sums(thetas, self.events, theta_side=theta_side, **extra)

    def values(self, thetas, theta_side=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return _log_l(self.event_sums(thetas, theta_side), self.integral_terms(thetas))

    def value(self, theta, theta_side=0) -> float:
        return float(self.values(np.array([float(theta)]), theta_side)[0])


def _log_l(event_sums, integral_terms):
    """log L from its two parts, a NaN read as -inf."""
    vals = event_sums + integral_terms
    return np.where(np.isnan(vals), -np.inf, vals)


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
