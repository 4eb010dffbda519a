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
from .intensity import _U, IntensityModel
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
        self._slope = model.event_term_slope() if self.events.size else None
        # while ``_limits`` or ``caps`` evaluates: takes each block of event log
        # terms and intensities (the ``rows`` of ``event_log_sums``)
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
        cut Theta into, where the curve only kinks and the family states
        ``event_sum_rounding``; None elsewhere (a jump family's segments take
        their sums from the anchors of ``event_sums`` instead).

        Entry k caps the segment that ends at breaks[k] (k = 0 starts at
        Theta's lower edge, k = B ends at its upper edge): the sum over the
        events of the larger of the two limits of log lambda(theta, t_i) from
        inside the segment, which bounds the term on the whole segment where
        it is monotone.  The limits at the breakpoints come with ``sides``;
        those at the two edges are their side-0 values, from one more
        ``event_sums`` call.
        """
        bounds = self._limits[2]
        if bounds is None:
            return None
        inner, first, last = bounds
        rows = []
        self._rows = lambda terms, _: rows.append(terms)
        try:
            self.event_sums(self._edges)
        finally:
            self._rows = None
        at_alpha, at_beta = np.concatenate(rows)
        return np.concatenate([[np.maximum(at_alpha, first).sum()], inner,
                               [np.maximum(last, at_beta).sum()]])

    @property
    def _edges(self) -> np.ndarray:
        iv = self.model.theta_interval
        return np.array([iv.alpha, iv.beta])

    @cached_property
    def _plain_edges(self) -> np.ndarray:
        """Whether alpha and beta are not themselves event breakpoints: there
        the two one-sided intensities of every event agree, so the edge row
        may anchor its outer segment."""
        at = self._edges[:, None]
        return np.all(self.model.value(at, self.events, -1) == self.model.value(at, self.events, 1),
                      axis=1)

    @cached_property
    def _limits(self):
        """(left, right, bounds, anchors) of ``sides``, ``caps`` and
        ``event_sums``.

        On a jump family ``bounds`` is None, and ``anchors`` (``_Anchors``)
        is None where the family declares no ``event_term_slope``.  Where the
        curve only kinks ``anchors`` is None and the terms move both ways on a
        segment: where the family states ``event_sum_rounding`` the one side-0
        call streams its terms block by block as ``event_log_sums`` computes
        them (``_rows``), and each segment sums the maxima of two consecutive
        rows, at no log evaluation of its own.  ``bounds`` is then (the caps
        of the B - 1 segments between breakpoints, the row at the first
        breakpoint, the row at the last), else None.
        """
        br, model = self.breaks, self.model
        if not br.size:
            return br, br, None, None
        if model.event_breakpoints_are_jumps:
            return self._jump_limits(br)
        capped = model.event_sum_rounding(self.events.size) is not None
        inner = np.empty(br.size - 1)
        first = last = None
        at = 0

        def pair(terms, _):
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
        return both, both, (inner, first, last) if capped else None, None

    def _jump_limits(self, br):
        """``_limits`` of a jump family: one ``event_sums`` call per side over
        the breakpoints and, where the family declares a slope, one side-0 row
        at alpha and beta (the edge row), which anchors the two outer
        segments."""
        slope, n_events = self._slope, self.events.size
        edges = np.concatenate([self._edges[:1], br, self._edges[1:]])
        anchors = None
        if slope is not None:
            # row order: the sums from the left at br (each the right end of
            # segment k), from the right (the left end of segment k + 1), then
            # the edge row at alpha and beta; each serves half its segment
            half = 0.5 * np.diff(edges)
            anchors = _Anchors(slope, np.concatenate([half[:-1], half[1:], half[[0, -1]]]),
                               self.model.event_sum_rounding(n_events), n_events)
        # where s = 0 the end sums alone are the anchors
        self._rows = anchors if slope else None
        try:
            from_left, from_right = self.event_sums(br, -1), self.event_sums(br, 1)
            if slope is not None:
                at_edges = self._direct(self._edges)
        finally:
            self._rows = None
        integral = self.integral_terms(br)
        if slope is not None:
            b = br.size
            # segment k's left anchor: alpha, then the sums from the right; its
            # right anchor: the sums from the left, then beta
            order = np.concatenate([[2 * b], np.arange(b, 2 * b), np.arange(b), [2 * b + 1]])
            sums = np.concatenate([from_left, from_right, at_edges])
            usable = np.ones(sums.size, dtype=bool)
            usable[2 * b:] = self._plain_edges
            anchors.finish(edges, sums, usable, order)
        return _log_l(from_left, integral), _log_l(from_right, integral), None, anchors

    def integral_terms(self, thetas) -> np.ndarray:
        """-n * (integral of lambda(theta, .) - 1 over the window): log L less its
        event sums."""
        integ = sum(self.model.integral_hint(thetas, lo, hi) for lo, hi in self.intervals)
        return -self.n * (integ - self.measure)

    def event_sums(self, thetas, theta_side=0) -> np.ndarray:
        """sum_i log lambda(theta, t_i) over the window's events: log L less its
        integral terms.

        Where the family declares ``event_term_slope``, a side-0 theta
        strictly inside a segment between breakpoints (or on an edge of Theta
        that is no event's breakpoint) takes the sum from the anchors of its
        segment's nearer end (``_Anchors``) wherever their truncation bound
        allows; every other theta is evaluated directly.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if theta_side or self._slope is None:
            return self._direct(thetas, theta_side)
        anchors = self._limits[3]
        if anchors is None:
            return self._direct(thetas)
        out, served = anchors.sums(thetas)
        if not served.all():
            out[~served] = self._direct(thetas[~served])
        return out

    def _direct(self, thetas, theta_side=0) -> np.ndarray:
        extra = {} if self._rows is None else {"rows": self._rows}
        return self.model.event_log_sums(thetas, self.events, theta_side=theta_side, **extra)

    def values(self, thetas, theta_side=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return _log_l(self.event_sums(thetas, theta_side), self.integral_terms(thetas))

    def value(self, theta, theta_side=0) -> float:
        return float(self.values(np.array([float(theta)]), theta_side)[0])


# the highest order P of an anchor's series.  An anchor of order P costs about
# 2P + 2 passes over the events' intensities (a division, the least, the
# powers and their sums), against about ten per theta (intensity, log, sum)
# for the two or three thetas per half segment that ``bayes`` asks for; past
# order 8 the series costs more
_MAX_ORDER = 8


def _order_limits():
    """x_P, P = 1.._MAX_ORDER: the largest x whose tail bound after order P is
    at most N*u, i.e. x^(P+1) <= u*(P+1)*(1-x) (a fixed-point iteration from
    below)."""
    limits = []
    for p in range(1, _MAX_ORDER + 1):
        x = 0.0
        for _ in range(60):
            x = (_U * (p + 1) * (1.0 - x)) ** (1.0 / (p + 1))
        limits.append(x)
    return np.array(limits)


_ORDER_LIMITS = _order_limits()


def _ratio(slope, delta, low, rounding, n_events):
    """|s*delta|/m, m read down by the relative error R/(2N) that a computed
    intensity may carry, so that it bounds the exact |s*delta/lambda_i|."""
    return np.abs(slope) * np.abs(delta) / (low * (1.0 - 0.5 * rounding / n_events))


class _Anchors:
    """The event sums at the two ends of every segment between breakpoints,
    each with its series in delta, the distance from that end.

    Segment k runs from edges[k] to edges[k + 1]; its anchors are the sum
    from the right at its left end and from the left at its right end (the
    side-0 sums at alpha and beta on the outer segments).  On a segment every
    term is log(lambda_i(a+) + s*delta) = log lambda_i(a+) + log(1 + y_i*delta),
    y_i = s/lambda_i(a+), so the sum at a + delta is S(a+) + sum_p (-1)^(p+1)
    M_p delta^p/p with M_p = sum_i y_i^p.  A theta takes the nearer end's
    series (the left end on a tie) where its own x = |s*delta|/m <= 1/2 and
    the tail T after the anchor's order is at most R; where s = 0 the sum is
    the anchor's sum itself.

    As the ``_rows`` hook of a jump family's ``_limits`` it reads the M_p of
    each end row off its intensities.  Row j ends a segment of half-width
    h_j, the farthest that a theta it serves lies from it.  With m_j the
    row's least intensity, x_j = |s|*h_j/m_j bounds |s*delta/lambda_i| over
    the row's N events, and the tail of the series after order P is at most
    T = N*x^(P+1)/((P+1)*(1-x)).  The row's order P_j is the least P with
    T <= N*u at x_j (as small as one rounding per event), at most
    ``_MAX_ORDER``.  A block of rows computes the powers up to its highest
    order; ``finish`` keeps each row's own.

    ``error`` bounds, to first order in the unit roundoff u, how far a
    served sum lies from the exact one beyond the anchor's own rounding R:
    the tail, T <= R; the rounding of the series, whose terms add up to at
    most N*x/(1-x) <= N in magnitude and carry a relative error of
    p*R/(2N) from the intensities (``event_term_slope``) and (N + 5P)u from
    the powers, the sums over the events, the division by p and Horner's
    rule, doubled for the higher orders: R + 2N(N + 5P)u; and the final
    addition, u*(|S(a+)| + 2N).  Where s = 0 it is 0.
    """

    def __init__(self, slope, halves, rounding, n_events):
        self.slope, self.halves, self.rounding, self.n_events = slope, halves, rounding, n_events
        self.coeff = np.zeros((_MAX_ORDER, halves.size))
        self.low = np.full(halves.size, np.inf)
        self.order = np.zeros(halves.size, dtype=int)
        self.at = 0

    def __call__(self, terms, lam):
        rows = slice(self.at, self.at + len(lam))
        self.at += len(lam)
        low = lam.min(axis=1, out=self.low[rows])
        x = _ratio(self.slope, self.halves[rows], low, self.rounding, self.n_events)
        order = np.minimum(np.searchsorted(_ORDER_LIMITS, x) + 1, _MAX_ORDER)
        self.order[rows] = order
        # the intensities are not read again once the block's terms are taken
        y = np.divide(self.slope, lam, out=lam)
        power = y
        for p in range(int(order.max())):
            if p:
                power = power * y if p == 1 else np.multiply(power, y, out=power)
            power.sum(axis=1, out=self.coeff[p, rows])

    def finish(self, edges, sums, usable, order):
        """Puts the rows in anchor order (left ends, then right ends) by the
        permutation ``order`` from anchor order to row order, with their
        ``sums`` and whether each is ``usable``."""
        p = np.arange(1, _MAX_ORDER + 1)[:, None]
        top = int(self.order.max()) if self.slope else 0
        # coeff[p - 1]: Horner's coefficient (-1)^(p+1) M_p/p of every anchor, 0
        # past the anchor's order
        coeff = np.where(p <= self.order, self.coeff / np.where(p % 2, p, -p), 0.0)
        self.coeff, self.order, self.low = coeff[:top, order], self.order[order], self.low[order]
        self.edges, self.anchor_sums, self.usable = edges, sums[order], usable[order]
        self.error = 0.0
        if self.slope:
            finite = np.abs(sums[np.isfinite(sums)])
            self.error = (2.0 * self.rounding + 2.0 * self.n_events * (self.n_events + 5 * top + 1)
                          * _U + _U * float(finite.max(initial=0.0)))
        return self

    def route(self, thetas):
        """(j, delta, served) of ``thetas``: the index of each one's anchor,
        its distance delta from it, and whether the series serves it."""
        edges = self.edges
        segments = edges.size - 1
        k = np.clip(np.searchsorted(edges, thetas) - 1, 0, segments - 1)
        from_left, from_right = thetas - edges[k], thetas - edges[k + 1]
        # in Theta and on no breakpoint (those are evaluated directly)
        inside = (from_left >= 0.0) & (from_right <= 0.0)
        inside &= (from_right < 0.0) | (k == segments - 1)
        near_left = from_left <= -from_right
        j = np.where(near_left, k, segments + k)
        delta = np.where(near_left, from_left, from_right)
        served = inside & self.usable[j]
        if self.slope:
            # x <= 1/2 and the tail bound N*x^(P+1)/((P+1)*(1-x)) <= R of the
            # anchor's order P
            x = np.minimum(_ratio(self.slope, delta, self.low[j], self.rounding, self.n_events),
                           1.0)
            power = self.order[j] + 1
            served &= (x <= 0.5) & (self.n_events * x ** power <= self.rounding * power * (1.0 - x))
        return j, delta, served

    def sums(self, thetas):
        """(event sums, served): the anchors' sums at ``thetas`` where served."""
        j, delta, served = self.route(thetas)
        j, delta = j[served], delta[served]
        sums = self.anchor_sums[j]
        if len(self.coeff):
            # Horner's rule in delta
            series = self.coeff[-1][j]
            for coeff in self.coeff[-2::-1]:
                series *= delta
                series += coeff[j]
            sums = sums + series * delta
        out = np.empty(thetas.shape)
        out[served] = sums
        return out, served


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
    return _direct_value(LikelihoodEvaluator(model, sample, window), theta, theta_side)


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
    diff = _direct_value(ev, shifted) - _direct_value(ev, float(theta0))
    return diff if log else float(np.exp(diff))


def _direct_value(ev: LikelihoodEvaluator, theta: float, theta_side=0) -> float:
    """log L at one theta from its direct event sum: the anchors that ``values``
    serves a side-0 theta from cost 2B + 2 event sums to build, for one theta."""
    thetas = np.array([theta])
    return float(_log_l(ev._direct(thetas, theta_side), ev.integral_terms(thetas))[0])


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
