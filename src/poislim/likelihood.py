"""The log-likelihood of one sample, over Theta.

log L(theta) = sum_j sum_{t_i in W} ln lambda(theta, t_i)
             - n * integral_W (lambda(theta, t) - 1) dt

The "-1" reference intensity inside the integral is kept verbatim; it shifts
the log-likelihood by a theta-free constant and cancels in every ratio.
The integral term is each family's closed-form ``integral_hint`` summed over
the window's intervals.  Everything is computed in log space.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import numpy.ma  # noqa: F401  np.unique loads it lazily; load it before workers fork

from . import analysis
from .intensity import _U, IntensityModel
from .simulate import Sample

__all__ = ["LikelihoodEvaluator", "curve_grid"]


class LikelihoodEvaluator:
    """log L(theta, X^n) of one sample, over ``window`` (None = [0, horizon]).

    The windowed pooled events and ``sample.n`` are stored once; every
    estimator search evaluates this one object.
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

    @property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) limits of log L at ``breaks``.

        Where the family's curve only kinks (``event_breakpoints_are_jumps``
        false) one side-0 array serves as both.
        """
        return self._limits[:2]

    @property
    def caps(self) -> np.ndarray | None:
        """Caps on the event sum of log L over the segments that ``breaks``
        cut Theta into, where the curve only kinks and the family states
        ``event_sum_rounding``; None elsewhere (a jump family's segments take
        their sums from the table of ``event_sums`` instead).

        Entry k caps the segment between edges k and k + 1 of
        [alpha, *breaks, beta]: the sum over the events of the larger of the
        two limits of log lambda(theta, t_i) from inside the segment, which
        bounds the term on the whole segment where it is monotone.
        """
        return self._limits[2]

    @cached_property
    def _limits(self):
        """(left, right, caps) of ``sides`` and ``caps``.

        On a jump family the sides are one ``event_sums`` call per side and
        there are no caps.  Where the curve only kinks the terms are
        continuous in theta, so one side-0 pass of ``event_log_terms`` over
        [alpha, *breaks, beta] gives both: the sums of its inner rows are the
        values at the breakpoints, and the maxima of each two consecutive rows
        sum to the cap of the segment between them, at no log evaluation of
        its own.
        """
        br, model = self.breaks, self.model
        if not br.size:
            return br, br, None
        if model.event_breakpoints_are_jumps:
            integral = self.integral_terms(br)
            return (_log_l(self.event_sums(br, -1), integral),
                    _log_l(self.event_sums(br, 1), integral), None)
        iv = model.theta_interval
        sums, caps = np.empty(br.size + 2), np.empty(br.size + 1)
        last = None
        for lo, terms in model.event_log_terms(np.concatenate([[iv.alpha], br, [iv.beta]]),
                                               self.events):
            sums[lo:lo + len(terms)] = terms.sum(axis=1)
            if last is not None:
                caps[lo - 1] = np.maximum(last, terms[0]).sum()
            caps[lo:lo + len(terms) - 1] = np.maximum(terms[:-1], terms[1:]).sum(axis=1)
            # a copy: a view would keep the whole block alive past the next one
            last = terms[-1].copy()
            del terms
        both = _log_l(sums[1:-1], self.integral_terms(br))
        capped = model.event_sum_rounding(self.events.size) is not None
        return both, both, caps if capped else None

    @cached_property
    def _table(self):
        """The ``_SumTable`` of a family that declares ``event_term_slope``,
        else None; built on the first ``event_sums`` call."""
        slope = self.model.event_term_slope() if self.events.size else None
        return None if slope is None else _SumTable(self.model, self.events, slope)

    def integral_terms(self, thetas) -> np.ndarray:
        """-n * (integral of lambda(theta, .) - 1 over the window): log L less its
        event sums."""
        integ = sum(self.model.integral_hint(thetas, lo, hi) for lo, hi in self.intervals)
        return -self.n * (integ - self.measure)

    def event_sums(self, thetas, theta_side=0) -> np.ndarray:
        """sum_i log lambda(theta, t_i) over the window's events: log L less its
        integral terms.

        Where the family declares ``event_term_slope`` a theta in Theta takes
        its sum, on any side, from the evaluator's ``_SumTable`` at O(P) cost;
        a side-0 theta on an event's breakpoint, a theta outside Theta and
        every theta of any other family take a direct sum of N terms.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        table = self._table
        if table is None:
            return self.model.event_log_sums(thetas, self.events, theta_side)
        out, direct = table.sums(thetas, theta_side)
        if direct.any():
            out[direct] = self.model.event_log_sums(thetas[direct], self.events, theta_side)
        return out

    def values(self, thetas, theta_side=0) -> np.ndarray:
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return _log_l(self.event_sums(thetas, theta_side), self.integral_terms(thetas))

    def value(self, theta, theta_side=0) -> float:
        return float(self.values(np.array([float(theta)]), theta_side)[0])


# the largest x = |s|*h/m of a ``_SumTable``'s series (h the farthest a theta
# lies from its anchor, m the least branch intensity); its order P then stays
# at or below 16
_MAX_X = 0.125


def _split_sums(after, before):
    """Entry j, j = 0..N: the sum of after[:j] plus the sum of before[j:], each
    a running sum (the second from the far end), so that no entry subtracts
    one sum from another and a -inf term never meets a +inf."""
    head = np.concatenate([[0.0], np.cumsum(after)])
    tail = np.concatenate([np.cumsum(before[::-1])[::-1], [0.0]])
    return head + tail


class _SumTable:
    """Every event sum of an evaluator whose family declares
    ``event_term_slope`` s, from prefix sums in breakpoint order.

    Each event has one theta-breakpoint b_i, and its intensity is affine in
    theta with slope s on the branch before b_i and on the one after it
    (``event_branches``).  With the N events sorted by b_i, the sum at theta
    on side -1 takes the after-branch of the first j = #{b_i < theta} events
    and the before-branch of the rest; side +1 takes j = #{b_i <= theta}, and
    so does side 0 off every breakpoint.  A side-0 theta on one is left to a
    direct sum, and so is a theta outside Theta.

    Theta is cut into K equal cells of width 2h, each with its anchor a at the
    middle.  With y_i = s/lambda_i(a) on the branch that the event takes,
    log lambda_i(a + delta) = log lambda_i(a) + sum_p (-1)^(p+1) (y_i delta)^p/p,
    so the sum at theta = a + delta is
        L[j] + sum_{p=1..P} c_p[j] delta^p  (Horner's rule in delta),
    where L[j] is the sum of log lambda_i(a) and c_p[j] = (-1)^(p+1)/p times the
    sum of y_i^p, each over the after-branches of the first j events and the
    before-branches of the rest (``_split_sums``).

    K is the least with |s|*h/m <= ``_MAX_X``, m the least branch intensity at
    alpha and beta (an affine branch takes its least value over Theta at an
    edge).  P is the least order whose tail N*x^(P+1)/((P+1)*(1-x)) is at
    most N*u (u the unit roundoff), for x = |s|*h/m_a at the anchor with the
    largest one, m_a the anchor's least branch intensity.  Both m are read
    down by the relative error R/(2N) of a computed intensity.  Where s = 0
    the sum is L[j] and no power is built (lambda = 0 would give 0/0).
    README ("Event sums from breakpoint-ordered prefix sums") bounds how far
    a sum lies from the exact one.
    """

    def __init__(self, model, events, slope):
        iv = model.theta_interval
        b = model.event_branches(iv.alpha, events)[0]
        order = np.argsort(b, kind="stable")
        self.breaks, events = b[order], events[order]
        self.alpha, self.beta = iv.alpha, iv.beta
        n = events.size
        count, shrink = 1, 1.0
        if slope:
            shrink = 1.0 - 0.5 * model.event_sum_rounding(n) / n
            low = shrink * min(float(lam.min()) for th in (iv.alpha, iv.beta)
                               for lam in model.event_branches(th, events)[1:])
            count = max(1, math.ceil(abs(slope) * iv.width / (2.0 * _MAX_X * low)))
        self.step = iv.width / count
        self.anchors = iv.alpha + (np.arange(count) + 0.5) * self.step
        rows = [model.event_branches(a, events)[1:] for a in self.anchors]
        x = max(0.5 * abs(slope) * self.step / (shrink * min(before.min(), after.min()))
                for before, after in rows) if slope else 0.0
        self.order = 0
        while x ** (self.order + 1) > _U * (self.order + 1) * (1.0 - x):
            self.order += 1
        sums = np.empty((count, n + 1))
        coeff = np.empty((self.order, count, n + 1))
        for k, (before, after) in enumerate(rows):
            with np.errstate(divide="ignore"):
                sums[k] = _split_sums(np.log(after), np.log(before))
            if self.order:
                y_after, y_before = slope / after, slope / before
                power_after, power_before = y_after, y_before
                for p in range(1, self.order + 1):
                    if p > 1:
                        power_after, power_before = power_after * y_after, power_before * y_before
                    coeff[p - 1, k] = _split_sums(power_after, power_before) / (p if p % 2 else -p)
        self.logs, self.coeff = sums.ravel(), coeff.reshape(self.order, sums.size)

    def locate(self, thetas, theta_side):
        """(k, j, direct): each theta's anchor, its entry j in the anchor's row,
        and whether the table leaves it to a direct sum."""
        lo = np.searchsorted(self.breaks, thetas, "left")
        hi = np.searchsorted(self.breaks, thetas, "right")
        inside = (thetas >= self.alpha) & (thetas <= self.beta)
        direct = ~inside | (lo != hi) if theta_side == 0 else ~inside
        cell = (np.where(inside, thetas, self.alpha) - self.alpha) / self.step
        k = np.minimum(cell.astype(int), self.anchors.size - 1)
        return k, lo if theta_side < 0 else hi, direct

    def sums(self, thetas, theta_side):
        """(event sums, direct): the table's sums at ``thetas`` and the mask of
        those it leaves to a direct sum (their entries mean nothing)."""
        k, j, direct = self.locate(thetas, theta_side)
        at = k * (self.breaks.size + 1) + j
        out = self.logs[at]
        if self.order:
            delta = np.where(direct, 0.0, thetas - self.anchors[k])
            series = self.coeff[-1][at]
            for coeff in self.coeff[-2::-1]:
                series *= delta
                series += coeff[at]
            out += series * delta
        return out, direct


def _log_l(event_sums, integral_terms):
    """log L from its two parts, a NaN read as -inf."""
    vals = event_sums + integral_terms
    return np.where(np.isnan(vals), -np.inf, vals)


def curve_grid(model: IntensityModel, grid_size: int) -> np.ndarray:
    """Uniform grid over Theta's closure plus the declared kinks."""
    iv = model.theta_interval
    grid = np.linspace(iv.alpha, iv.beta, grid_size)
    kinks = [k for k in model.theta_kinks if iv.alpha < k < iv.beta]
    if kinks:
        grid = np.unique(np.concatenate([grid, np.array(kinks)]))
    return grid

