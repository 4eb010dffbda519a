"""MLE, Bayesian (posterior-mean) and method-of-moments estimators, and the
window of two-stage estimation.

Optimization is grid-first everywhere: the same candidate machinery serves
smooth, kinked, and jumpy likelihoods.  One-sided values at sample-dependent
theta-breakpoints realize sup over discontinuous curves exactly; golden
section refines the bracketing cell only where the family is theta-smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (_panel_counts, _simpson_layout, _window_intervals, golden_search,
                       lookahead_tree, segment_sums)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    EstimationError,
    PreconditionError,
)
from .intensity import _U, IntensityModel, SuffWinLinearModel
from .likelihood import LikelihoodEvaluator, curve_grid
from .simulate import Sample
from .windows import Window, optimal_window, sufficient_window

__all__ = ["EstimatorSettings", "Estimate", "mle", "bayes", "moments_preliminary",
           "two_stage_window"]

_DEGENERATE_WIDTH = 1e-11
# Simpson panels of ``bayes``, spread over the segments between breakpoints
_BAYES_PANELS = 4096
# the fixed cost of one ``values`` call in (theta, event) pairs of a generic
# event sum: about 30 us against about 7 ns a pair (2-vCPU x86-64, numpy 2.4).
# Past depth 5 (31 points) a lookahead tree's Python bookkeeping costs more
# than the calls it saves.  See ``_lookahead``.
_CALL_PAIRS = 4096
_MAX_LOOKAHEAD = 5


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs shared by the grid-based estimators.

    ``prior`` is "uniform" or a (theta_grid, density) pair interpolated
    linearly; densities must be positive on Theta.  ``zoom_rounds`` sets the
    iterated grid refinement of continuous but non-smooth likelihoods (cusp
    type).  Every other choice of search path is read off the model and the
    sample (see ``mle``).
    """

    grid_size: int = 4001
    prior: object = "uniform"
    zoom_rounds: int = 0
    estimators: tuple = ("mle", "bayes")

    def __post_init__(self):
        if self.grid_size < 3:
            raise ConfigurationError(f"grid_size must be >= 3, got {self.grid_size}")
        if self.zoom_rounds < 0:
            raise ConfigurationError(f"zoom_rounds must be >= 0, got {self.zoom_rounds}")
        names = tuple(self.estimators) if isinstance(self.estimators, (list, tuple)) else ()
        if (not names or any(x not in ("mle", "bayes") for x in names)
                or len(set(names)) < len(names)):
            raise ConfigurationError("estimators must list distinct names out of 'mle' and "
                                     f"'bayes', got {self.estimators!r}")
        object.__setattr__(self, "estimators", names)
        if isinstance(self.prior, str):
            if self.prior != "uniform":
                raise ConfigurationError(f"unknown prior {self.prior!r}")
            return
        try:
            grid, dens = (np.asarray(a, dtype=float) for a in self.prior)
        except (TypeError, ValueError):
            grid = dens = np.empty(0)
        if (grid.ndim != 1 or grid.size < 2 or grid.shape != dens.shape
                or not np.all(np.diff(grid) > 0)):
            raise ConfigurationError("prior must be 'uniform' or a (theta_grid, density) pair of "
                                     f"equal length, theta_grid increasing; got {self.prior!r}")
        if not np.all((dens > 0) & np.isfinite(dens)):
            raise ConfigurationError("prior density must be positive on Theta")
        object.__setattr__(self, "prior", (grid, dens))


DEFAULT_SETTINGS = EstimatorSettings()


@dataclass(frozen=True)
class Estimate:
    value: float
    objective_at_value: float
    method: str


def _clamp(x, iv):
    return float(min(max(x, iv.alpha), iv.beta))


def _candidate_argmax(thetas, sides, values):
    """(theta, value) of the first candidate attaining the max: smallest theta,
    then left side."""
    order = np.lexsort((sides, thetas))
    vals = values[order]
    if not np.any(vals > -np.inf):
        raise EstimationError("log-likelihood is -inf over every candidate")
    i = int(np.argmax(vals))
    return float(thetas[order][i]), float(vals[i])


def _eval_candidates(ev, grid, bounded=True):
    """(theta, side, value) candidate arrays of one search pass over ``grid``.

    The candidates are the grid on side 0 and the sample's breakpoints strictly
    inside it on sides -1 and +1, their values read off ``ev.sides``.  Where
    ``bounded``, grid points that ``_may_win`` rules out are not evaluated and
    take -inf.
    """
    inside = (ev.breaks > grid[0]) & (ev.breaks < grid[-1])
    breaks = ev.breaks[inside]
    left, right = (v[inside] for v in ev.sides)
    keep = np.ones(grid.size, dtype=bool)
    if bounded and breaks.size:
        keep = _may_win(ev, grid, max(left.max(), right.max()))
    vals = np.full(grid.size, -np.inf)
    vals[keep] = ev.values(grid[keep])
    thetas = np.concatenate([grid, breaks, breaks])
    sides = np.repeat([0, -1, 1], [grid.size, breaks.size, breaks.size])
    return thetas, sides, np.concatenate([vals, left, right])


def _may_win(ev, grid, best):
    """Mask of the grid points whose log L may reach ``best``.

    A point in the segment k that the breakpoints cut Theta into has log L
    <= C_k + I(theta), where C_k is the segment's cap on the event sum
    (``ev.caps``, which only a kink family states) and I(theta) =
    ``ev.integral_terms(theta)`` the rest of log L, computed at the point
    itself (closed-form, no event sum).  A point is dropped when that bound
    plus the margin 2R + 8u*(|C_k| + |I(theta)|) stays below ``best`` (R the
    family's ``event_sum_rounding``, u the unit roundoff): the margin covers
    the rounding of the point's event sum, of the cap and of the two
    additions, so a dropped point computes strictly below ``best`` and can be
    neither the argmax nor tied with it.  A point on a breakpoint is always
    kept, and every point is kept where there are no caps or ``best`` is
    -inf.
    """
    caps = ev.caps
    if caps is None or not best > -np.inf:
        return np.ones(grid.size, dtype=bool)
    j = np.searchsorted(ev.breaks, grid)
    cap = caps[j]
    integral = ev.integral_terms(grid)
    margin = (2.0 * ev.model.event_sum_rounding(ev.events.size)
              + 8.0 * _U * (np.abs(cap) + np.abs(integral)))
    on_break = ev.breaks[np.minimum(j, ev.breaks.size - 1)] == grid
    return ~(cap + integral + margin < best) | on_break


def _evaluator(model, sample, window, evaluator):
    """``evaluator``, checked against (model, sample, window), or a new one."""
    if evaluator is None:
        return LikelihoodEvaluator(model, sample, window)
    if (evaluator.model is not model or evaluator.n != sample.n
            or evaluator.intervals != _window_intervals(window, model.horizon)):
        raise PreconditionError("evaluator belongs to another model, sample or window")
    return evaluator


def mle(model: IntensityModel, sample: Sample, settings: EstimatorSettings | None = None,
        window=None, evaluator: LikelihoodEvaluator | None = None) -> Estimate:
    """Maximum-likelihood estimate over Theta's closure.

    One exact search serves every sample.  Its candidates are the grid and
    both one-sided values at each breakpoint (``LikelihoodEvaluator.sides``),
    G + 2B for G grid points and B breakpoints (G + B where the curve only
    kinks: one side-0 value serves both sides).  Each breakpoint kind has one
    rule that spares the grid its event sums of N terms each.  Where the
    curve only kinks, the sides come with per-segment caps
    (``LikelihoodEvaluator.caps``), and a grid point is evaluated only where
    its segment's cap does not rule it out (``_may_win``).  Where it jumps
    and the family declares ``event_term_slope``, every candidate, both
    sides of each breakpoint included, reads the evaluator's table of
    prefix sums at O(P) cost, after K(P + 1) passes over the N events to
    build it (``likelihood._SumTable``).  Ties break toward the
    smaller theta; at sample-dependent discontinuities both one-sided limits
    compete for the sup.
    Zoom rounds then refine cusp-type likelihoods, and golden-section and score
    refinement run where the family is theta-smooth.  ``evaluator`` is the
    sample's ``LikelihoodEvaluator``, shared with ``bayes`` so that its
    ``sides`` are computed once; it is built here when None.
    """
    if sample.n < 1:
        raise PreconditionError("sample must contain at least one trajectory")
    settings = settings or DEFAULT_SETTINGS
    iv = model.theta_interval
    if iv.width < _DEGENERATE_WIDTH:
        return Estimate(iv.midpoint, float("nan"), "mle")

    ev = _evaluator(model, sample, window, evaluator)
    grid = curve_grid(model, settings.grid_size)
    th, sd, vals = _eval_candidates(ev, grid)
    best_theta, best_val = _candidate_argmax(th, sd, vals)

    if settings.zoom_rounds and not model.is_theta_smooth:
        best_theta, best_val = _zoom_refine(ev, best_theta, best_val, 4.0 * (grid[1] - grid[0]),
                                            settings.zoom_rounds)
    elif model.smoothness_order >= 1:
        best_theta, best_val = _golden_refine(ev, grid, best_theta, best_val)

    return Estimate(_clamp(best_theta, iv), best_val, "mle")


def _golden_refine(ev, grid, best_theta, best_val):
    """Golden-section inside the bracketing cell of ``grid``, never across a
    declared kink, then score bisection where the family is theta-smooth.

    Both searches evaluate a lookahead tree per ``values`` call
    (``_lookahead``); their points and results are those of one point (one
    score) per call.
    """
    i = int(np.searchsorted(grid, best_theta))
    i = min(max(i, 0), grid.size - 1)
    if not math.isclose(grid[i], best_theta, rel_tol=0, abs_tol=1e-15):
        return best_theta, best_val
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    kinks = [k for k in ev.model.theta_kinks if lo < k < hi]
    segments = []
    edges = [lo, *sorted(kinks), hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            segments.append((a, b))

    iv = ev.model.theta_interval
    golden_depth, score_depth = _lookahead(ev)
    best = (best_theta, best_val)
    for a, b in segments:
        x = golden_search(lambda t: -ev.values(t), a, b, tol=1e-8, depth=golden_depth)
        if ev.model.is_theta_smooth:
            x = _score_bisect(ev.values, x, iv.alpha, iv.beta, score_depth)
            x = min(max(x, a), b)
        v = ev.value(x)
        if v > best[1]:
            best = (x, v)
    return best


def _lookahead(ev):
    """(golden, score) lookahead depths of ``_golden_refine``: the depth d
    whose values call per d steps costs least per step.

    A call costs _CALL_PAIRS (theta, event) pairs of overhead plus its thetas'
    event sums, ``ev.events.size`` pairs each, or one each where the family's
    event sums are closed-form; a tree of depth d holds 2^d - 1 golden points
    or score midpoints, and a midpoint is two thetas.
    """
    pairs = 1 if ev.model.event_sums_are_closed_form else max(1, ev.events.size)

    def best(thetas_per_point):
        return min(range(1, _MAX_LOOKAHEAD + 1),
                   key=lambda d: (_CALL_PAIRS + (2 ** d - 1) * thetas_per_point * pairs) / d)

    return best(1), best(2)


def _score_bisect(values, x, lo, hi, depth=1, iters=64):
    """Bisection on the central-difference score around a golden-section point.

    Value comparisons alone localize a smooth argmax only to about
    sqrt(eps * |logL| / curvature); the differenced score pushes that to
    ~1e-10, which the closed-form estimator oracles require.  ``values`` maps
    thetas to log L; each call after the first takes the midpoints of the next
    ``depth`` bisection steps, 2^depth - 1 of them (fewer where the search
    stops), each as t + h and t - h, and the steps then walk that tree.
    """
    h = 1e-5 * max(1.0, abs(x))
    a = max(lo, x - 64.0 * h)
    b = min(hi, x + 64.0 * h)
    if a - h < lo or b + h > hi or a >= b:
        return x

    fa_hi, fa_lo, fb_hi, fb_lo = values(np.array([a + h, a - h, b + h, b - h])).tolist()
    if fa_hi - fa_lo <= 0.0 or fb_hi - fb_lo >= 0.0:
        return x

    def split(node):  # (a, b, mid): the brackets after a positive and a negative score
        na, nb, mid = node
        stop = 1e-13 * max(1.0, abs(mid))
        return (None if nb - mid <= stop else (mid, nb, 0.5 * (mid + nb)),
                None if mid - na <= stop else (na, mid, 0.5 * (na + mid)))

    steps = 0
    while steps < iters:
        nodes, kids = lookahead_tree((a, b, 0.5 * (a + b)), split, min(depth, iters - steps))
        mids = np.array([node[2] for node in nodes])
        up, down = np.split(values(np.concatenate([mids + h, mids - h])), 2)
        scores = (up - down).tolist()
        i = 0
        while True:
            mid = nodes[i][2]
            dm = scores[i]
            steps += 1
            if dm > 0.0:
                a = mid
            elif dm < 0.0:
                b = mid
            else:
                return mid
            if b - a <= 1e-13 * max(1.0, abs(mid)):
                return 0.5 * (a + b)
            if i >= len(kids):
                break
            i = kids[i][0 if dm > 0.0 else 1]
    return 0.5 * (a + b)


def _zoom_refine(ev, theta, val, width, rounds):
    """Iterated grid refinement for continuous non-smooth likelihoods.

    Each round searches 129 points over theta +- width clipped to Theta, the
    sample's breakpoints inside (from ``ev.sides``, not evaluated again), and
    the incumbent; the next width is four of its grid steps.  The 129 points
    are all evaluated: this close to the incumbent the caps of ``_may_win``
    rule out almost none of them.
    """
    iv = ev.model.theta_interval
    for _ in range(rounds):
        lo, hi = max(iv.alpha, theta - width), min(iv.beta, theta + width)
        if hi <= lo:
            break
        fine = np.linspace(lo, hi, 129)
        th, sd, vals = _eval_candidates(ev, fine, bounded=False)
        theta, val = _candidate_argmax(np.append(th, theta), np.append(sd, 0),
                                       np.append(vals, val))
        width = 4.0 * (fine[1] - fine[0])
    return theta, val


def _prior_weights(prior, nodes):
    """Density of ``EstimatorSettings.prior`` at nodes, normalized by its maximum
    over all of them.

    Max-normalization makes rescaling the density by a power of two a bitwise
    no-op, which is what the rescale-invariance contract tests.
    """
    if isinstance(prior, str):
        return np.ones(nodes.shape)
    grid, dens = prior
    p = np.interp(nodes, grid, dens)
    if np.any(p <= 0):
        raise ConfigurationError("prior density must be positive on Theta")
    return p / np.max(p)


def bayes(model: IntensityModel, sample: Sample, settings: EstimatorSettings | None = None,
          window=None, evaluator: LikelihoodEvaluator | None = None) -> Estimate:
    """Posterior-mean estimate under the quadratic loss.

    Composite Simpson over Theta, split at declared kinks and at the
    sample-dependent breakpoints.  The nodes and weights of all segments are
    built at once, and each distinct (theta, side) is evaluated once: the two
    nodes of a sample breakpoint take ``ev.sides``, and the two nodes of a
    declared kink share one side-0 value.  Where the family declares
    ``event_term_slope`` every node reads the evaluator's table of prefix
    sums, built once and shared with ``mle``, at O(P) cost, against an event
    sum of N terms per node otherwise.
    Log-likelihood values are max-subtracted before exponentiation; each
    segment is summed as np.sum sums it, and the segment sums are added in
    order.  ``evaluator`` is as in ``mle``.
    """
    if sample.n < 1:
        raise PreconditionError("sample must contain at least one trajectory")
    settings = settings or DEFAULT_SETTINGS
    iv = model.theta_interval
    if iv.width < _DEGENERATE_WIDTH:
        return Estimate(iv.midpoint, float("nan"), "bayes")

    ev = _evaluator(model, sample, window, evaluator)
    cuts = np.unique(np.concatenate([
        ev.breaks,
        np.array([k for k in model.theta_kinks if iv.alpha < k < iv.beta]),
    ]))
    edges = np.concatenate([[iv.alpha], cuts, [iv.beta]])
    shares = _panel_counts(edges, _BAYES_PANELS, 4)
    nodes, coeff, starts = _simpson_layout(edges[:-1], edges[1:], shares)

    # each distinct (theta, side) once.  Cut c is node left[c], the last of the
    # segment before it, and node right[c], the first after it: the left and the
    # right limit at a sample breakpoint, one side-0 value at a declared kink
    left, right = (starts + shares)[:-1], starts[1:]
    at_break = np.searchsorted(cuts, ev.breaks)
    own = np.ones(nodes.size, dtype=bool)
    own[right] = own[left[at_break]] = False
    vals = np.empty(nodes.size)
    vals[own] = ev.values(nodes[own])
    vals[right] = vals[left]
    vals[left[at_break]], vals[right[at_break]] = ev.sides
    max_ll = float(np.max(vals, where=np.isfinite(vals), initial=-np.inf))
    if not np.isfinite(max_ll):
        raise EstimationError("log-likelihood is -inf over the whole parameter grid")

    w = np.exp(vals - max_ll) * _prior_weights(settings.prior, nodes)
    mass, moment = w * coeff, w * nodes * coeff
    # np.sum per segment, added up in segment order (np.add.reduceat rounds
    # differently); + 0.0: a left fold from 0.0 never ends on -0.0
    sums = segment_sums((mass, moment), starts, shares + 1)
    den, num = np.cumsum(sums, axis=1)[:, -1] + 0.0

    if den <= 0.0 or not np.isfinite(den):
        raise EstimationError(
            f"posterior mass underflowed (max log-likelihood {max_ll:.6g})"
        )
    value = _clamp(num / den, iv)
    return Estimate(value, max_ll, "bayes")


def moments_preliminary(model: IntensityModel, sample: Sample) -> Estimate:
    """Method-of-moments inversion of the mean terminal count (ramp+jump family)."""
    if not isinstance(model, SuffWinLinearModel):
        raise CapabilityError("moments_preliminary is defined for SUFFWIN_LINEAR only")
    if sample.n < 1:
        raise PreconditionError("sample must contain at least one trajectory")
    tau = model.horizon
    lam_hat = sample.total_events() / sample.n
    raw = tau - (lam_hat - model.a * tau ** 2) / model.b
    return Estimate(_clamp(raw, model.theta_interval), float("nan"), "moments")


def two_stage_window(model: IntensityModel, sample: Sample,
                     settings: EstimatorSettings | None, mode: str,
                     mu_star: float | None = None) -> tuple[Window, Sample]:
    """(window, rest) of split-sample estimation.

    The first floor(sqrt(n)) trajectories give a preliminary estimate (the
    method of moments on ``SUFFWIN_LINEAR``, ``mle`` elsewhere) that picks the
    window: ``mode`` "optimal" is the level set of the Fisher integrand of
    measure ``mu_star``, "sufficient" the interval of halfwidth n^{-1/8}
    around the preliminary value.  The remaining trajectories, independent of
    the window, are the sample of the final estimators.
    """
    if mode not in ("optimal", "sufficient"):
        raise DomainError(f"unknown window mode {mode!r}")
    if mode == "optimal" and mu_star is None:
        raise ConfigurationError("window mode 'optimal' needs mu_star")
    n = sample.n
    if n < 9:
        raise PreconditionError(f"two-stage estimation needs n >= 9, got {n}")
    n1 = math.isqrt(n)
    first, rest = sample[:n1], sample[n1:]
    if isinstance(model, SuffWinLinearModel):
        prelim = moments_preliminary(model, first)
    else:
        prelim = mle(model, first, settings)
    if mode == "optimal":
        return optimal_window(model, prelim.value, mu_star), rest
    return sufficient_window(prelim, n, model.horizon), rest
