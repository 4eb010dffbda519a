"""MLE, Bayesian (posterior-mean), method-of-moments, and two-stage estimators.

Optimization is grid-first everywhere: the same candidate machinery serves
smooth, kinked, and jumpy likelihoods.  One-sided values at sample-dependent
theta-breakpoints realize sup over discontinuous curves exactly; golden
section refines the bracketing cell only where the family is theta-smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _simpson_weights, golden_section_max
from .errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    EstimationError,
    PreconditionError,
)
from .intensity import IntensityModel, SuffWinLinearModel
from .likelihood import LikelihoodEvaluator, curve_grid, split_breaks
from .simulate import Sample

__all__ = ["EstimatorSettings", "Estimate", "mle", "bayes", "moments_preliminary", "two_stage"]

_DEGENERATE_WIDTH = 1e-11
_LOCALIZE_BREAK_COUNT = 512
_LOCALIZE_MARGIN_CELLS = 8


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs shared by the grid-based estimators.

    ``prior`` is "uniform" or a (theta_grid, density) pair interpolated
    linearly; densities must be positive on Theta.  ``localize`` enables the
    two-pass search for models with many sample-dependent breakpoints (None =
    automatic), ``zoom_rounds`` iterated grid refinement for continuous but
    non-smooth likelihoods (cusp type).
    """

    grid_size: int = 4001
    refine: bool = True
    prior: object = "uniform"
    bayes_panels: int = 4096
    localize: bool | None = None
    zoom_rounds: int = 0
    estimators: tuple = ("mle", "bayes")

    def __post_init__(self):
        if self.grid_size < 3:
            raise ConfigurationError(f"grid_size must be >= 3, got {self.grid_size}")
        if self.bayes_panels < 16 or self.bayes_panels % 2:
            raise ConfigurationError("bayes_panels must be even and >= 16")
        if isinstance(self.prior, str):
            if self.prior != "uniform":
                raise ConfigurationError(f"unknown prior {self.prior!r}")
        else:
            grid, dens = self.prior
            if np.any(np.asarray(dens, dtype=float) <= 0):
                raise ConfigurationError("prior density must be positive on Theta")
            object.__setattr__(self, "prior", (np.asarray(grid, dtype=float),
                                               np.asarray(dens, dtype=float)))


DEFAULT_SETTINGS = EstimatorSettings()


@dataclass(frozen=True)
class Estimate:
    value: float
    objective_at_value: float
    method: str


def _clamp(x, iv):
    return float(min(max(x, iv.alpha), iv.beta))


def _candidate_argmax(thetas, sides, values):
    """First (= smallest theta, then left side) index attaining the max."""
    order = np.lexsort((sides, thetas))
    vals = values[order]
    if not np.any(vals > -np.inf):
        raise EstimationError("log-likelihood is -inf over every candidate")
    i = int(np.argmax(vals))
    return float(thetas[order][i]), int(sides[order][i]), float(vals[i])


def _eval_candidates(ev, sample, events, grid, jump_breaks, kink_breaks):
    """Assemble (theta, side, value) candidate arrays for one search pass."""
    thetas = [grid]
    sides = [np.zeros(grid.size, dtype=int)]
    values = [ev.values(grid, sample, events)]
    if kink_breaks.size:
        thetas.append(kink_breaks)
        sides.append(np.zeros(kink_breaks.size, dtype=int))
        values.append(ev.values(kink_breaks, sample, events))
    if jump_breaks.size:
        for side in (-1, 1):
            thetas.append(jump_breaks)
            sides.append(side * np.ones(jump_breaks.size, dtype=int))
            values.append(ev.values(jump_breaks, sample, events, theta_side=side))
    return np.concatenate(thetas), np.concatenate(sides), np.concatenate(values)


def mle(model: IntensityModel, sample: Sample, settings: EstimatorSettings | None = None,
        window=None) -> Estimate:
    """Maximum-likelihood estimate over Theta's closure.

    Ties break toward the smaller theta; at sample-dependent discontinuities
    both one-sided limits compete for the sup.
    """
    if sample.n < 1:
        raise PreconditionError("sample must contain at least one trajectory")
    settings = settings or DEFAULT_SETTINGS
    iv = model.theta_interval
    if iv.width < _DEGENERATE_WIDTH:
        return Estimate(iv.midpoint, float("nan"), "mle")

    ev = LikelihoodEvaluator(model, window)
    events = ev.prepare_events(sample)
    grid = curve_grid(model, settings.grid_size)
    breaks = split_breaks(model, events, iv.alpha, iv.beta)
    n_breaks = breaks[0].size + breaks[1].size
    cell = grid[1] - grid[0]

    localize = settings.localize
    if localize is None:
        localize = n_breaks > _LOCALIZE_BREAK_COUNT

    if localize and n_breaks:
        coarse_vals = ev.values(grid, sample, events)
        if not np.any(coarse_vals > -np.inf):
            raise EstimationError("log-likelihood is -inf over the whole grid")
        i = int(np.argmax(coarse_vals))
        th, sd, vals, _ = _local_candidates(ev, sample, events, breaks, grid[i],
                                            coarse_vals[i], _LOCALIZE_MARGIN_CELLS * cell)
    else:
        th, sd, vals = _eval_candidates(ev, sample, events, grid, *breaks)

    best_theta, best_side, best_val = _candidate_argmax(th, sd, vals)

    if settings.zoom_rounds and not model.is_theta_smooth:
        best_theta, best_val = _zoom_refine(ev, sample, events, breaks, best_theta, best_val,
                                            4.0 * cell, settings.zoom_rounds)
    elif settings.refine and model.smoothness_order >= 1:
        best_theta, best_val = _golden_refine(
            ev, sample, events, model, th, sd, vals, best_theta, best_val)

    return Estimate(_clamp(best_theta, iv), best_val, "mle")


def _local_candidates(ev, sample, events, breaks, center, center_val, width):
    """Candidates of one local pass and their grid step, or None if the window is empty.

    129 points over center +- width clipped to Theta, the (jump, kink) ``breaks``
    inside, and the incumbent (center, center_val).
    """
    iv = ev.model.theta_interval
    lo = max(iv.alpha, center - width)
    hi = min(iv.beta, center + width)
    if hi <= lo:
        return None
    fine = np.linspace(lo, hi, 129)
    jb, kb = (b[(b > lo) & (b < hi)] for b in breaks)
    th, sd, vals = _eval_candidates(ev, sample, events, fine, jb, kb)
    return np.append(th, center), np.append(sd, 0), np.append(vals, center_val), fine[1] - fine[0]


def _golden_refine(ev, sample, events, model, thetas, sides, values, best_theta, best_val):
    """Golden-section inside the bracketing cell, never across a declared kink."""
    plain = sides == 0
    grid = np.unique(thetas[plain])
    i = int(np.searchsorted(grid, best_theta))
    i = min(max(i, 0), grid.size - 1)
    if not math.isclose(grid[i], best_theta, rel_tol=0, abs_tol=1e-15):
        return best_theta, best_val
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    kinks = [k for k in model.theta_kinks() if lo < k < hi]
    segments = []
    edges = [lo, *sorted(kinks), hi]
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            segments.append((a, b))

    def f(th):
        return ev.value(th, sample, events)

    iv = model.theta_interval
    best = (best_theta, best_val)
    for a, b in segments:
        x, v = golden_section_max(f, a, b, tol=1e-8)
        if model.is_theta_smooth:
            x = _score_bisect(f, x, iv.alpha, iv.beta)
            x = min(max(x, a), b)
            v = f(x)
        if v > best[1]:
            best = (x, v)
    return best


def _score_bisect(f, x, lo, hi, iters=64):
    """Bisection on the central-difference score around a golden-section point.

    Value comparisons alone localize a smooth argmax only to about
    sqrt(eps * |logL| / curvature); the differenced score pushes that to
    ~1e-10, which the closed-form estimator oracles require.
    """
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


def _zoom_refine(ev, sample, events, breaks, theta, val, width, rounds):
    """Iterated grid refinement for continuous non-smooth likelihoods."""
    for _ in range(rounds):
        found = _local_candidates(ev, sample, events, breaks, theta, val, width)
        if found is None:
            break
        *candidates, step = found
        theta, _, val = _candidate_argmax(*candidates)
        width = 4.0 * step
    return theta, val


def _prior_weights(settings, nodes):
    """Prior density at nodes, normalized by its maximum over all of them.

    Max-normalization makes rescaling the density by a power of two a bitwise
    no-op, which is what the rescale-invariance contract tests.
    """
    if isinstance(settings.prior, str):
        return np.ones(nodes.shape)
    grid, dens = settings.prior
    p = np.interp(nodes, grid, dens)
    if np.any(p <= 0):
        raise ConfigurationError("prior density must be positive on Theta")
    return p / np.max(p)


def bayes(model: IntensityModel, sample: Sample, settings: EstimatorSettings | None = None,
          window=None) -> Estimate:
    """Posterior-mean estimate under the quadratic loss.

    Composite Simpson over Theta, split at declared kinks and at the
    sample-dependent jump and kink breakpoints; the nodes of all segments are
    evaluated as one array (one-sided values at jumps take one call per side).
    Log-likelihood values are max-subtracted before exponentiation.
    """
    if sample.n < 1:
        raise PreconditionError("sample must contain at least one trajectory")
    settings = settings or DEFAULT_SETTINGS
    iv = model.theta_interval
    if iv.width < _DEGENERATE_WIDTH:
        return Estimate(iv.midpoint, float("nan"), "bayes")

    ev = LikelihoodEvaluator(model, window)
    events = ev.prepare_events(sample)
    jump_breaks, kink_breaks = split_breaks(model, events, iv.alpha, iv.beta)
    cuts = np.unique(np.concatenate([
        jump_breaks, kink_breaks,
        np.array([k for k in model.theta_kinks() if iv.alpha < k < iv.beta]),
    ]))
    edges = np.concatenate([[iv.alpha], cuts, [iv.beta]])
    shares = np.maximum(4, (settings.bayes_panels * np.diff(edges) / iv.width).astype(int))
    shares += shares % 2
    # one node array: segment k holds nodes[starts[k]:ends[k]], cut nodes appear twice
    segments = list(zip(edges[:-1], edges[1:], shares))
    nodes = np.concatenate([np.linspace(a, b, p + 1) for a, b, p in segments])
    coeff = np.concatenate([_simpson_weights(p) / 3.0 * ((b - a) / p) for a, b, p in segments])
    ends = np.cumsum(shares + 1)
    starts = ends - (shares + 1)

    vals = ev.values(nodes, sample, events)
    if jump_breaks.size:
        # a segment starts right of a jump and ends left of one
        first = starts[np.isin(edges[:-1], jump_breaks)]
        last = ends[np.isin(edges[1:], jump_breaks)] - 1
        vals[first] = ev.values(nodes[first], sample, events, theta_side=+1)
        vals[last] = ev.values(nodes[last], sample, events, theta_side=-1)
    max_ll = float(np.max(vals, where=np.isfinite(vals), initial=-np.inf))
    if not np.isfinite(max_ll):
        raise EstimationError("log-likelihood is -inf over the whole parameter grid")

    w = np.exp(vals - max_ll) * _prior_weights(settings, nodes)
    mass, moment = w * coeff, w * nodes * coeff
    # summed per segment, in segment order: np.add.reduceat rounds differently
    num = den = 0.0
    for lo, hi in zip(starts, ends):
        den += float(np.sum(mass[lo:hi]))
        num += float(np.sum(moment[lo:hi]))

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


def two_stage(model: IntensityModel, sample: Sample, settings: EstimatorSettings | None = None,
              stage: str = "sufficient-window", mu_star: float | None = None,
              final: str = "mle") -> Estimate:
    """Split-sample estimation: preliminary value picks the window, rest re-estimates.

    ``stage`` is "optimal-window" (level-set window of measure mu_star) or
    "sufficient-window" (shrinking interval of halfwidth n^{-1/8} around the
    preliminary value).  The first floor(sqrt(n)) trajectories feed the
    preliminary estimator and are excluded afterwards, preserving independence.
    """
    from .windows import optimal_window, sufficient_window

    settings = settings or DEFAULT_SETTINGS
    n = sample.n
    if n < 9:
        raise PreconditionError(f"two-stage estimation needs n >= 9, got {n}")
    n1 = math.isqrt(n)
    first, rest = sample[:n1], sample[n1:]

    if isinstance(model, SuffWinLinearModel):
        prelim = moments_preliminary(model, first)
    else:
        prelim = mle(model, first, settings)

    if stage == "optimal-window":
        if mu_star is None:
            raise ConfigurationError("optimal-window two-stage estimation needs mu_star")
        win = optimal_window(model, prelim.value, mu_star)
    elif stage == "sufficient-window":
        win = sufficient_window(prelim, n, model.horizon)
    else:
        raise DomainError(f"unknown two-stage variant {stage!r}")

    if final == "mle":
        est = mle(model, rest, settings, window=win)
    elif final == "bayes":
        est = bayes(model, rest, settings, window=win)
    else:
        raise DomainError(f"unknown final estimator {final!r}")
    return Estimate(est.value, est.objective_at_value, "two-stage")
