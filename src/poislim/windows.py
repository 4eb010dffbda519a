"""Observation-window selection.

Optimal windows are level sets of the Fisher integrand d_theta(lambda)^2 /
lambda at a prescribed measure; sufficient windows are shrinking intervals
around a preliminary estimate (or around a known jump image).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import fisher_integrand
from .errors import DomainError, EstimationError, SingularityError
from .intensity import IntensityModel, ParameterInterval

__all__ = [
    "Window",
    "level_threshold",
    "optimal_window",
    "sufficient_window",
    "jump_sufficient_window",
]

_LEVEL_GRID = 100_001


@dataclass(frozen=True)
class Window:
    """Disjoint sorted union of closed intervals; measure is their total length."""

    intervals: tuple
    measure: float = None  # filled in __post_init__

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if hi < lo:
                raise DomainError(f"window interval reversed: [{lo}, {hi}]")
        for (_, hi1), (lo2, _) in zip(ivs[:-1], ivs[1:]):
            if lo2 < hi1:
                raise DomainError("window intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "measure", float(sum(hi - lo for lo, hi in ivs)))

    def to_json_obj(self):
        return [[lo, hi] for lo, hi in self.intervals]

    @staticmethod
    def from_json_obj(obj) -> "Window":
        return Window(intervals=tuple((float(a), float(b)) for a, b in obj))


def _level_intervals(tgrid, gvals, r):
    """{t: g(t) >= r} as intervals, crossings linearly interpolated on the grid."""
    mask = gvals >= r
    if not mask.any():
        return []
    idx = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts, ends = [], []
    if mask[0]:
        starts.append(tgrid[0])
    for i in idx:
        g0, g1 = gvals[i], gvals[i + 1]
        t0, t1 = tgrid[i], tgrid[i + 1]
        frac = 0.5 if g1 == g0 else (r - g0) / (g1 - g0)
        cross = t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0)
        if mask[i + 1]:
            starts.append(cross)
        else:
            ends.append(cross)
    if mask[-1]:
        ends.append(tgrid[-1])
    return list(zip(starts, ends))


def _level_measure(tgrid, gvals, r):
    return sum(hi - lo for lo, hi in _level_intervals(tgrid, gvals, r))


def level_threshold(model: IntensityModel, theta: float, mu_star: float) -> float:
    """Threshold r* whose super-level set of the Fisher integrand has measure mu_star."""
    tau = model.horizon
    if not (0.0 < mu_star < tau):
        raise DomainError(f"mu_star must lie in (0, {tau}), got {mu_star}")
    if model.smoothness_order < 1:
        raise DomainError(f"{model.catalog_id} has no first theta-derivative")
    g = fisher_integrand(model, theta)
    tgrid = np.linspace(0.0, tau, _LEVEL_GRID)
    gvals = np.asarray(g(tgrid), dtype=float)
    gmax = float(np.max(gvals))
    if gmax <= 0.0:
        raise SingularityError("Fisher integrand vanishes identically; no level set exists")
    lo_r, hi_r = 0.0, gmax
    for _ in range(200):
        mid = 0.5 * (lo_r + hi_r)
        m = _level_measure(tgrid, gvals, mid)
        if abs(m - mu_star) <= 1e-7:
            return mid
        if m > mu_star:
            lo_r = mid
        else:
            hi_r = mid
        if hi_r - lo_r <= 1e-15 * max(gmax, 1.0):
            break
    return 0.5 * (lo_r + hi_r)


def _refine_boundary(g, r, t0, t1, inside_right):
    """Bisection of g(t)-r on [t0, t1] to 1e-9 (crossing bracketed by the grid)."""
    f0 = float(g(np.array([t0]))[0]) - r
    f1 = float(g(np.array([t1]))[0]) - r
    if f0 == 0.0:
        return t0
    if f1 == 0.0:
        return t1
    if f0 * f1 > 0:
        return t0 if inside_right else t1
    lo, hi = t0, t1
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = float(g(np.array([mid]))[0]) - r
        if fm == 0.0:
            return mid
        if f0 * fm < 0:
            hi = mid
        else:
            lo, f0 = mid, fm
        if hi - lo <= 1e-9:
            break
    return 0.5 * (lo + hi)


def optimal_window(model: IntensityModel, theta: float, mu_star: float) -> Window:
    """Level set of the Fisher integrand at the mu_star-measure threshold.

    Boundaries are grid-bracketed then bisected on the integrand; plateau
    ties keep the leftmost portion (excess trimmed off the right).
    """
    theta = float(theta)
    r = level_threshold(model, theta, mu_star)
    g = fisher_integrand(model, theta)
    tau = model.horizon
    tgrid = np.linspace(0.0, tau, _LEVEL_GRID)
    gvals = np.asarray(g(tgrid), dtype=float)
    raw = _level_intervals(tgrid, gvals, r)
    step = tgrid[1] - tgrid[0]
    refined = []
    for lo, hi in raw:
        if lo > 0.0:
            lo = _refine_boundary(g, r, max(lo - step, 0.0), min(lo + step, tau), inside_right=True)
        if hi < tau:
            hi = _refine_boundary(g, r, max(hi - step, 0.0), min(hi + step, tau), inside_right=False)
        if hi > lo:
            refined.append((lo, hi))
    # plateau tie-break: drop excess measure from the right end
    total = sum(hi - lo for lo, hi in refined)
    excess = total - mu_star
    if excess > 1e-7:
        trimmed = []
        for lo, hi in reversed(refined):
            cut = min(excess, hi - lo)
            excess -= cut
            if hi - cut > lo:
                trimmed.append((lo, hi - cut))
        refined = sorted(trimmed)
    return Window(intervals=tuple(refined))


def _estimate_value(preliminary) -> float:
    return float(getattr(preliminary, "value", preliminary))


def sufficient_window(preliminary, n: int, horizon: float) -> Window:
    """[prelim - n^{-1/8}, prelim + n^{-1/8}] intersected with [0, horizon]."""
    if n < 2:
        raise DomainError(f"sufficient window needs n >= 2, got {n}")
    center = _estimate_value(preliminary)
    delta = float(n) ** (-1.0 / 8.0)
    lo = max(center - delta, 0.0)
    hi = min(center + delta, float(horizon))
    if hi <= lo:
        raise EstimationError(
            f"sufficient window around {center:.6g} misses [0, {horizon}] entirely"
        )
    return Window(intervals=((lo, hi),))


def jump_sufficient_window(theta_interval, jump_location: float, horizon: float) -> Window:
    """[alpha + s*, beta + s*]: all observations a shifted-jump family can move through.

    Uses the lambda(t - theta) parametrization; families shifting the other
    way pass the negated interval.
    """
    if isinstance(theta_interval, ParameterInterval):
        alpha, beta = theta_interval.alpha, theta_interval.beta
    else:
        alpha, beta = float(theta_interval[0]), float(theta_interval[1])
    if not alpha < beta:
        raise DomainError("theta interval must satisfy alpha < beta")
    lo, hi = alpha + jump_location, beta + jump_location
    if lo < 0.0 or hi > horizon:
        raise DomainError(
            f"jump window [{lo:.6g}, {hi:.6g}] falls outside [0, {horizon}]"
        )
    return Window(intervals=((lo, hi),))
