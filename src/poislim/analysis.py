"""Deterministic functionals of intensity families.

Quadrature is composite Simpson split at declared breakpoints so a panel
never straddles a discontinuity; everything here is pure and reentrant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateCurvatureError,
    DomainError,
    PreconditionError,
    SingularityError,
)
from .intensity import IntensityModel, TrueIntensity

__all__ = [
    "MisspecAsymptotics",
    "NonIdentCovariance",
    "integrate",
    "fisher_information",
    "higher_order_information",
    "hellinger_sq",
    "kl_objective",
    "kl_objective_grid",
    "theta_star",
    "misspec_asymptotics",
    "consistency_region",
    "nonident_covariance",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# panel budget of one ``integrate`` call: 4096, or 64 per unit length on
# intervals longer than 64, so long records keep their resolution per period
_MIN_PANELS = 4096
_PANELS_PER_UNIT = 64


def _simpson_weights(panels):
    """Unscaled Simpson pattern 1, 4, 2, ..., 4, 1 of an even panel count, or the
    patterns of an array of counts end to end; callers scale by h/3 their own way."""
    counts = np.atleast_1d(panels)
    ends = np.cumsum(counts + 1)
    starts = ends - (counts + 1)
    i = np.arange(ends[-1]) - np.repeat(starts, counts + 1)
    w = 2.0 + 2.0 * (i & 1)
    w[starts] = w[ends - 1] = 1.0
    return w


def _panel_counts(edges, budget, minimum):
    """Even panel count of each segment between sorted ``edges``: its length's
    share of ``budget``, floored, at least ``minimum`` (even), rounded up to even."""
    shares = np.maximum(minimum, (budget * np.diff(edges) / (edges[-1] - edges[0])).astype(int))
    shares += shares % 2
    return shares


def _simpson_layout(lo, hi, panels):
    """Composite-Simpson nodes and weights of the segments [lo[k], hi[k]], end to end.

    Segment k holds nodes[starts[k]:starts[k] + panels[k] + 1], i * step + lo[k]
    for i = 0..panels[k] with the last node hi[k], as np.linspace makes them, so a
    cut node is the last node of one segment and the first of the next.  coeff
    holds the Simpson weights times step / 3.
    """
    counts = panels + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    step = np.repeat((hi - lo) / panels, counts)
    nodes = (np.arange(ends[-1]) - np.repeat(starts, counts)) * step
    nodes += np.repeat(lo, counts)
    nodes[ends - 1] = hi
    return nodes, _simpson_weights(panels) / 3.0 * step, starts


def segment_sums(arrays, starts, lengths):
    """np.sum(x[s:s + n]) of each 1-D array x over each segment (s, n), as the row
    sums of one (segments, n) gather per length n: a row sum along the contiguous
    axis rounds as np.sum of that row."""
    out = np.empty((len(arrays), starts.size))
    for n in np.unique(lengths):
        k = np.flatnonzero(lengths == n)
        idx = starts[k, None] + np.arange(n)
        for row, x in zip(out, arrays):
            row[k] = x[idx].sum(axis=1)
    return out


_EDGE_NUDGE = 1e-12


def _nudge_ends(nodes, starts, panels, lo, hi):
    """Shift the end nodes of the laid-out segments [lo, hi] inward, in place.

    Segments are split exactly at declared discontinuities; evaluating the
    endpoints a hair inside keeps every node on this segment's branch.  A few
    ulps floor the shift, which short segments would otherwise round away.
    """
    floor = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    nudge = np.minimum(np.maximum(_EDGE_NUDGE * (hi - lo), floor), 0.25 * (hi - lo))
    nodes[starts] += nudge
    nodes[starts + panels] -= nudge


def integrate(fn, a: float, b: float, breakpoints=()) -> float:
    """Integral of ``fn`` over [a, b], split at interior breakpoints.

    ``fn`` is called once, on the nodes of every segment.
    """
    a, b = float(a), float(b)
    if b < a:
        raise DomainError(f"integration bounds reversed: [{a}, {b}]")
    if b == a:
        return 0.0
    edges = np.array([a, *sorted({float(c) for c in breakpoints if a < c < b}), b])
    budget = max(_MIN_PANELS, _PANELS_PER_UNIT * math.ceil(b - a))
    lo, hi = edges[:-1], edges[1:]
    panels = _panel_counts(edges, budget, 16)
    nodes, coeff, starts = _simpson_layout(lo, hi, panels)
    _nudge_ends(nodes, starts, panels, lo, hi)
    return float(np.sum(np.asarray(fn(nodes), dtype=float) * coeff))


def _window_intervals(window, horizon: float):
    """Normalize a window argument to a list of (lo, hi) within [0, horizon]."""
    if window is None:
        return [(0.0, horizon)]
    intervals = getattr(window, "intervals", window)
    out = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        if hi < lo or lo < -1e-12 or hi > horizon + 1e-12:
            raise DomainError(f"window interval [{lo}, {hi}] outside [0, {horizon}]")
        if hi > lo:
            out.append((max(lo, 0.0), min(hi, horizon)))
    return out


def integrate_window(fn, window, horizon, breakpoints=()) -> float:
    return sum(
        integrate(fn, lo, hi, breakpoints=breakpoints)
        for lo, hi in _window_intervals(window, horizon)
    )


def lookahead_tree(root, split, levels):
    """The nodes a search reaches from ``root`` in ``levels`` steps, breadth
    first, and kids[i], the indices of node i's two children (None where
    ``split`` gives None, the search having stopped).  ``split(node)`` gives the
    children after each outcome of node i's comparison; the nodes of the last
    level have no kids entry."""
    nodes, kids, start = [root], [], 0
    for _ in range(levels - 1):
        end = len(nodes)
        for node in nodes[start:end]:
            first, second = split(node)
            i = len(nodes)
            if first is not None:
                nodes.append(first)
            if second is not None:
                nodes.append(second)
            kids.append((None if first is None else i, None if second is None else len(nodes) - 1))
        start = end
    return nodes, kids


def _golden_step(a, b, c, d, left):
    """One golden-section step from the bracket [a, b] with inner points c < d:
    keep [a, d] (``left``) or [c, b].  Returns the new (a, b, c, d, left, point),
    ``point`` the one new inner point whose value the next comparison needs."""
    if left:
        b, d = d, c
        c = b - _INV_PHI * (b - a)
        return a, b, c, d, left, c
    a, c = c, d
    d = a + _INV_PHI * (b - a)
    return a, b, c, d, left, d


def golden_search(values, a: float, b: float, tol: float, max_iter: int = 200,
                  depth: int = 1) -> float:
    """Golden-section minimizer of a unimodal function on [a, b]: the midpoint of
    the last bracket, after at most ``max_iter`` steps or once it is ``tol`` wide.

    ``values`` maps an array of points to their values.  The first call takes
    the two inner points; each later call takes every point that the next
    ``depth`` steps can reach, 2^depth - 1 of them (fewer where the search
    stops), and the steps then walk that tree.  Points, comparisons and ties
    (toward the left) are those of the one-point-at-a-time search, so where a
    point's value does not depend on the other points of its call the result
    does not depend on ``depth``.
    """
    a, b = float(a), float(b)
    if b <= a:
        return a
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = values(np.array([c, d])).tolist()

    def split(s):
        if s[1] - s[0] <= tol:
            return None, None
        return _golden_step(*s[:4], True), _golden_step(*s[:4], False)

    steps = 0
    while steps < max_iter and b - a > tol:
        # the first step's branch is known; the tree holds its new point and
        # those of the steps after it
        states, kids = lookahead_tree(_golden_step(a, b, c, d, fc <= fd), split,
                                      min(depth, max_iter - steps))
        vals = values(np.array([s[5] for s in states])).tolist()
        i = 0
        while True:
            a, b, c, d, left, _ = states[i]
            if left:
                fc, fd = vals[i], fc
            else:
                fc, fd = fd, vals[i]
            steps += 1
            if i >= len(kids) or kids[i][0] is None:
                break
            i = kids[i][0 if fc <= fd else 1]
    return 0.5 * (a + b)


def _pointwise(fn):
    """``values`` of a scalar function, called on one point after another."""
    return lambda points: np.array([float(fn(x)) for x in points])


# ---------------------------------------------------------------------------
# information-type integrals
# ---------------------------------------------------------------------------


def _guard_positive(vals, what: str):
    vals = np.asarray(vals, dtype=float)
    if np.any(vals <= 0.0):
        raise SingularityError(f"{what} vanishes on the integration window")
    return vals


def fisher_integrand(model: IntensityModel, theta: float, side=None):
    """t -> (d_theta lambda)^2 / lambda at theta; SingularityError where lambda vanishes."""
    theta = float(theta)

    def integrand(t):
        lam = _guard_positive(model.value(theta, t), "intensity")
        dot = model.dtheta(theta, t, 1, side=side)
        return dot * dot / lam

    return integrand


def fisher_information(model: IntensityModel, theta: float, window=None, side=None) -> float:
    """integral of (d_theta lambda)^2 / lambda over the window (default [0, tau])."""
    return integrate_window(fisher_integrand(model, theta, side), window, model.horizon,
                            breakpoints=model.t_breakpoints(float(theta)))


def higher_order_information(model: IntensityModel, theta: float, order: int = 3) -> float:
    """integral of (third theta-derivative)^2 / ((3!)^2 lambda) over [0, tau]."""
    if order != 3:
        raise DomainError(f"only order=3 is defined, got {order}")
    theta = float(theta)

    def integrand(t):
        lam = _guard_positive(model.value(theta, t), "intensity")
        d3 = model.dtheta(theta, t, 3)
        return d3 * d3 / (36.0 * lam)

    return integrate_window(integrand, None, model.horizon,
                            breakpoints=model.t_breakpoints(theta))


def hellinger_sq(model: IntensityModel, theta1: float, theta2: float) -> float:
    """integral of (sqrt(lambda(theta2,.)) - sqrt(lambda(theta1,.)))^2 over [0, tau]."""
    theta1, theta2 = float(theta1), float(theta2)
    iv = model.theta_interval
    for th in (theta1, theta2):
        if not iv.contains(th):
            raise DomainError(f"theta={th} outside [{iv.alpha}, {iv.beta}]")

    def integrand(t):
        d = np.sqrt(model.value(theta2, t)) - np.sqrt(model.value(theta1, t))
        return d * d

    breaks = set(model.t_breakpoints(theta1)) | set(model.t_breakpoints(theta2))
    return integrate(integrand, 0.0, model.horizon, breakpoints=breaks)


def _kl_integrand(lam_model, lam_true):
    """lambda_theta - lambda* - lambda* ln(lambda_theta/lambda*), elementwise.

    Continuous extension at lambda*=0 is lambda_theta; lambda_theta=0 with
    lambda*>0 is a genuine singularity (callers decide raise vs +inf).
    """
    lam_model = np.asarray(lam_model, dtype=float)
    lam_true = np.asarray(lam_true, dtype=float)
    out = np.where(lam_true > 0.0, lam_model - lam_true, lam_model)
    pos = (lam_true > 0.0)
    bad = pos & (lam_model <= 0.0)
    safe_model = np.where(pos & ~bad, lam_model, 1.0)
    safe_true = np.where(pos, lam_true, 1.0)
    out = out - np.where(pos & ~bad, lam_true * np.log(safe_model / safe_true), 0.0)
    return np.where(bad, np.inf, out)


def kl_objective(true_intensity: TrueIntensity, model: IntensityModel, theta: float) -> float:
    """Kullback-Leibler-type objective whose argmin is the pseudo-true value."""
    theta = float(theta)
    iv = model.theta_interval
    if not iv.contains(theta):
        raise DomainError(f"theta={theta} outside [{iv.alpha}, {iv.beta}]")

    def integrand(t):
        vals = _kl_integrand(model.value(theta, t), true_intensity.value(t))
        if np.any(np.isinf(vals)):
            raise SingularityError("model intensity vanishes where the true intensity is positive")
        return vals

    breaks = set(model.t_breakpoints(theta)) | set(true_intensity.breakpoints)
    return integrate(integrand, 0.0, model.horizon, breakpoints=breaks)


# every segment of every theta gets 16 panels; a block holds the segments of
# as many whole thetas as fit in _KL_BLOCK_NODES nodes, or of one theta
_KL_GRID_PANELS = 16
_KL_BLOCK_NODES = 1 << 15


def _kl_blocks(model: IntensityModel, thetas: np.ndarray, n_shared: int):
    """(first index, t-breakpoint tuples) of consecutive theta blocks, each
    block's breakpoints built only when the block before it is done."""
    budget = _KL_BLOCK_NODES // (_KL_GRID_PANELS + 1)
    first, moving, segments = 0, [], 0
    for i, th in enumerate(thetas):
        breaks = model.t_breakpoints(th)
        own = len(breaks) + n_shared - 1
        if moving and segments + own > budget:
            yield first, moving
            first, moving, segments = i, [], 0
        moving.append(breaks)
        segments += own
    if moving:
        yield first, moving


def kl_objective_grid(true_intensity: TrueIntensity, model: IntensityModel,
                      thetas: np.ndarray) -> np.ndarray:
    """Vectorized KL objective over a theta grid (+inf where singular).

    Each theta's integral splits at its own t-breakpoints and at the true
    intensity's fixed ones, so thetas own varying numbers of segments; the
    segments of a block of thetas are laid out end to end.  Each theta's value
    is the same whichever block it falls in.
    """
    thetas = np.asarray(thetas, dtype=float)
    tau = model.horizon
    shared = np.array([0.0, *(b for b in true_intensity.breakpoints if 0.0 < b < tau), tau])
    p = _KL_GRID_PANELS
    out = np.empty(thetas.shape)
    for t0, moving in _kl_blocks(model, thetas, shared.size):
        block = slice(t0, t0 + len(moving))
        # theta i owns the edges shared and moving[i], sorted, and the segments between
        counts = np.fromiter(map(len, moving), int, len(moving))
        index = np.arange(counts.size)
        owner = np.concatenate([np.repeat(index, shared.size), np.repeat(index, counts)])
        edges = np.concatenate([np.tile(shared, counts.size), np.fromiter(
            itertools.chain.from_iterable(moving), float, counts.sum())])
        order = np.lexsort((edges, owner))
        edges, owner = edges[order], owner[order]
        inner = owner[1:] == owner[:-1]
        lo, hi = edges[:-1][inner], edges[1:][inner]
        panels = np.full(lo.size, p)
        nodes, coeff, starts = _simpson_layout(lo, hi, panels)
        _nudge_ends(nodes, starts, panels, lo, hi)
        th = np.repeat(thetas[block][owner[1:][inner]], p + 1)
        vals = _kl_integrand(model.value(th, nodes), true_intensity.value(nodes))
        n_seg = counts + shared.size - 1
        with np.errstate(invalid="ignore"):
            seg_sums = segment_sums((vals * coeff,), starts, panels + 1)[0]
            out[block] = segment_sums((seg_sums,), np.cumsum(n_seg) - n_seg, n_seg)[0]
    out[np.isnan(out)] = np.inf
    return out


def theta_star(true_intensity: TrueIntensity, model: IntensityModel,
               grid_size: int | None = None) -> float:
    """Pseudo-true value: grid argmin of the KL objective, refined when smooth.

    Smooth families use a 2001-point grid plus golden-section on the
    bracketing cell; theta-discontinuous families use a pure 20001-point grid.
    Ties break toward the smaller theta.
    """
    smooth = model.is_theta_smooth
    if grid_size is None:
        grid_size = 2001 if smooth else 20001
    iv = model.theta_interval
    grid = iv.grid(grid_size)
    vals = kl_objective_grid(true_intensity, model, grid)
    if not np.any(np.isfinite(vals)):
        raise SingularityError("KL objective is infinite over the whole parameter grid")
    i = int(np.nanargmin(np.where(np.isfinite(vals), vals, np.inf)))
    if not smooth:
        return float(grid[i])
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid_size - 1)]
    return golden_search(_pointwise(lambda th: kl_objective(true_intensity, model, th)),
                         lo, hi, tol=1e-11)


# ---------------------------------------------------------------------------
# misspecification asymptotics and non-identifiability covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MisspecAsymptotics:
    """Pseudo-true value and sandwich variance for a misspecified family."""

    theta_star: float
    d_star_sq: float
    i_star: float
    d_big_sq: float

    def __post_init__(self):
        if self.d_star_sq < 0 or self.d_big_sq < 0:
            raise ConfigurationError("variance components must be nonnegative")


def misspec_asymptotics(true_intensity: TrueIntensity, model: IntensityModel) -> MisspecAsymptotics:
    """Sandwich asymptotics at the pseudo-true value.

    d*^2 integrates score^2 * lambda*/lambda^2; I* adds the curvature
    correction; the limiting variance of sqrt(n)(estimate - theta*) is
    d*^2 / I*^2.
    """
    if model.smoothness_order < 2:
        raise PreconditionError(f"{model.catalog_id} lacks second theta-derivatives")
    ts = theta_star(true_intensity, model)
    iv = model.theta_interval
    margin = 2.0 * iv.width / 20001
    if not (iv.alpha + margin < ts < iv.beta - margin):
        raise PreconditionError(f"theta_star={ts:.6g} is not interior to Theta")

    breaks = set(model.t_breakpoints(ts)) | set(true_intensity.breakpoints)

    def d_integrand(t):
        lam = _guard_positive(model.value(ts, t), "intensity at theta_star")
        dot = model.dtheta(ts, t, 1)
        return dot * dot * true_intensity.value(t) / lam ** 2

    def curv_integrand(t):
        lam = _guard_positive(model.value(ts, t), "intensity at theta_star")
        ddot = model.dtheta(ts, t, 2)
        return ddot * (1.0 - true_intensity.value(t) / lam)

    d_sq = integrate(d_integrand, 0.0, model.horizon, breakpoints=breaks)
    i_star = d_sq + integrate(curv_integrand, 0.0, model.horizon, breakpoints=breaks)
    if i_star <= 1e-9:
        # zero up to the numerical resolution of theta_star; a null-information
        # point would otherwise masquerade as an astronomically large variance
        raise DegenerateCurvatureError(f"I* = {i_star:.6g} <= 0 at theta_star={ts:.6g}")
    return MisspecAsymptotics(theta_star=ts, d_star_sq=d_sq, i_star=i_star,
                              d_big_sq=d_sq / i_star ** 2)


def consistency_region(x: float) -> tuple[float, float]:
    """Closed-form contamination bounds (h1_max, h2_min) at intensity ratio x."""
    x = float(x)
    if x <= 1.0:
        raise DomainError(f"consistency region needs x > 1, got {x}")
    ratio = (x - 1.0) / math.log(x)
    return ratio - 1.0, ratio - x


@dataclass(frozen=True)
class NonIdentCovariance:
    """Roots sharing one intensity, their informations, and the score correlation."""

    roots: tuple
    informations: tuple
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (len(self.roots), len(self.roots)):
            raise ConfigurationError("correlation matrix shape mismatch")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ConfigurationError("correlation matrix must be symmetric")
        if np.any(np.abs(np.diag(rho) - 1.0) > 0):
            raise ConfigurationError("correlation matrix diagonal must be exactly 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise ConfigurationError("correlation matrix is not positive semidefinite")


def nonident_covariance(model: IntensityModel, roots) -> NonIdentCovariance:
    """Score-correlation matrix across coinciding-intensity roots."""
    roots = [float(r) for r in roots]
    if not roots:
        raise DomainError("need at least one root")
    tt = np.linspace(0.0, model.horizon, 2001)
    ref = model.value(roots[0], tt)
    scale = max(1.0, float(np.max(np.abs(ref))))
    for r in roots[1:]:
        if np.max(np.abs(model.value(r, tt) - ref)) > 1e-9 * scale:
            raise PreconditionError(
                f"intensities at roots {roots[0]} and {r} do not coincide"
            )
    infos = [fisher_information(model, r) for r in roots]
    for r, info in zip(roots, infos):
        if info <= 0.0:
            raise SingularityError(f"zero Fisher information at root {r}")

    k = len(roots)
    rho = np.eye(k)
    for l in range(k):
        for i in range(l + 1, k):
            def integrand(t, a=roots[l], b=roots[i]):
                lam = _guard_positive(model.value(b, t), "intensity")
                return model.dtheta(a, t, 1) * model.dtheta(b, t, 1) / lam

            breaks = set(model.t_breakpoints(roots[l])) | set(model.t_breakpoints(roots[i]))
            cross = integrate(integrand, 0.0, model.horizon, breakpoints=breaks)
            rho[l, i] = rho[i, l] = cross / math.sqrt(infos[l] * infos[i])
    return NonIdentCovariance(roots=tuple(roots), informations=tuple(infos), rho=rho)
