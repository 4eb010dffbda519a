"""Parametric intensity families for inhomogeneous Poisson processes.

Every family is a subclass of :class:`IntensityModel` addressable through the
string catalog (see :func:`make_model`).  A model is an immutable description:
all evaluation methods are pure, broadcast over numpy arrays, and safe to call
from any number of workers.

Side conventions: several families are discontinuous in theta at
sample-dependent points (the log-likelihood jumps when theta crosses an event
image).  ``theta_side`` selects the one-sided limit there: ``-1`` is
``lim_{theta' -> theta-}``, ``+1`` the limit from the right, ``0`` the plain
value.  Smooth families ignore the flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CapabilityError, ConfigurationError, DomainError

__all__ = [
    "ParameterInterval",
    "IntensityModel",
    "TrueIntensity",
    "CATALOG",
    "make_model",
    "evaluate",
    "cumulative",
    "theta_derivative",
]

_POSITIVITY_GRID = 50
# (theta, event) pairs per event_log_terms block; see its docstring
_BLOCK_PAIRS = 16_000
# unit roundoff of float64
_U = 2.0 ** -53


@dataclass(frozen=True)
class ParameterInterval:
    """Open interval of admissible parameter values."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha < self.beta):
            raise ConfigurationError(
                f"parameter interval requires alpha < beta, got ({self.alpha}, {self.beta})"
            )

    @property
    def width(self) -> float:
        return self.beta - self.alpha

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.alpha + self.beta)

    def contains(self, theta, closed: bool = True) -> bool:
        if closed:
            return self.alpha <= theta <= self.beta
        return self.alpha < theta < self.beta

    def grid(self, size: int) -> np.ndarray:
        return np.linspace(self.alpha, self.beta, size)


@dataclass(frozen=True)
class IntensityModel:
    """Base class: a parametric intensity family on [0, horizon].

    ``lambda_max`` is an analytic certified bound (never a runtime scan).
    Each family declares the class constants ``catalog_id`` and
    ``smoothness_order``, the highest theta-derivative order it exposes, and
    implements the hooks ``_lambda_bound``, ``_value`` and ``integral_hint``.
    ``theta_kinks`` lists the theta values where the family loses
    theta-smoothness; ``event_breakpoints_are_jumps`` says whether the
    log-likelihood jumps (not only kinks) at ``event_theta_breakpoints``;
    ``event_sums_are_closed_form`` says whether ``event_log_sums`` costs a few
    operations per theta (a sufficient statistic) rather than one per event;
    ``event_sum_rounding`` bounds the rounding of the event sums, which the
    segment caps of a family whose curve only kinks read, and so does the
    series of a nonzero ``event_term_slope``; ``event_term_slope`` is not
    None where every term is the log of an affine function of theta of one
    slope on each side of its one breakpoint (``event_branches``), so that
    one table of prefix sums gives every event sum.
    Construction runs a positivity/bound grid scan.
    """

    catalog_id: ClassVar[str]
    smoothness_order: ClassVar[int]
    theta_kinks: ClassVar[tuple] = ()
    event_breakpoints_are_jumps: ClassVar[bool] = True
    event_sums_are_closed_form: ClassVar[bool] = False

    theta_interval: ParameterInterval = ParameterInterval(0.0, 1.0)
    horizon: float = 1.0
    lambda_max: float = field(init=False, default=0.0)
    lambda_max_override: float | None = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        bound = self._lambda_bound()
        if self.lambda_max_override is not None:
            if self.lambda_max_override < bound:
                raise ConfigurationError(
                    f"lambda_max override {self.lambda_max_override} below analytic bound {bound}"
                )
            bound = float(self.lambda_max_override)
        object.__setattr__(self, "lambda_max", float(bound))
        self._positivity_scan()

    # ---- hooks each family implements -------------------------------------

    def _lambda_bound(self) -> float:
        raise NotImplementedError

    def _value(self, theta, t, theta_side=0):
        raise NotImplementedError

    def _dtheta(self, theta, t, order, side):
        raise CapabilityError(f"{self.catalog_id} exposes no theta-derivatives")

    def integral_hint(self, thetas, lo: float, hi: float):
        """Closed-form integral of lambda(theta, .) over [lo, hi], vectorized over ``thetas``."""
        raise NotImplementedError

    def event_sum_rounding(self, n_events):
        """Rounding bound R of the event sums on ``n_events`` events, or None.

        R bounds how far a computed ``event_log_sums`` entry at a theta inside
        a segment between consecutive ``event_theta_breakpoints`` lies from
        its exact value.  Two things read it: the segment caps of a family
        whose curve only kinks, which it returns R for only if every term log
        lambda(theta, t_i) is monotone in theta on each such segment (R then
        also bounds how far a segment's computed cap lies from its exact
        value, up to one constant on each segment), and the series of a
        nonzero ``event_term_slope``.  None, the default, states no bound.
        """
        return None

    def event_term_slope(self):
        """The slope s in theta of both branches of every event's intensity
        (``event_branches``), or None.

        A family declares s != 0 only where it states ``event_sum_rounding``
        R and a computed intensity lies within relative R/(2N) of exact on N
        events; s = 0 needs no R.  ``LikelihoodEvaluator`` then takes every
        event sum from one table of prefix sums over the events in breakpoint
        order, with a series in theta - a about each of its anchors a where
        s != 0.  None, the default, declares no slope.
        """
        return None

    def event_branches(self, theta, events):
        """(b, before, after) of a family that declares ``event_term_slope``:
        each event's theta-breakpoint b_i, computed as the side test of
        ``_value`` computes it, and its intensity at ``theta`` on the branch
        that holds for theta < b_i and on the one for theta > b_i, each
        extended past b_i.  Each is the float ``_value`` returns on its own
        side of b_i (and the same expression off it), so both carry the
        rounding of ``value``."""
        raise NotImplementedError

    # ---- shared surface ----------------------------------------------------

    def value(self, theta, t, theta_side=0):
        """Intensity at (theta, t); broadcasts over array arguments."""
        return self._value(np.asarray(theta, dtype=float), np.asarray(t, dtype=float), theta_side)

    def log_value(self, theta, t, theta_side=0):
        """log intensity; -inf where the intensity vanishes."""
        v = self.value(theta, t, theta_side)
        with np.errstate(divide="ignore"):
            return np.log(v)

    def event_log_terms(self, thetas, events, theta_side=0):
        """Yields (lo, terms): the (rows x events) array of log lambda(theta, t_i)
        for thetas[lo:lo + rows], block by block, in order.

        A block holds whole theta rows, at most ``_BLOCK_PAIRS`` (16,000)
        (theta, event) pairs, or one row when there are more events.  The
        bound is set by the allocator more than by the cache: a float64
        temporary of 16,000 pairs is 125 KiB, under glibc's default 128 KiB
        mmap threshold, so the block's temporaries are reused from the heap
        instead of being mapped, page-faulted, zeroed and unmapped again on
        every block (a 1M-pair block would fault in about 50 MB each time);
        they also fit in L2, provided that the caller drops each block before
        it takes the next.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        events = np.asarray(events, dtype=float)
        step = max(1, _BLOCK_PAIRS // max(events.size, 1))
        for lo in range(0, thetas.size, step):
            yield lo, self.log_value(thetas[lo:lo + step, None], events[None, :], theta_side)

    def event_log_sums(self, thetas, events, theta_side=0):
        """sum_i log lambda(theta, t_i) for each theta in ``thetas``.

        Each row of ``event_log_terms`` is summed whole, so the values do not
        depend on the block size.  Families with a closed-form sufficient
        statistic override this (same values up to rounding).
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        out = np.empty(thetas.shape)
        for lo, terms in self.event_log_terms(thetas, events, theta_side):
            out[lo:lo + len(terms)] = terms.sum(axis=1)
            del terms  # freed before the next block, so the heap reuses them
        return out

    def dtheta(self, theta, t, order, side=None):
        """Theta-derivative of the given order, broadcasting over t."""
        if not (1 <= order <= 3):
            raise DomainError(f"derivative order must be 1..3, got {order}")
        if order > self.smoothness_order:
            raise CapabilityError(
                f"{self.catalog_id} has smoothness_order {self.smoothness_order}, "
                f"order-{order} derivative unavailable"
            )
        return self._dtheta(float(theta), np.asarray(t, dtype=float), order, side)

    def t_breakpoints(self, theta) -> tuple:
        """Interior t-points where lambda(theta, .) is discontinuous or kinked."""
        return ()

    def event_theta_breakpoints(self, events) -> np.ndarray:
        """Theta values where sum_i log lambda(theta, t_i) jumps or kinks."""
        return np.empty(0)

    @property
    def is_theta_smooth(self) -> bool:
        return self.smoothness_order >= 1 and not self.theta_kinks

    # ---- construction-time validation ---------------------------------

    def _positivity_scan(self) -> None:
        iv = self.theta_interval
        th = np.linspace(iv.alpha, iv.beta, _POSITIVITY_GRID)
        tt = np.linspace(0.0, self.horizon, _POSITIVITY_GRID)
        vals = self.value(th[:, None], tt[None, :])
        if np.min(vals) < -1e-12:
            bad = np.unravel_index(np.argmin(vals), vals.shape)
            raise ConfigurationError(
                f"{self.catalog_id} is negative at theta={th[bad[0]]:.6g}, t={tt[bad[1]]:.6g}"
            )
        if np.max(vals) > self.lambda_max * (1 + 1e-9) + 1e-12:
            raise ConfigurationError(
                f"{self.catalog_id} exceeds its certified bound {self.lambda_max}"
            )


# ---------------------------------------------------------------------------
# catalog families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantModel(IntensityModel):
    """lambda(theta, t) = theta.  Closed-form MLE N/(n*tau); the estimator oracle."""

    catalog_id = "CONSTANT"
    smoothness_order = 3
    event_sums_are_closed_form = True

    theta_interval: ParameterInterval = ParameterInterval(0.1, 10.0)

    def _lambda_bound(self):
        return self.theta_interval.beta

    def _value(self, theta, t, theta_side=0):
        return np.broadcast_to(theta, np.broadcast_shapes(theta.shape, t.shape)).copy()

    def event_log_sums(self, thetas, events, theta_side=0):
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        n_events = np.asarray(events).size
        with np.errstate(divide="ignore"):
            return n_events * np.log(thetas)

    def _dtheta(self, theta, t, order, side):
        out = np.ones_like(t) if order == 1 else np.zeros_like(t)
        return out

    def integral_hint(self, thetas, lo, hi):
        return np.asarray(thetas, dtype=float) * (hi - lo)


@dataclass(frozen=True)
class RegularExpModel(IntensityModel):
    """lambda(theta, t) = exp(theta*t): the smooth baseline family."""

    catalog_id = "REGULAR_EXP"
    smoothness_order = 3
    event_sums_are_closed_form = True

    theta_interval: ParameterInterval = ParameterInterval(-1.0, 1.0)

    def _lambda_bound(self):
        return math.exp(max(self.theta_interval.beta, 0.0) * self.horizon)

    def _value(self, theta, t, theta_side=0):
        return np.exp(theta * t)

    def event_log_sums(self, thetas, events, theta_side=0):
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return thetas * float(np.sum(events))

    def _dtheta(self, theta, t, order, side):
        return t ** order * np.exp(theta * t)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        small = np.abs(th) < 1e-8
        safe = np.where(small, 1.0, th)
        exact = np.exp(th * lo) * np.expm1(th * (hi - lo)) / safe
        series = (hi - lo) * np.exp(th * lo) * (1.0 + th * (hi - lo) / 2.0)
        return np.where(small, series, exact)


@dataclass(frozen=True)
class NullFisherSineModel(IntensityModel):
    """lambda(theta, t) = theta*sin^2(theta*t) + 2.

    At theta=0 the first two theta-derivatives vanish identically; the first
    informative term is third order (6*t^2 at zero).
    """

    catalog_id = "NULLFI_SINE"
    smoothness_order = 3

    theta_interval: ParameterInterval = ParameterInterval(-1.0, 1.0)

    def _lambda_bound(self):
        return 2.0 + max(self.theta_interval.beta, 0.0)

    def _value(self, theta, t, theta_side=0):
        return theta * np.sin(theta * t) ** 2 + 2.0

    def _dtheta(self, theta, t, order, side):
        tt = theta * t
        if order == 1:
            return np.sin(tt) ** 2 + theta * t * np.sin(2.0 * tt)
        if order == 2:
            return 2.0 * t * np.sin(2.0 * tt) + 2.0 * theta * t ** 2 * np.cos(2.0 * tt)
        return 6.0 * t ** 2 * np.cos(2.0 * tt) - 4.0 * theta * t ** 3 * np.sin(2.0 * tt)

    def integral_hint(self, thetas, lo, hi):
        # integral of theta*sin^2(theta*t) + 2; series branch keeps full
        # precision through theta = 0
        th = np.asarray(thetas, dtype=float)
        length = hi - lo
        small = np.abs(th) < 1e-4
        safe = np.where(small, 1.0, th)
        sin_part = length / 2.0 - (np.sin(2.0 * safe * hi) - np.sin(2.0 * safe * lo)) / (4.0 * safe)
        series = th ** 2 * (hi ** 3 - lo ** 3) / 3.0 - th ** 4 * (hi ** 5 - lo ** 5) / 15.0
        return 2.0 * length + np.where(small, th * series, th * sin_part)


@dataclass(frozen=True)
class DiscFisherKinkModel(IntensityModel):
    """lambda(theta, t) = (theta-1)*[3t if theta<1 else 5t^2] + 15.

    Continuous in theta, but the score switches branches at theta=1, so the
    one-sided informations differ (1/5 from the left, 1/3 from the right).
    """

    catalog_id = "DISCFI_KINK"
    smoothness_order = 3
    theta_kinks = (1.0,)

    theta_interval: ParameterInterval = ParameterInterval(0.0, 2.0)

    def _lambda_bound(self):
        iv = self.theta_interval
        return 15.0 + 5.0 * max(iv.beta - 1.0, 0.0)

    def _value(self, theta, t, theta_side=0):
        s = np.where(theta < 1.0, 3.0 * t, 5.0 * t ** 2)
        return (theta - 1.0) * s + 15.0

    def _dtheta(self, theta, t, order, side):
        if theta == 1.0:
            if side not in ("left", "right"):
                raise DomainError(
                    "DISCFI_KINK needs side='left' or 'right' for derivatives at theta=1"
                )
            left = side == "left"
        else:
            left = theta < 1.0
        if order >= 2:
            return np.zeros_like(t)
        return 3.0 * t if left else 5.0 * t ** 2

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        low_branch = 1.5 * (hi ** 2 - lo ** 2)
        high_branch = 5.0 * (hi ** 3 - lo ** 3) / 3.0
        return (th - 1.0) * np.where(th < 1.0, low_branch, high_branch) + 15.0 * (hi - lo)


def _event_sum_rounding(n_events, log_max, cond):
    """``event_sum_rounding`` of N = ``n_events`` terms whose computed log
    lambda lies within 8u*(``log_max`` + ``cond``) of the exact one, where
    ``log_max`` bounds |log lambda| (u the unit roundoff): N times that, plus
    N^2*u*(``log_max`` + 1) for the summation of the N terms.
    """
    return (n_events * 8.0 * _U * (log_max + cond)
            + n_events ** 2 * _U * (log_max + 1.0))


def _abs_pow(x, kappa):
    # |x|**kappa with fast paths for the common exponents
    ax = np.abs(x)
    if kappa == 0.5:
        return np.sqrt(ax)
    if kappa == 0.25:
        return np.sqrt(np.sqrt(ax))
    return ax ** kappa


@dataclass(frozen=True)
class _BreakAtTheta(IntensityModel):
    """Families that break at t = theta: every event in Theta is a theta-breakpoint."""

    def t_breakpoints(self, theta):
        th = float(theta)
        return (th,) if 0.0 < th < self.horizon else ()

    def event_theta_breakpoints(self, events):
        iv = self.theta_interval
        ev = np.asarray(events, dtype=float)
        return ev[(ev > iv.alpha) & (ev < iv.beta)]


@dataclass(frozen=True)
class CuspModel(_BreakAtTheta):
    """lambda(theta, t) = a*|t-theta|^kappa + lam0 with kappa in (0, 1/2).

    Not theta-differentiable at t=theta; classic infinite-information family.
    """

    catalog_id = "CUSP"
    smoothness_order = 0
    # |t-theta|^kappa is continuous in theta; events only kink the curve.  Each
    # term is monotone between the events: it grows with theta for the events
    # left of a segment and falls for those right of it
    event_breakpoints_are_jumps = False

    a: float = 1.0
    lam0: float = 2.0
    kappa: float = 0.25
    theta_interval: ParameterInterval = ParameterInterval(0.2, 0.8)

    def __post_init__(self):
        if not (0.0 < self.kappa < 0.5):
            raise ConfigurationError(f"kappa must lie in (0, 1/2), got {self.kappa}")
        if self.a <= 0 or self.lam0 <= 0:
            raise ConfigurationError("cusp family needs a > 0 and lam0 > 0")
        super().__post_init__()

    def _lambda_bound(self):
        iv = self.theta_interval
        reach = max(iv.beta, self.horizon - iv.alpha)
        return self.a * reach ** self.kappa + self.lam0

    def _value(self, theta, t, theta_side=0):
        return self.a * _abs_pow(t - theta, self.kappa) + self.lam0

    @property
    def hurst(self) -> float:
        return self.kappa + 0.5

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        k1 = self.kappa + 1.0

        def anti(t):
            d = t - th
            return np.sign(d) * _abs_pow(d, self.kappa) * np.abs(d) / k1

        return self.lam0 * (hi - lo) + self.a * (anti(hi) - anti(lo))

    def event_sum_rounding(self, n_events):
        """lambda = a*|t - theta|^kappa + lam0 adds positive terms, so a computed
        intensity is within 5u of exact relative to it, and its log within
        8u*(Lambda + 1) (Lambda = max|log lambda| over [lam0, lambda_max])."""
        log_max = max(abs(math.log(self.lam0)), abs(math.log(self.lambda_max)))
        return _event_sum_rounding(n_events, log_max, 1.0)


@dataclass(frozen=True)
class JumpShiftModel(IntensityModel):
    """lambda(theta, t) = base(t + theta), base(y) = c0 + c1*y + r*1{y >= s_star}.

    The base profile is smooth except for one jump of size r at y = s_star;
    in observation time the jump sits at t = s_star - theta.
    """

    catalog_id = "JUMP_SHIFT"
    smoothness_order = 0

    c0: float = 2.0
    c1: float = 0.5
    r: float = 2.0
    s_star: float = 1.0
    theta_interval: ParameterInterval = ParameterInterval(0.25, 0.75)

    def __post_init__(self):
        iv = self.theta_interval
        if not (self.s_star - self.horizon <= iv.alpha and iv.beta <= self.s_star):
            raise ConfigurationError(
                "JUMP_SHIFT needs the jump inside the window: "
                f"Theta=({iv.alpha},{iv.beta}) not within ({self.s_star - self.horizon},{self.s_star})"
            )
        if self.r == 0:
            raise ConfigurationError("JUMP_SHIFT requires a nonzero jump size r")
        super().__post_init__()

    def _lambda_bound(self):
        ymax = self.horizon + self.theta_interval.beta
        base = self.c0 + max(self.c1 * ymax, self.c1 * self.theta_interval.alpha, 0.0)
        return base + max(self.r, 0.0)

    def _value(self, theta, t, theta_side=0):
        # the side test compares theta with the breakpoint s_star - t exactly as
        # event_theta_breakpoints computes it, so the values at a breakpoint on
        # sides -1 and +1 are the limits from inside its two segments
        cut = self.s_star - t
        above = theta > cut if theta_side < 0 else theta >= cut
        return self.c0 + self.c1 * (t + theta) + self.r * above

    def t_breakpoints(self, theta):
        tj = self.s_star - float(theta)
        return (tj,) if 0.0 < tj < self.horizon else ()

    def event_theta_breakpoints(self, events):
        iv = self.theta_interval
        br = self.s_star - np.asarray(events, dtype=float)
        return br[(br > iv.alpha) & (br < iv.beta)]

    def jump_values(self) -> tuple[float, float]:
        """Base-profile limits (lambda(s*-), lambda(s*+))."""
        smooth = self.c0 + self.c1 * self.s_star
        return smooth, smooth + self.r

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        smooth = self.c0 * (hi - lo) + self.c1 * (0.5 * (hi ** 2 - lo ** 2) + th * (hi - lo))
        cross = np.clip(self.s_star - th, lo, hi)
        return smooth + self.r * (hi - cross)

    @property
    def _lam_min(self):
        iv = self.theta_interval
        return min(self.c0 + self.c1 * iv.alpha,
                   self.c0 + self.c1 * (self.horizon + iv.beta)) + min(self.r, 0.0)

    def event_sum_rounding(self, n_events):
        """None where lam_min = min(c0 + c1*alpha, c0 + c1*(T + beta)) + min(r, 0),
        the least intensity over Theta x [0, T], is not positive by more than
        64u*C (u the unit roundoff, C = |c0| + |c1|*Y + |r|, Y = T + max|theta|).

        Otherwise every term is the log of a positive affine function of theta
        of the one slope c1 between breakpoints; a computed intensity is
        within 4u*C of exact, and its log within 8u*(Lambda + C/lam_min)
        (Lambda = max|log lambda|).
        """
        iv, lam_min = self.theta_interval, self._lam_min
        y = self.horizon + max(abs(iv.alpha), abs(iv.beta))
        coeff = abs(self.c0) + abs(self.c1) * y + abs(self.r)
        if not lam_min > 64.0 * _U * coeff:
            return None
        log_max = max(abs(math.log(lam_min)), abs(math.log(self.lambda_max)))
        return _event_sum_rounding(n_events, log_max, coeff / lam_min)

    def event_term_slope(self):
        """c1 where ``event_sum_rounding`` states R (a computed intensity is
        then within relative 4u*C/lam_min <= R/(2N) of exact) and
        |c1|*|Theta| <= 16*lam_min, which keeps the table to about 64
        anchors."""
        if self.event_sum_rounding(1) is None:
            return None
        return self.c1 if abs(self.c1) * self.theta_interval.width <= 16.0 * self._lam_min else None

    def event_branches(self, theta, events):
        t = np.asarray(events, dtype=float)
        before = self.c0 + self.c1 * (t + theta)
        return self.s_star - t, before, before + self.r


@dataclass(frozen=True)
class ChangePointModel(_BreakAtTheta):
    """lambda(theta, t) = g1*1{t < theta} + g2*1{t >= theta}, constants g1 < g2 > 0."""

    catalog_id = "CHANGEPOINT"
    smoothness_order = 0

    g1: float = 1.0
    g2: float = 2.0
    theta_interval: ParameterInterval = ParameterInterval(0.1, 0.9)

    def __post_init__(self):
        if not (0 < self.g1 < self.g2):
            raise ConfigurationError(f"need 0 < g1 < g2, got g1={self.g1}, g2={self.g2}")
        super().__post_init__()

    def _lambda_bound(self):
        return self.g2

    def _value(self, theta, t, theta_side=0):
        if theta_side > 0:
            before = t <= theta
        else:
            before = t < theta
        return np.where(before, self.g1, self.g2)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        cut = np.clip(th, lo, hi)
        return self.g1 * (cut - lo) + self.g2 * (hi - cut)

    def event_term_slope(self):
        """0: the terms are constant in theta on a segment."""
        return 0.0

    def event_branches(self, theta, events):
        t = np.asarray(events, dtype=float)
        return t, np.full(t.shape, float(self.g2)), np.full(t.shape, float(self.g1))


@dataclass(frozen=True)
class WindowSineModel(IntensityModel):
    """lambda(theta, t) = (b + theta*sin(omega*t))^2 on one period [0, 2*pi/omega].

    Fisher integrand reduces to 4*sin^2(omega*t) regardless of theta, which
    makes the optimal observation window available in closed form.
    """

    catalog_id = "WINDOW_SINE"
    smoothness_order = 3

    b: float = 2.0
    omega: float = 2.0 * math.pi
    theta_interval: ParameterInterval = ParameterInterval(-1.0, 1.0)
    horizon: float = 1.0

    def __post_init__(self):
        period = 2.0 * math.pi / self.omega
        if abs(self.horizon - period) > 1e-12:
            object.__setattr__(self, "horizon", period)
        iv = self.theta_interval
        if max(abs(iv.alpha), abs(iv.beta)) >= self.b:
            raise ConfigurationError("WINDOW_SINE needs |theta| < b to stay away from zero intensity")
        super().__post_init__()

    def _lambda_bound(self):
        iv = self.theta_interval
        return (self.b + max(abs(iv.alpha), abs(iv.beta))) ** 2

    def _value(self, theta, t, theta_side=0):
        return (self.b + theta * np.sin(self.omega * t)) ** 2

    def _dtheta(self, theta, t, order, side):
        s = np.sin(self.omega * t)
        if order == 1:
            return 2.0 * (self.b + theta * s) * s
        if order == 2:
            return 2.0 * s ** 2
        return np.zeros_like(t)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        w = self.omega
        int_sin = (np.cos(w * lo) - np.cos(w * hi)) / w
        int_sin2 = 0.5 * (hi - lo) - (np.sin(2.0 * w * hi) - np.sin(2.0 * w * lo)) / (4.0 * w)
        return self.b ** 2 * (hi - lo) + 2.0 * self.b * th * int_sin + th ** 2 * int_sin2


@dataclass(frozen=True)
class SuffWinLinearModel(_BreakAtTheta):
    """lambda(theta, t) = 2*a*t + b*1{t > theta}.

    Linear ramp plus one jump at t=theta; the mean terminal count
    a*tau^2 + b*(tau - theta) inverts into a method-of-moments estimator.
    """

    catalog_id = "SUFFWIN_LINEAR"
    smoothness_order = 0

    a: float = 1.0
    b: float = 2.0
    theta_interval: ParameterInterval = ParameterInterval(0.1, 0.9)

    def __post_init__(self):
        if self.a < 0 or self.b <= 0:
            raise ConfigurationError("SUFFWIN_LINEAR needs a >= 0 and b > 0")
        super().__post_init__()

    def _lambda_bound(self):
        return 2.0 * self.a * self.horizon + self.b

    def _value(self, theta, t, theta_side=0):
        if theta_side < 0:
            after = t >= theta
        else:
            after = t > theta
        return 2.0 * self.a * t + self.b * after

    def mean_terminal_count(self, theta) -> float:
        tau = self.horizon
        return self.a * tau ** 2 + self.b * (tau - float(theta))

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        cut = np.clip(th, lo, hi)
        return self.a * (hi ** 2 - lo ** 2) + self.b * (hi - cut)

    def event_term_slope(self):
        return 0.0

    def event_branches(self, theta, events):
        t = np.asarray(events, dtype=float)
        ramp = 2.0 * self.a * t
        return t, ramp + self.b, ramp


@dataclass(frozen=True)
class NonIdentFixedModel(IntensityModel):
    """Corrected non-identifiable family: both t-coefficients vanish at theta=1,2.

    lambda = 1 + theta*(theta-1)*(theta-2)*t + (theta-1)*(theta-2)*t^2, so
    lambda(1,.) = lambda(2,.) = 1 while the scores at the two roots differ.
    """

    catalog_id = "NONIDENT_FIXED"
    smoothness_order = 3

    theta_interval: ParameterInterval = ParameterInterval(0.0, 3.0)

    def _lambda_bound(self):
        return 9.0

    def _value(self, theta, t, theta_side=0):
        q = (theta - 1.0) * (theta - 2.0)
        return 1.0 + theta * q * t + q * t ** 2

    def _dtheta(self, theta, t, order, side):
        if order == 1:
            return (3.0 * theta ** 2 - 6.0 * theta + 2.0) * t + (2.0 * theta - 3.0) * t ** 2
        if order == 2:
            return (6.0 * theta - 6.0) * t + 2.0 * t ** 2
        return 6.0 * t

    def nonident_roots(self) -> tuple[float, float]:
        return (1.0, 2.0)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        q = (th - 1.0) * (th - 2.0)
        return (hi - lo) + th * q * (hi ** 2 - lo ** 2) / 2.0 + q * (hi ** 3 - lo ** 3) / 3.0


def _frac(y):
    return y - np.floor(y)


def _upper_half(y):
    """G(y) = floor(y)/2 + min(frac(y), 1/2); y + 2*G(y) is the square wave's antiderivative."""
    return 0.5 * np.floor(y) + np.minimum(_frac(y), 0.5)


def _square_wave(y, theta_side):
    """base(y) = 3 on [k, k+1/2), 1 on [k+1/2, k+1).

    y increases with theta, so the one-sided limits in theta shift the
    half-open conventions: side -1 takes 3 on (k, k+1/2].
    """
    f = _frac(y)
    if theta_side < 0:
        hi = (f > 0.0) & (f <= 0.5)
    else:
        hi = f < 0.5
    return 1.0 + 2.0 * hi


@dataclass(frozen=True)
class PhaseModSmoothModel(IntensityModel):
    """Phase modulation lambda(theta, t) = base(t + theta), base(y) = 2 + cos(2*pi*y)."""

    catalog_id = "PHASE_MOD_SMOOTH"
    smoothness_order = 3

    theta_interval: ParameterInterval = ParameterInterval(0.1, 0.9)

    def _lambda_bound(self):
        return 3.0

    def _value(self, theta, t, theta_side=0):
        return 2.0 + np.cos(2.0 * math.pi * (t + theta))

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        # sin(2*pi*(hi+theta)) - sin(2*pi*(lo+theta)) in product form
        return (hi - lo) * (2.0 + np.cos(math.pi * (hi + lo + 2.0 * th)) * np.sinc(hi - lo))

    def _dtheta(self, theta, t, order, side):
        y = 2.0 * math.pi * (t + theta)
        w = 2.0 * math.pi
        if order == 1:
            return -w * np.sin(y)
        if order == 2:
            return -w ** 2 * np.cos(y)
        return w ** 3 * np.sin(y)


@dataclass(frozen=True)
class PhaseModDiscModel(IntensityModel):
    """Phase modulation lambda(theta, t) = base(t + theta), base(y) = 1 + 2*1{frac(y) < 1/2}."""

    catalog_id = "PHASE_MOD_DISC"
    smoothness_order = 0

    theta_interval: ParameterInterval = ParameterInterval(0.1, 0.9)

    def _lambda_bound(self):
        return 3.0

    def _value(self, theta, t, theta_side=0):
        return _square_wave(t + theta, theta_side)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        return (hi - lo) + 2.0 * (_upper_half(hi + th) - _upper_half(lo + th))

    def t_breakpoints(self, theta):
        th = float(theta)
        pts = []
        k = math.floor(th)
        y = k + 0.5
        while y - th < self.horizon + 1.0:
            for cand in (y - th - 0.5, y - th):
                if 0.0 < cand < self.horizon:
                    pts.append(cand)
            y += 1.0
        return tuple(sorted(set(pts)))

    def event_theta_breakpoints(self, events):
        ev = np.asarray(events, dtype=float)
        if ev.size == 0:
            return np.empty(0)
        iv = self.theta_interval
        lo = math.floor(2.0 * (iv.alpha + float(np.min(ev))))
        hi = math.ceil(2.0 * (iv.beta + float(np.max(ev))))
        out = []
        for half in range(lo, hi + 1):
            th = half / 2.0 - ev
            out.append(th[(th > iv.alpha) & (th < iv.beta)])
        return np.unique(np.concatenate(out)) if out else np.empty(0)


@dataclass(frozen=True)
class FreqModSmoothModel(IntensityModel):
    """Frequency modulation lambda(theta, t) = base(theta * t), base(y) = 2 + cos(2*pi*y).

    Estimated from one long record (the i.i.d.-slices equivalence does not
    apply); horizon is a free structural constant.
    """

    catalog_id = "FREQ_MOD_SMOOTH"
    smoothness_order = 3

    theta_interval: ParameterInterval = ParameterInterval(0.5, 1.5)
    horizon: float = 10.0

    def _lambda_bound(self):
        return 3.0

    def _value(self, theta, t, theta_side=0):
        return 2.0 + np.cos(2.0 * math.pi * (theta * t))

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        # (sin(2*pi*theta*hi) - sin(2*pi*theta*lo)) / (2*pi*theta) in product
        # form; sinc keeps theta = 0 exact at 3*(hi - lo)
        return (hi - lo) * (2.0 + np.cos(math.pi * th * (hi + lo)) * np.sinc(th * (hi - lo)))

    def _dtheta(self, theta, t, order, side):
        y = 2.0 * math.pi * theta * t
        w = 2.0 * math.pi
        if order == 1:
            return -w * t * np.sin(y)
        if order == 2:
            return -(w * t) ** 2 * np.cos(y)
        return (w * t) ** 3 * np.sin(y)


@dataclass(frozen=True)
class FreqModDiscModel(IntensityModel):
    """Frequency modulation lambda(theta, t) = base(theta * t), base(y) = 1 + 2*1{frac(y) < 1/2}.

    One long record, like ``FreqModSmoothModel``.
    """

    catalog_id = "FREQ_MOD_DISC"
    smoothness_order = 0

    theta_interval: ParameterInterval = ParameterInterval(0.5, 1.5)
    horizon: float = 10.0

    def _lambda_bound(self):
        return 3.0

    def _value(self, theta, t, theta_side=0):
        y = theta * t
        if theta_side != 0:
            # a breakpoint theta = k/(2 t) is a rounded float, so theta * t can
            # land an ulp or two on either side of k/2; snap it back so the
            # half-open rule picks the requested side
            half = np.rint(2.0 * y)
            near = np.abs(2.0 * y - half) <= 4.0 * np.spacing(np.abs(2.0 * y))
            y = np.where(near, 0.5 * half, y)
        return _square_wave(y, theta_side)

    def integral_hint(self, thetas, lo, hi):
        th = np.asarray(thetas, dtype=float)
        # substitute y = theta*t; at theta = 0 the rate is base(0) = 3 throughout
        zero = th == 0.0
        safe = np.where(zero, 1.0, th)
        scaled = (_upper_half(safe * hi) - _upper_half(safe * lo)) / safe
        return (hi - lo) + 2.0 * np.where(zero, hi - lo, scaled)

    def t_breakpoints(self, theta):
        th = abs(float(theta))
        if th == 0:
            return ()
        ks = np.arange(1, int(math.floor(2 * th * self.horizon)) + 1)
        pts = ks / (2.0 * th)
        return tuple(pts[(pts > 0) & (pts < self.horizon)])

    def event_theta_breakpoints(self, events):
        iv = self.theta_interval
        ev = np.asarray(events, dtype=float)
        ev = ev[ev > 1e-12]
        out = []
        for t_i in ev:
            ks = np.arange(math.ceil(2 * t_i * iv.alpha), math.floor(2 * t_i * iv.beta) + 1)
            th = ks / (2.0 * t_i)
            out.append(th[(th > iv.alpha) & (th < iv.beta)])
        return np.unique(np.concatenate(out)) if out else np.empty(0)


# ---------------------------------------------------------------------------
# true (data-generating) intensities, possibly outside the model family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrueIntensity:
    """A fixed data-generating intensity lambda*(t) on [0, horizon]."""

    fn: object  # callable t-array -> rate array
    horizon: float
    lambda_max: float
    breakpoints: tuple = ()
    description: str = ""

    def __post_init__(self):
        tt = np.linspace(0.0, self.horizon, 2001)
        vals = self.value(tt)
        if np.min(vals) < -1e-12:
            raise ConfigurationError(f"true intensity negative at t={tt[np.argmin(vals)]:.6g}")
        if np.max(vals) > self.lambda_max * (1 + 1e-9) + 1e-12:
            raise ConfigurationError("true intensity exceeds its certified bound")

    def value(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)

    @staticmethod
    def from_model(model: IntensityModel, theta0: float) -> "TrueIntensity":
        theta0 = float(theta0)
        if not model.theta_interval.contains(theta0):
            raise DomainError(f"theta0={theta0} outside the closure of Theta")
        return TrueIntensity(
            fn=lambda t, m=model, th=theta0: m.value(th, t),
            horizon=model.horizon,
            lambda_max=model.lambda_max,
            breakpoints=tuple(model.t_breakpoints(theta0)),
            description=f"{model.catalog_id}@theta0={theta0:g}",
        )

    @staticmethod
    def contaminated(model: IntensityModel, theta0: float, h_fn, h_max: float,
                     h_breakpoints: tuple = (), description: str = "") -> "TrueIntensity":
        """lambda*(t) = lambda(theta0, t) + h(t)."""
        base = TrueIntensity.from_model(model, theta0)
        return TrueIntensity(
            fn=lambda t: base.value(t) + np.asarray(h_fn(np.asarray(t, dtype=float)), dtype=float),
            horizon=model.horizon,
            lambda_max=model.lambda_max + max(h_max, 0.0),
            breakpoints=tuple(sorted(set(base.breakpoints) | set(h_breakpoints))),
            description=description or f"{base.description}+h",
        )

    @staticmethod
    def changepoint(g1: float, g2: float, h1: float, h2: float, theta0: float,
                    horizon: float = 1.0) -> "TrueIntensity":
        """Contaminated change point: g1+h1 before theta0, g2+h2 after."""
        lo, hi = g1 + h1, g2 + h2
        if lo < 0 or hi < 0:
            raise ConfigurationError("contaminated change-point intensity is negative")

        def fn(t):
            return np.where(t < theta0, lo, hi)

        return TrueIntensity(
            fn=fn, horizon=horizon, lambda_max=max(lo, hi),
            breakpoints=(theta0,) if 0 < theta0 < horizon else (),
            description=f"changepoint g1+h1={lo:g}, g2+h2={hi:g} @ {theta0:g}",
        )


# ---------------------------------------------------------------------------
# catalog registry and the public operations
# ---------------------------------------------------------------------------

CATALOG = {cls.catalog_id: cls for cls in (
    ConstantModel, RegularExpModel, NullFisherSineModel, DiscFisherKinkModel, CuspModel,
    JumpShiftModel, ChangePointModel, WindowSineModel, SuffWinLinearModel, NonIdentFixedModel,
    PhaseModSmoothModel, PhaseModDiscModel, FreqModSmoothModel, FreqModDiscModel,
)}


def make_model(catalog_id: str, params: dict | None = None,
               theta_interval: tuple | None = None,
               horizon: float | None = None) -> IntensityModel:
    """Build a catalog model by string id, with optional overrides."""
    if catalog_id not in CATALOG:
        raise ConfigurationError(
            f"unknown catalog id {catalog_id!r}; known: {sorted(CATALOG)}"
        )
    if params is not None and not isinstance(params, dict):
        raise ConfigurationError(f"params must be an object, got {params!r}")
    kwargs = dict(params or {})
    if theta_interval is not None:
        kwargs["theta_interval"] = ParameterInterval(float(theta_interval[0]), float(theta_interval[1]))
    if horizon is not None:
        kwargs["horizon"] = float(horizon)
    try:
        return CATALOG[catalog_id](**kwargs)
    except TypeError as exc:  # the message names the unexpected keyword
        raise ConfigurationError(f"bad params {sorted(params or {})} for {catalog_id}: {exc}") from None


def _check_args(model: IntensityModel, theta: float, t) -> None:
    iv = model.theta_interval
    if not (iv.alpha <= theta <= iv.beta):
        raise DomainError(f"theta={theta} outside [{iv.alpha}, {iv.beta}]")
    t = np.asarray(t, dtype=float)
    if t.size and (np.min(t) < -1e-12 or np.max(t) > model.horizon + 1e-12):
        raise DomainError(f"t outside [0, {model.horizon}]")


def evaluate(model: IntensityModel, theta: float, t):
    """Intensity value at (theta, t) with full domain validation."""
    _check_args(model, theta, t)
    return model.value(theta, t)


def cumulative(model: IntensityModel, theta: float, t: float):
    """Expected count Lambda(t) = integral of the intensity over [0, t]."""
    _check_args(model, theta, t)
    return float(model.integral_hint(np.array([float(theta)]), 0.0, float(t))[0])


def theta_derivative(model: IntensityModel, theta: float, t, order: int, side=None):
    """Analytic theta-derivative of order 1..3 (one-sided at declared kinks)."""
    _check_args(model, theta, t)
    return model.dtheta(theta, t, order, side=side)
