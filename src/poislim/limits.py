"""Limit-law parameters and samplers for each estimation regime.

Each regime has one shape (Ibragimov-Khasminskii): a rate n^rate_exponent, a limit
likelihood-ratio process Z(u), and two functionals of it, argmax Z (the MLE) and
integral u Z / integral Z (the Bayes estimator).  ``REGIMES`` maps each regime name
to one frozen ``RegimeLimit`` class whose fields are the sampler parameters: it
computes them at theta0 (``from_model``, for the families ``misfit`` accepts) or
reads them from ``limits --set`` values
(``set_keys``; the keys of fields without defaults are required), validates them,
and ``draw(g, size)`` draws Z once per chunk of draws and yields both functionals;
``compare`` gives the summary entries of estimates of theta0 against those draws.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import analysis, intensity
from .errors import (CapabilityError, ConfigurationError, DomainError, NumericalError,
                     PreconditionError)
from .estimators import _prior_weights
from .intensity import CuspModel, JumpShiftModel
from .simulate import RngStream

__all__ = ["REGIMES", "RegimeLimit", "CuspParams", "ks_two_sample", "limit_params",
           "sample_limit_batch", "simulate_fbm"]


@dataclass(frozen=True)
class RegimeLimit:
    """One regime's limit law; subclasses hold its parameters as fields."""

    regime: ClassVar[str]
    rate_exponent: ClassVar[float]
    set_keys: ClassVar[dict] = {}  # limits --set key -> field; empty: no direct form
    signed: ClassVar[tuple] = ()  # the set_keys fields that need not be positive
    family: ClassVar[type | None] = None  # the one intensity family of the regime
    theta_order: ClassVar[int] = 0  # the theta-derivative order from_model reads
    two_sided: ClassVar[bool] = False  # from_model reads two-sided derivatives at theta0

    @classmethod
    def misfit(cls, family: type, theta0: float) -> str | None:
        """Why the intensity family (a class) cannot have this regime at theta0, or None."""
        if cls.family is not None and not issubclass(family, cls.family):
            return f"{cls.regime} regime is defined for the {cls.family.catalog_id} family"
        if family.smoothness_order < cls.theta_order:
            return (f"{cls.regime} regime needs order-{cls.theta_order} theta-derivatives; "
                    f"{family.catalog_id} has smoothness_order {family.smoothness_order}")
        if cls.two_sided and theta0 in family.theta_kinks:
            return (f"{cls.regime} regime needs two-sided theta-derivatives at theta0, but "
                    f"{family.catalog_id} has a kink at theta0 = {theta0:g}")
        return None

    def __post_init__(self):
        for key, name in self.set_keys.items():
            value = getattr(self, name)  # None: a default the subclass derives
            if name not in self.signed and value is not None and not value > 0:
                raise ConfigurationError(f"{key} must be positive, got {value:g}")

    def target(self, theta0: float) -> float:  # the value the estimators converge to
        return theta0

    def compare(self, values, n, target, draws) -> dict:
        """KS statistic and p-value of n^rate_exponent (values - target) against the draws."""
        sample = float(n) ** self.rate_exponent * (values - target)
        stat = ks_two_sample(sample, draws)
        scale = math.sqrt(sample.size * draws.size / (sample.size + draws.size))
        return {"ks_statistic": stat, "ks_pvalue": _kolmogorov_sf(scale * stat)}

    @classmethod
    def from_set(cls, values: dict) -> "RegimeLimit":
        """The limit from ``limits --set`` values keyed as in ``set_keys``."""
        if not cls.set_keys:
            raise ConfigurationError(
                f"regime {cls.regime!r} needs a scenario file (no direct parameter form)")
        required = {key for key, name in cls.set_keys.items()
                    if cls.__dataclass_fields__[name].default is MISSING}
        missing = sorted(required - set(values))
        unknown = sorted(set(values) - set(cls.set_keys))
        if missing or unknown:
            raise ConfigurationError(
                f"regime {cls.regime!r} takes {sorted(required)} and optionally "
                f"{sorted(set(cls.set_keys) - required)}; missing {missing}, unknown {unknown}")
        return cls(**{cls.set_keys[key]: value for key, value in values.items()})


@dataclass(frozen=True)
class RegularParams(RegimeLimit):
    """Z(u) = exp(u zeta - u^2 I / 2), zeta ~ N(0, I): both limits are N(0, 1/I)."""

    regime, rate_exponent = "regular", 0.5
    set_keys = {"I": "fisher_information"}
    theta_order, two_sided = 1, True
    fisher_information: float

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        info = analysis.fisher_information(model, theta0)
        if not info > 0:
            raise PreconditionError("regular regime needs positive Fisher information")
        return cls(info)

    def draw(self, g, size):
        x = g.normal(0.0, math.sqrt(1.0 / self.fisher_information), size)
        yield slice(None), {"mle": lambda: x, "bayes": lambda: x}


@dataclass(frozen=True)
class MisspecifiedParams(RegimeLimit):
    """The regular shape around the KL minimizer theta*: both limits are N(0, D^2)."""

    regime, rate_exponent = "misspecified", 0.5
    set_keys = {"D2": "d_big_sq"}
    theta_order, two_sided = 2, True
    d_big_sq: float
    theta_star: float | None = None
    d_star_sq: float | None = None
    i_star: float | None = None

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        if true_intensity is None:
            raise PreconditionError("misspecified regime needs the true intensity")
        ma = analysis.misspec_asymptotics(true_intensity, model)
        return cls(ma.d_big_sq, ma.theta_star, ma.d_star_sq, ma.i_star)

    def target(self, theta0: float) -> float:
        return self.theta_star

    def draw(self, g, size):
        x = g.normal(0.0, math.sqrt(self.d_big_sq), size)
        yield slice(None), {"mle": lambda: x, "bayes": lambda: x}


@dataclass(frozen=True)
class NonidentParams(RegimeLimit):
    """Z peaks at each root theta_k, zeta ~ N(0, rho): the MLE is the root of largest |zeta_k|,
    Bayes the mean of the roots weighted by w_k exp(zeta_k^2 / 2) / sqrt(I_k), w_k the prior
    density at theta_k."""

    regime, rate_exponent = "nonidentifiable", 0.5
    theta_order = 1
    roots: list
    informations: list
    rho: list
    prior_weights: list

    @classmethod
    def misfit(cls, family, theta0):
        if not hasattr(family, "nonident_roots"):
            return f"{family.catalog_id} does not declare coinciding roots"
        return super().misfit(family, theta0)

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        cov = analysis.nonident_covariance(model, model.nonident_roots())
        weights = _prior_weights(prior, np.asarray(cov.roots, dtype=float))
        return cls(list(cov.roots), list(cov.informations), cov.rho.tolist(), weights.tolist())

    def compare(self, values, n, target, draws):  # a law of the estimate, not of its error
        return super().compare(values, 1, 0.0, draws)  # the estimates themselves, bit for bit

    def draw(self, g, size):
        roots = np.asarray(self.roots, dtype=float)
        try:
            chol = np.linalg.cholesky(np.asarray(self.rho) + 1e-12 * np.eye(roots.size))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("root-correlation matrix failed Cholesky") from exc
        zeta = g.standard_normal((size, roots.size)) @ chol.T
        yield slice(None), {"mle": lambda: roots[np.argmax(np.abs(zeta), axis=1)],
                            "bayes": lambda: _nonident_bayes(zeta, roots, self.informations,
                                                             self.prior_weights)}


@dataclass(frozen=True)
class NullFisherParams(RegimeLimit):
    """Z(u) = exp(u^3 zeta - u^6 I3 / 2), zeta ~ N(0, I3): the MLE is (zeta / I3)^(1/3)."""

    regime, rate_exponent = "null-fisher", 1.0 / 6.0
    set_keys = {"I3": "i3"}
    theta_order, two_sided = 3, True
    i3: float

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        i3 = analysis.higher_order_information(model, theta0)
        if not i3 > 0:
            raise PreconditionError("null-Fisher regime needs positive third-order information")
        return cls(i3)

    def draw(self, g, size):
        i3 = self.i3
        zeta = g.normal(0.0, math.sqrt(i3), size)
        yield slice(None), {"mle": lambda: np.cbrt(zeta / i3),
                            "bayes": lambda: _null_fisher_bayes(zeta, i3)}


@dataclass(frozen=True)
class DiscFisherParams(RegimeLimit):
    """Z(u) = exp(u z_l sqrt(I_l) - u^2 I_l / 2) for u <= 0, the same with z_r, I_r for u > 0;
    (z_l, z_r) are standard normals with correlation corr."""

    regime, rate_exponent = "disc-fisher", 0.5
    set_keys = {"I_left": "info_left", "I_right": "info_right", "corr": "corr"}
    signed = ("corr",)
    theta_order = 1
    info_left: float
    info_right: float
    corr: float

    def __post_init__(self):
        super().__post_init__()
        if not -1.0 <= self.corr <= 1.0:
            raise ConfigurationError(f"corr must lie in [-1, 1], got {self.corr}")

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        info_l = analysis.fisher_information(model, theta0, side="left")
        info_r = analysis.fisher_information(model, theta0, side="right")
        if not (info_l > 0 and info_r > 0):
            raise PreconditionError("disc-fisher regime needs positive one-sided informations")
        cross = analysis.integrate(
            lambda t: (model.dtheta(theta0, t, 1, side="left")
                       * model.dtheta(theta0, t, 1, side="right") / model.value(theta0, t)),
            0.0, model.horizon, breakpoints=model.t_breakpoints(theta0))
        # Cauchy-Schwarz bounds |corr| by 1; the clip only absorbs rounding
        return cls(info_l, info_r, min(1.0, max(-1.0, cross / math.sqrt(info_l * info_r))))

    def draw(self, g, size):
        il, ir = self.info_left, self.info_right
        zl = g.standard_normal(size)
        zr = self.corr * zl + math.sqrt(max(0.0, 1.0 - self.corr ** 2)) * g.standard_normal(size)
        yield slice(None), {"mle": lambda: _disc_fisher_mle(zl, zr, il, ir),
                            "bayes": lambda: _split_gaussian_mean(zl, zr, il, ir)}


@dataclass(frozen=True)
class BoundaryParams(RegimeLimit):
    """The regular Z(u) on the side of Theta: u >= 0 (orientation 1) or u <= 0 (-1)."""

    regime, rate_exponent = "boundary", 0.5
    set_keys = {"I": "fisher_information", "orientation": "orientation"}
    signed = ("orientation",)
    theta_order = 1
    fisher_information: float
    orientation: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.orientation not in (1.0, -1.0):
            raise ConfigurationError(f"orientation must be 1 or -1, got {self.orientation:g}")

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        iv = model.theta_interval
        tol = 1e-9 * max(1.0, iv.width)
        ends = [o for o, end in ((1.0, iv.alpha), (-1.0, iv.beta)) if abs(theta0 - end) <= tol]
        if not ends:
            raise PreconditionError(
                f"boundary regime needs theta0 at an endpoint of ({iv.alpha}, {iv.beta})")
        info = analysis.fisher_information(model, theta0)
        if not info > 0:
            raise PreconditionError("boundary regime needs positive Fisher information")
        return cls(info, ends[0])

    def draw(self, g, size):
        info, orient = self.fisher_information, self.orientation
        zs = g.standard_normal(size)
        # sqrt(info) * zs is bit-identical to g.normal(0, sqrt(info), size); Bayes
        # is the mean of N(zs, 1) on v >= 0, zs + phi(zs) / Phi(zs), over sqrt(info)
        zeta = math.sqrt(info) * zs
        yield slice(None), {"mle": lambda: orient * np.where(zeta >= 0.0, zeta / info, 0.0),
                            "bayes": lambda: orient * (zs + _mills(zs)) / math.sqrt(info)}


@dataclass(frozen=True)
class CuspParams(RegimeLimit):
    """Z(u) = exp(Gamma W(u) - Gamma^2 |u|^2H / 2) on a grid, W two-sided fBm, H = kappa + 1/2."""

    regime = "cusp"
    family = CuspModel
    set_keys = {"kappa": "kappa", "gamma_sq": "gamma_sq", "halfwidth": "grid_halfwidth",
                "grid_points": "grid_points"}
    kappa: float
    hurst: float | None = field(default=None, kw_only=True)  # None: kappa + 1/2
    gamma_sq: float
    grid_halfwidth: float = 20.0
    grid_points: int = 2001

    def __post_init__(self):
        if self.hurst is None:
            object.__setattr__(self, "hurst", self.kappa + 0.5)
        if not float(self.grid_points).is_integer():
            raise ConfigurationError(f"grid_points must be an integer, got {self.grid_points:g}")
        object.__setattr__(self, "grid_points", int(self.grid_points))
        if not (0.0 < self.kappa < 0.5):
            raise ConfigurationError(f"kappa must lie in (0, 1/2), got {self.kappa}")
        if abs(self.hurst - (self.kappa + 0.5)) > 1e-12:
            raise ConfigurationError("hurst must equal kappa + 1/2")
        if self.grid_points > 4001 or self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ConfigurationError("grid_points must be odd and in [3, 4001]")
        super().__post_init__()  # after the range checks, whose messages are more specific

    @property
    def rate_exponent(self) -> float:
        return 1.0 / (2.0 * self.hurst)

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        gamma_sq = cusp_gamma_sq(model.a, model.lam0, model.kappa)
        return cls(kappa=model.kappa, hurst=model.hurst, gamma_sq=gamma_sq)

    def draw(self, g, size):
        u = np.linspace(-self.grid_halfwidth, self.grid_halfwidth, self.grid_points)
        # linspace computes the centre as k * (2h / 2k) - h, which need not round to 0.0
        # (halfwidth 1, 99 points gives -1.1e-16); the fBm sampler needs an exact 0.0 node
        u[self.grid_points // 2] = 0.0
        pen = np.abs(u) ** (2.0 * self.hurst) * self.gamma_sq / 2.0
        lo = 0
        for log_z, scratch in _fbm_chunks(self.hurst, u, g, size):
            log_z *= math.sqrt(self.gamma_sq)
            log_z -= pen
            yield slice(lo, lo + log_z.shape[0]), {
                "mle": lambda: u[np.argmax(log_z, axis=1)],
                "bayes": lambda: _grid_posterior_mean(u, log_z, scratch)}
            lo += log_z.shape[0]


@dataclass(frozen=True)
class JumpParams(RegimeLimit):
    """log Z(u) = log(lam_right / lam_left) N(u) - (lam_right - lam_left) u on |u| <= u_halfwidth,
    N(u) the signed count of events from 0 to u, at rate lam_left for u > 0, lam_right for u < 0.

    Z's natural scale is 1 / (lam (ln rho)^2), rho = lam_right / lam_left, so u_halfwidth
    defaults to max(60, 50 / (min(lam_left, lam_right) (ln rho)^2)).  A window whose
    expected event count per draw exceeds _JUMP_MAX_EVENTS fails here, before any draw.
    """

    regime, rate_exponent = "jump", 1.0
    family = JumpShiftModel
    set_keys = {"lam_left": "lam_left", "lam_right": "lam_right", "halfwidth": "u_halfwidth"}
    lam_left: float
    lam_right: float
    u_halfwidth: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.u_halfwidth is None:
            if self.lam_left == self.lam_right:
                raise ConfigurationError("equal jump rates need an explicit halfwidth")
            log_ratio = math.log(self.lam_right / self.lam_left)
            scale = min(self.lam_left, self.lam_right) * log_ratio ** 2
            object.__setattr__(self, "u_halfwidth", max(60.0, 50.0 / scale))
        events = (self.lam_left + self.lam_right) * self.u_halfwidth
        if not events <= _JUMP_MAX_EVENTS:
            raise ConfigurationError(
                f"the jump window holds {events:.6g} expected events per draw, more than "
                f"the {_JUMP_MAX_EVENTS} a draw may hold (rates {self.lam_left:.10g} and "
                f"{self.lam_right:.10g}, halfwidth {self.u_halfwidth:.6g})")

    @classmethod
    def from_model(cls, model, theta0, true_intensity, prior):
        return cls(*model.jump_values())

    def draw(self, g, size):
        u_max = self.u_halfwidth
        log_ratio = math.log(self.lam_right / self.lam_left)
        drift = self.lam_right - self.lam_left
        n_plus = g.poisson(self.lam_left * u_max, size)
        n_minus = g.poisson(self.lam_right * u_max, size)
        for lo in range(0, size, _JUMP_BLOCK):
            # one uniform call per block, counts in the order p0, m0, p1, m1, ...: the
            # same doubles as one call per draw and side, whatever the block size
            counts = np.stack([n_plus[lo:lo + _JUMP_BLOCK], n_minus[lo:lo + _JUMP_BLOCK]], axis=1)
            block = _JumpBlock(g.uniform(0.0, u_max, counts.sum()), counts, log_ratio, drift,
                               u_max)
            yield slice(lo, lo + _JUMP_BLOCK), {"mle": block.mle, "bayes": block.bayes}


REGIMES = {cls.regime: cls for cls in (
    RegularParams, MisspecifiedParams, NonidentParams, NullFisherParams,
    DiscFisherParams, BoundaryParams, CuspParams, JumpParams)}


def cusp_gamma_sq(a: float, lam0: float, kappa: float) -> float:
    """(a^2 / lam0) integral of (|v - 1|^kappa - |v|^kappa)^2 dv over the real line,
    in closed form 2 a^2 (1 - cos(pi kappa)) B(1+kappa, 1+kappa) / (lam0 cos(pi kappa)),
    B(1+kappa, 1+kappa) = Gamma(1+kappa)^2 / Gamma(2+2kappa)."""
    # math.gamma, not scipy.special.beta: scipy is imported only inside the functions
    # that need it (_mills and _split_gaussian_mean), since at module level
    # scipy.special costs about 0.45 s of import time in every process, and no cusp
    # run, the regular and jump regimes and ``poislim simulate`` use it
    beta = math.gamma(1.0 + kappa) ** 2 / math.gamma(2.0 + 2.0 * kappa)
    return (2.0 * a ** 2 * (1.0 - math.cos(math.pi * kappa)) * beta
            / (lam0 * math.cos(math.pi * kappa)))


def limit_params(regime: str, model, theta0: float, true_intensity=None, prior="uniform"):
    """Compute the limit-law parameters of the given regime at theta0.

    ``prior`` is ``EstimatorSettings.prior``, the prior of the Bayes estimator.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; known: {tuple(REGIMES)}")
    why = REGIMES[regime].misfit(type(model), float(theta0))
    if why is not None:
        raise CapabilityError(why)
    return REGIMES[regime].from_model(model, float(theta0), true_intensity, prior)


def ks_two_sample(a, b) -> float:
    """Exact sup-distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("ks_two_sample needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution, the asymptotic law of
    sqrt(nm / (n + m)) times the two-sample KS statistic.  For x >= 1 the
    alternating series 2 sum (-1)^(k-1) exp(-2 k^2 x^2); below, one minus the
    theta-function form (sqrt(2 pi) / x) sum exp(-(2k-1)^2 pi^2 / (8 x^2)).
    Six terms of either reach double precision on its side of x = 1."""
    if x >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 7))
    if x < 0.1:  # 1 - P(K > x) < 1e-52 there
        return 1.0
    c = -math.pi ** 2 / (8.0 * x * x)
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(math.exp(c * (2 * k - 1) ** 2)
                                                    for k in range(1, 7))


# ---------------------------------------------------------------------------
# fractional Brownian motion
# ---------------------------------------------------------------------------

# a chunk of fBm paths takes as many as this many bytes of buffers hold, from 16 to
# 128 paths: 32 paths, about 3.4 MiB, on the default 2,001-point grid
_FBM_CHUNK_BYTES = 7 * 2 ** 19


def _fbm_chunk_rows(n: int) -> int:
    """Paths per chunk on a grid of n + 1 points: as many as the byte budget holds
    (a path takes 7n + 3 doubles of buffers), rounded down to a multiple of 16,
    from 16 to 128.  The paths do not depend on it, but the matrix-vector product
    of ``_grid_posterior_mean`` rounds a row by its place in groups of rows
    (groups of four in OpenBLAS), and a chunk of one path takes a dot product.
    Two chunk sizes of this form give the same Bayes draws bit for bit except
    the last, where one of them leaves that path alone in its chunk."""
    rows = _FBM_CHUNK_BYTES // (8 * (7 * n + 3))
    return min(128, max(16, rows - rows % 16))


def _fbm_grid(grid: np.ndarray) -> tuple[int, float]:
    """(index of the 0.0 node, spacing) of an increasing uniform grid with an exact 0.0 node."""
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("an fBm grid needs at least 2 points")
    zero = np.flatnonzero(grid == 0.0)
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    if zero.size != 1 or not (step > 0.0 and np.all(np.abs(np.diff(grid) - step) <= 1e-9 * step)):
        raise DomainError("an fBm grid must be uniform and increasing, with an exact 0.0 node")
    return int(zero[0]), float(step)


def _fgn_spectrum(hurst: float, n: int, step: float) -> np.ndarray:
    """The n + 1 rfft eigenvalues of the 2n-circulant that embeds the covariance
    gamma(k) = step^2H (|k+1|^2H + |k-1|^2H - 2|k|^2H) / 2 of n fGn increments."""
    h2 = 2.0 * hurst
    k = np.arange(n + 1.0)
    gamma = 0.5 * step ** h2 * (np.abs(k + 1.0) ** h2 + np.abs(k - 1.0) ** h2 - 2.0 * k ** h2)
    lam = np.fft.rfft(np.concatenate([gamma, gamma[n - 1:0:-1]])).real
    if lam.min() < -1e-12 * lam.max():
        raise NumericalError(f"fGn circulant embedding is not nonnegative at hurst {hurst}")
    return np.maximum(lam, 0.0, out=lam)


def _fbm_chunks(hurst: float, grid: np.ndarray, g: np.random.Generator, size: int):
    """Yield size paths of two-sided fBm on the grid, one per row, W(0) = 0 exactly,
    in chunks of at most ``_fbm_chunk_rows`` rows, each with a scratch array of its shape.

    The paths are exact by circulant embedding (Davies and Harte, 1987): with N = grid
    points - 1 and M = 2N, a path takes one row of 2N normals a_0..a_N, b_1..b_N-1, the
    Hermitian half-spectrum sqrt(lam_k M / 2) (a_k + i b_k), sqrt(lam_k M) a_k at k = 0
    and N, and its real inverse FFT, whose first N values are the fGn increments; their
    cumsum less its value at the 0.0 node is the path.  A path depends only on its own
    row of normals, so not on the chunk size.  The yielded arrays are views of buffers
    that the next chunk overwrites.
    """
    zero, step = _fbm_grid(grid)
    n = grid.size - 1
    m = 2 * n
    weight = np.full(n + 1, float(n))
    weight[[0, n]] = m
    scale = np.sqrt(_fgn_spectrum(hurst, n, step) * weight)
    chunk = _fbm_chunk_rows(n)
    rows = min(chunk, size)
    z, inc = np.empty((rows, m)), np.empty((rows, m))
    spec = np.zeros((rows, n + 1), dtype=complex)
    path = np.empty((rows, n + 1))
    for lo in range(0, size, chunk):
        r = min(chunk, size - lo)
        normals = g.standard_normal((r, m), out=z[:r])
        np.multiply(normals[:, :n + 1], scale, out=spec.real[:r])
        np.multiply(normals[:, n + 1:], scale[1:n], out=spec.imag[:r, 1:n])
        np.fft.irfft(spec[:r], n=m, out=inc[:r])
        w = path[:r]
        w[:, 0] = 0.0
        np.cumsum(inc[:r, :n], axis=1, out=w[:, 1:])
        w -= w[:, zero, None]
        # the normals are spent: their buffer is the chunk's scratch
        yield w, z.reshape(-1)[:w.size].reshape(w.shape)


def _fbm_batch(hurst: float, grid: np.ndarray, g: np.random.Generator, size: int) -> np.ndarray:
    """size fBm paths as by ``_fbm_chunks``, in one new array."""
    return np.concatenate([w.copy() for w, _ in _fbm_chunks(hurst, grid, g, size)])


def simulate_fbm(hurst: float, grid, rng: RngStream) -> np.ndarray:
    """One exact (circulant-embedding) fBm path on a uniform grid with an exact 0.0 node."""
    if not (0.0 < hurst < 1.0):
        raise DomainError(f"hurst must lie in (0, 1), got {hurst}")
    return _fbm_batch(hurst, np.asarray(grid, dtype=float), rng.generator(), 1)[0]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _grid_posterior_mean(u, log_z, scratch=None):
    """Numeric integral u Z / integral Z on a uniform grid (batched rows).  Z / max Z
    is formed in ``scratch`` (an array shaped like log_z; None: a new one)."""
    m = np.max(log_z, axis=-1, keepdims=True)
    w = np.subtract(log_z, m, out=scratch)
    np.exp(w, out=w)
    coeff = analysis._simpson_weights(u.size - 1) * ((u[1] - u[0]) / 3.0)
    den = w @ coeff
    num = w @ (coeff * u)
    return num / den


_JUMP_BLOCK = 512  # draws per uniform call in the jump sampler; bounds its memory
# expected events per jump draw, (lam_left + lam_right) u_halfwidth, at most: one
# block of _JUMP_BLOCK draws then holds about 2^25 event times (256 MiB)
_JUMP_MAX_EVENTS = 2 ** 16


def _jump_tiles(times, starts, counts, u_max):
    """[(draw indices, their counts, edges)] of one side of a block of jump draws.

    The draws are sorted by count and cut into tiles whose padded edges array
    (rows x (largest count + 2)) holds at most ``intensity._BLOCK_PAIRS``
    doubles, or one row.  Row i of edges is 0, the draw's c_i sorted event
    times and u_max, padded with u_max: edges[i, :c_i + 2] are the draw's
    segment ends.
    """
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    widths = sorted_counts + 2
    tiles = []
    lo = 0
    while lo < order.size:
        # rows x width grows with hi along the sorted counts
        fits = (np.arange(1, order.size - lo + 1) * widths[lo:]) <= intensity._BLOCK_PAIRS
        hi = lo + max(1, int(np.count_nonzero(fits)))
        idx, cnt = order[lo:hi], sorted_counts[lo:hi]
        top = int(cnt[-1])
        edges = np.full((idx.size, top + 2), u_max)
        edges[:, 0] = 0.0
        if top:
            cols = np.arange(top)
            inner = edges[:, 1:-1]
            np.copyto(inner, np.take(times, starts[idx, None] + cols, mode="clip"),
                      where=cols < cnt[:, None])
            inner.sort(axis=1)
        tiles.append((idx, cnt, edges))
        lo = hi
    return tiles


class _JumpBlock:
    """Both functionals of one block of jump draws, from count-sorted tiles.

    ``times`` holds the block's event times draw by draw, the positive side
    then the negative (s >= 0 on each: u = s and u = -s), and ``counts`` (draws
    x 2) their numbers.  Each functional equals the per-draw computation bit
    for bit: ``mle`` tries each draw's candidates in one fixed order and keeps
    a candidate only if it is strictly better, and ``bayes`` sums each draw's
    segments in one row of exactly its own length.
    """

    def __init__(self, times, counts, log_ratio, drift, u_max):
        starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
        self.tiles = [_jump_tiles(times, starts[:, j], counts[:, j], u_max) for j in (0, 1)]
        self.log_ratio, self.drift, self.u_max, self.size = log_ratio, drift, u_max, len(counts)

    @cached_property
    def best(self):
        """(argmax, max) of log Z per draw over its realized event points.

        Per side the candidates are the event times once with the count
        including them (k) and once without (k - 1), then the window's end;
        the + side goes first.  Z starts at u = 0, log Z = 0.
        """
        best_u, best_v = np.zeros(self.size), np.zeros(self.size)
        for sign, tiles in zip((1.0, -1.0), self.tiles):
            # the - side is log_ratio -> -log_ratio, drift -> -drift, u -> -s
            lr, dr = sign * self.log_ratio, sign * self.drift
            for idx, cnt, edges in tiles:
                top = edges.shape[1] - 2
                cands = []
                if top:
                    times = edges[:, 1:-1]
                    pad = np.arange(top) >= cnt[:, None]
                    rows = np.arange(idx.size)
                    ks = np.arange(1.0, top + 1.0)
                    for k in (ks, ks - 1.0):
                        vals = lr * k - dr * times
                        vals[pad] = -np.inf  # a padded column never wins
                        i = np.argmax(vals, axis=1)
                        cands.append((sign * times[rows, i], vals[rows, i]))
                cands.append((sign * self.u_max, lr * cnt - dr * self.u_max))
                u_now, v_now = best_u[idx], best_v[idx]
                for u, v in cands:
                    better = v > v_now
                    u_now = np.where(better, u, u_now)
                    v_now = np.where(better, v, v_now)
                best_u[idx], best_v[idx] = u_now, v_now
        return best_u, best_v

    def mle(self):
        return self.best[0]

    def bayes(self):
        """integral u Z / integral Z with piecewise-exact segments between jumps.

        Each exponent is taken whole against m, the draw's largest log Z: with
        it none overflows, as exp(level - m) or exp(-r*s) alone could.  That m
        is the ``best`` value: log Z peaks on a segment at one of its ends, and
        every end value that is not an mle candidate lies below one that is.
        """
        peak = self.best[1]
        sums = np.empty((2, 2, self.size))  # (side, mass or first moment, draw)
        for sign, tiles, side in zip((1.0, -1.0), self.tiles, sums):
            # positive side: Z(u) = exp(level - drift*u); negative side with
            # s = -u: Z = exp(level + drift*s), and the u-weight flips sign
            r = sign * self.drift
            for idx, cnt, edges in tiles:
                i0, i1 = _segment_terms(edges, sign * self.log_ratio, r, peak[idx])
                tile = np.empty((2, idx.size))
                # each run of equal counts sums exactly its count + 1 segments
                cuts = [0, *(np.flatnonzero(np.diff(cnt)) + 1).tolist(), idx.size]
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    c = int(cnt[lo]) + 1
                    i0[lo:hi, :c].sum(axis=1, out=tile[0, lo:hi])
                    i1[lo:hi, :c].sum(axis=1, out=tile[1, lo:hi])
                side[:, idx] = tile
        den = sums[0, 0] + sums[1, 0]
        num = sums[0, 1] - sums[1, 1]
        if np.any((den <= 0.0) | ~np.isfinite(den)):
            raise NumericalError("jump-limit posterior mass degenerate")
        return num / den


def _segment_terms(edges, log_ratio, r, m):
    """(i0, i1), rows x segments: the exact integrals of exp(level - m - r*s) and
    s * same over the segments between consecutive ``edges`` of each row,
    level = log_ratio * the segment's index and m one value per row.  Each
    exponent is taken whole, and the work runs in place on four arrays of the
    segments' shape."""
    a, b = edges[:, :-1], edges[:, 1:]
    base = np.subtract(log_ratio * np.arange(a.shape[1]), m[:, None])  # level - m
    if abs(r) < 1e-14:
        amp = np.exp(base, out=base)
        return amp * (b - a), amp * 0.5 * (b * b - a * a)
    ea = np.multiply(a, r)
    np.exp(np.subtract(base, ea, out=ea), out=ea)
    eb = np.multiply(b, r)
    np.exp(np.subtract(base, eb, out=eb), out=eb)
    # i1 = (a / r + 1 / r^2) ea - (b / r + 1 / r^2) eb, then i0 = (ea - eb) / r
    q = 1.0 / r ** 2
    i1 = np.divide(a, r, out=base)
    i1 += q
    i1 *= ea
    right = np.divide(b, r)
    right += q
    right *= eb
    i1 -= right
    i0 = np.subtract(ea, eb, out=ea)
    i0 /= r
    return i0, i1


def _mills(z):
    """phi(z) / Phi(z), in log space so that it stays finite for every z."""
    from scipy import special

    return np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - special.log_ndtr(z))


def _null_fisher_bayes(zeta, i3):
    """Numeric posterior mean of Z(u) = exp(u^3 zeta - u^6 i3 / 2), standardized
    via v = u * i3^(1/6)."""
    v = np.linspace(-8.0, 8.0, 1601)
    zeta_std = zeta / math.sqrt(i3)
    out = np.empty(zeta.size)
    chunk = 4096
    for lo in range(0, zeta.size, chunk):
        zs = zeta_std[lo:lo + chunk, None]
        log_z = v[None, :] ** 3 * zs - v[None, :] ** 6 / 2.0
        out[lo:lo + chunk] = _grid_posterior_mean(v, log_z)
    return out / i3 ** (1.0 / 6.0)


def _disc_fisher_mle(zl, zr, il, ir):
    left, right = zl / math.sqrt(il), zr / math.sqrt(ir)
    return np.select([(zl < 0) & (zr < 0), (zl > 0) & (zr > 0), (zl > 0) & (zr < 0)],
                     [left, right, 0.0], np.where(np.abs(zl) > np.abs(zr), left, right))


def _split_gaussian_mean(zl, zr, il, ir):
    """integral u Z / integral Z for the disc-fisher Z.  With v = u sqrt(I) it is two
    truncated Gaussians: N(zl, 1) on v <= 0, of mass exp(zl^2/2) Phi(-zl) / sqrt(il) and
    mean zl - phi(zl)/Phi(-zl), and N(zr, 1) on v > 0, of mass exp(zr^2/2) Phi(zr) / sqrt(ir)
    and mean zr + phi(zr)/Phi(zr) (a common factor sqrt(2 pi) dropped)."""
    from scipy import special

    mean_l = (zl - _mills(-zl)) / math.sqrt(il)
    mean_r = (zr + _mills(zr)) / math.sqrt(ir)
    log_ratio = (0.5 * (zl * zl - zr * zr) + special.log_ndtr(-zl) - special.log_ndtr(zr)
                 + 0.5 * math.log(ir / il))
    return special.expit(log_ratio) * mean_l + special.expit(-log_ratio) * mean_r


def _nonident_bayes(zeta, roots, infos, weights):
    q = np.asarray(weights) * np.asarray(infos) ** -0.5 * np.exp(zeta ** 2 / 2.0)
    q /= q.sum(axis=1, keepdims=True)
    return q @ roots


def sample_limit_batch(limit: RegimeLimit, rng: RngStream, which: str | tuple | list,
                       size: int) -> np.ndarray:
    """size i.i.d. draws from the limit law of one or more estimators.

    ``which`` is "mle", "bayes" or a list or tuple of distinct names.  A name gives a
    1-D array; a sequence gives one row per name.  ``limit.draw`` draws the limit
    process once per chunk and only the requested functionals run on it, so row k is
    bit-identical to the call with ``which[k]``.
    """
    names = tuple(which) if isinstance(which, (list, tuple)) else (which,)
    if not names or len(set(names)) < len(names) or not set(names) <= {"mle", "bayes"}:
        raise CapabilityError("which must be 'mle', 'bayes' or a sequence of distinct "
                              f"ones, got {which!r}")
    if size < 1:
        raise DomainError("size must be >= 1")
    out = np.empty((len(names), size))
    for draws, functionals in limit.draw(rng.generator(), size):
        for row, name in zip(out, names):
            row[draws] = functionals[name]()
    return out if isinstance(which, (list, tuple)) else out[0]
