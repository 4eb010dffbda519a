"""Limit-law parameters and samplers for each estimation regime.

Each regime's sampler draws from the weak limit of the normalized estimation
error; the experiments harness compares them against Monte Carlo errors.
Samplers are pure functions of an RngStream and vectorize over the draw
count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import special

from . import analysis
from .errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    NumericalError,
    PreconditionError,
)
from .intensity import CuspModel, IntensityModel, JumpShiftModel
from .simulate import RngStream

__all__ = [
    "REGIMES",
    "RegimeLimit",
    "CuspParams",
    "limit_params",
    "sample_limit",
    "sample_limit_batch",
    "simulate_fbm",
]

REGIMES = (
    "regular", "misspecified", "nonidentifiable", "null-fisher",
    "disc-fisher", "boundary", "cusp", "jump",
)


@dataclass(frozen=True)
class CuspParams:
    kappa: float
    hurst: float
    gamma_sq: float
    grid_halfwidth: float = 20.0
    grid_points: int = 2001

    def __post_init__(self):
        if not (0.0 < self.kappa < 0.5):
            raise ConfigurationError(f"kappa must lie in (0, 1/2), got {self.kappa}")
        if abs(self.hurst - (self.kappa + 0.5)) > 1e-12:
            raise ConfigurationError("hurst must equal kappa + 1/2")
        if not self.gamma_sq > 0:
            raise ConfigurationError("gamma_sq must be positive")
        if self.grid_points > 4001 or self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ConfigurationError("grid_points must be odd and in [3, 4001]")

    def limit(self) -> "RegimeLimit":
        return RegimeLimit("cusp", 1.0 / (2.0 * self.hurst), asdict(self))


@dataclass(frozen=True)
class RegimeLimit:
    """Regime tag, error-normalization exponent, and sampler parameters."""

    regime: str
    rate_exponent: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise DomainError(f"unknown regime {self.regime!r}; known: {REGIMES}")
        if not (0.0 < self.rate_exponent <= 1.0):
            raise ConfigurationError(
                f"rate_exponent must lie in (0, 1], got {self.rate_exponent}"
            )


def cusp_gamma_sq(a: float, lam0: float, kappa: float) -> float:
    """4 a^2 sin^2(2 pi kappa) B(1+kappa, 1+kappa) / (lam0 cos(pi kappa))."""
    return (4.0 * a ** 2 * math.sin(2.0 * math.pi * kappa) ** 2
            * special.beta(1.0 + kappa, 1.0 + kappa)
            / (lam0 * math.cos(math.pi * kappa)))


def limit_params(regime: str, model: IntensityModel, theta0: float,
                 true_intensity=None, prior_weights=None) -> RegimeLimit:
    """Compute the limit-law parameters of the given regime at theta0."""
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}; known: {REGIMES}")
    theta0 = float(theta0)

    if regime == "regular":
        info = analysis.fisher_information(model, theta0)
        if info <= 0:
            raise PreconditionError("regular regime needs positive Fisher information")
        return RegimeLimit(regime, 0.5, {"fisher_information": info})

    if regime == "misspecified":
        if true_intensity is None:
            raise PreconditionError("misspecified regime needs the true intensity")
        ma = analysis.misspec_asymptotics(true_intensity, model)
        return RegimeLimit(regime, 0.5, {
            "theta_star": ma.theta_star, "d_star_sq": ma.d_star_sq,
            "i_star": ma.i_star, "d_big_sq": ma.d_big_sq,
        })

    if regime == "nonidentifiable":
        roots_fn = getattr(model, "nonident_roots", None)
        if roots_fn is None:
            raise CapabilityError(f"{model.catalog_id} does not declare coinciding roots")
        cov = analysis.nonident_covariance(model, roots_fn())
        k = len(cov.roots)
        weights = np.ones(k) if prior_weights is None else np.asarray(prior_weights, dtype=float)
        if weights.shape != (k,) or np.any(weights <= 0):
            raise ConfigurationError("prior_weights must be positive, one per root")
        return RegimeLimit(regime, 0.5, {
            "roots": list(cov.roots),
            "informations": list(cov.informations),
            "rho": cov.rho.tolist(),
            "prior_weights": weights.tolist(),
        })

    if regime == "null-fisher":
        i3 = analysis.higher_order_information(model, theta0)
        if i3 <= 0:
            raise PreconditionError("null-Fisher regime needs positive third-order information")
        return RegimeLimit(regime, 1.0 / 6.0, {"i3": i3})

    if regime == "disc-fisher":
        info_l = analysis.fisher_information(model, theta0, side="left")
        info_r = analysis.fisher_information(model, theta0, side="right")

        def integrand(t):
            lam = model.value(theta0, t)
            return (model.dtheta(theta0, t, 1, side="left")
                    * model.dtheta(theta0, t, 1, side="right") / lam)

        cross = analysis.integrate(integrand, 0.0, model.horizon,
                                   breakpoints=model.t_breakpoints(theta0))
        corr = cross / math.sqrt(info_l * info_r)
        return RegimeLimit(regime, 0.5, {
            "info_left": info_l, "info_right": info_r, "corr": corr,
        })

    if regime == "boundary":
        iv = model.theta_interval
        tol = 1e-9 * max(1.0, iv.width)
        if abs(theta0 - iv.alpha) <= tol:
            orientation = 1.0
        elif abs(theta0 - iv.beta) <= tol:
            orientation = -1.0
        else:
            raise PreconditionError(
                f"boundary regime needs theta0 at an endpoint of ({iv.alpha}, {iv.beta})"
            )
        info = analysis.fisher_information(model, theta0)
        if info <= 0:
            raise PreconditionError("boundary regime needs positive Fisher information")
        return RegimeLimit(regime, 0.5, {
            "fisher_information": info, "orientation": orientation,
        })

    if regime == "cusp":
        if not isinstance(model, CuspModel):
            raise CapabilityError("cusp regime is defined for the CUSP family")
        gamma_sq = cusp_gamma_sq(model.a, model.lam0, model.kappa)
        return CuspParams(kappa=model.kappa, hurst=model.hurst, gamma_sq=gamma_sq).limit()

    # jump
    if not isinstance(model, JumpShiftModel):
        raise CapabilityError("jump regime is defined for the JUMP_SHIFT family")
    lam_left, lam_right = model.jump_values()
    return RegimeLimit(regime, 1.0, {
        "lam_left": lam_left, "lam_right": lam_right, "u_halfwidth": 60.0,
    })


# ---------------------------------------------------------------------------
# fractional Brownian motion
# ---------------------------------------------------------------------------

_FBM_CACHE: dict = {}


def _fbm_cholesky(hurst: float, grid: np.ndarray) -> np.ndarray:
    key = (float(hurst), grid.tobytes())
    hit = _FBM_CACHE.get(key)
    if hit is not None:
        return hit
    u = grid[grid != 0.0]
    h2 = 2.0 * hurst
    pw = np.abs(u) ** h2
    # 0.5 (|u_i|^2H + |u_j|^2H - |u_i - u_j|^2H), the |u_i - u_j|^2H term built in place
    dist = np.subtract.outer(u, u)
    np.abs(dist, out=dist)
    dist **= h2
    cov = np.subtract(np.add.outer(pw, pw), dist, out=dist)
    cov *= 0.5
    diag = cov.diagonal().copy()
    jitter = 0.0
    for _ in range(6):
        try:
            chol = np.linalg.cholesky(cov)
            break
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * float(np.max(diag)))
            np.fill_diagonal(cov, diag + jitter)
    else:
        raise NumericalError("fBm covariance failed Cholesky even after jitter")
    if len(_FBM_CACHE) > 8:
        _FBM_CACHE.clear()
    _FBM_CACHE[key] = chol
    return chol


def _fbm_batch(hurst: float, grid: np.ndarray, g: np.random.Generator, size: int) -> np.ndarray:
    """size paths of two-sided fBm on the grid; W(0)=0 exactly."""
    chol = _fbm_cholesky(hurst, grid)
    z = g.standard_normal((chol.shape[0], size))
    w = (chol @ z).T  # (size, nonzero nodes)
    out = np.empty((size, grid.size))
    nz = grid != 0.0
    out[:, nz] = w
    out[:, ~nz] = 0.0
    return out


def simulate_fbm(hurst: float, grid, rng: RngStream) -> np.ndarray:
    """One exact (covariance-factorized) fBm path on the given grid."""
    if not (0.0 < hurst < 1.0):
        raise DomainError(f"hurst must lie in (0, 1), got {hurst}")
    grid = np.asarray(grid, dtype=float)
    if grid.size > 4001:
        raise DomainError("grid_points must be <= 4001 for exact factorization")
    return _fbm_batch(hurst, grid, rng.generator(), 1)[0]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _bivariate_normal(g, corr, size):
    z1 = g.standard_normal(size)
    z2 = corr * z1 + math.sqrt(max(0.0, 1.0 - corr ** 2)) * g.standard_normal(size)
    return z1, z2


def _grid_posterior_mean(u, log_z):
    """Numeric integral u Z / integral Z on a uniform grid (batched rows)."""
    m = np.max(log_z, axis=-1, keepdims=True)
    w = np.exp(log_z - m)
    coeff = analysis._simpson_weights(u.size - 1) * ((u[1] - u[0]) / 3.0)
    den = w @ coeff
    num = w @ (coeff * u)
    return num / den


_JUMP_BLOCK = 1024  # draws per uniform call in the jump sampler; bounds its memory


def _jump_groups(times, starts, counts):
    """[(draw indices, their sorted (k, L) event times)] per distinct count L."""
    order = np.argsort(counts, kind="stable")
    groups = []
    for idx in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        cols = np.arange(counts[idx[0]])
        groups.append((idx, np.sort(times[starts[idx, None] + cols], axis=1)))
    return groups


def _jump_mle(plus, minus, log_ratio, drift, u_max, size):
    """Exact argmax of the two-branch jump limit over realized event points.

    ``plus`` and ``minus`` hold each draw's event times s >= 0 on the
    positive and negative half-lines (u = s and u = -s), grouped as by
    ``_jump_groups``.  Each draw tries its candidates in one fixed order
    (+ counts k, + counts k-1, + tail, then the same on the - side) and keeps
    a candidate only if it is strictly better, so ties resolve the same way
    whatever the grouping.
    """
    best_u, best_v = np.zeros(size), np.zeros(size)
    for sign, groups in ((1.0, plus), (-1.0, minus)):
        # the - side is log_ratio -> -log_ratio, drift -> -drift, u -> -s
        lr, dr = sign * log_ratio, sign * drift
        for idx, times in groups:
            n_events = times.shape[1]
            cands = []
            if n_events:
                ks = np.arange(1, n_events + 1)
                rows = np.arange(idx.size)
                for counts in (ks, ks - 1):
                    vals = lr * counts - dr * times
                    i = np.argmax(vals, axis=1)
                    cands.append((sign * times[rows, i], vals[rows, i]))
            tail = lr * n_events - dr * u_max
            cands.append((np.full(idx.size, sign * u_max), np.full(idx.size, tail)))
            for u, v in cands:
                better = v > best_v[idx]
                best_u[idx[better]] = u[better]
                best_v[idx[better]] = v[better]
    return best_u


def _segment_integrals(edges, levels, r, m):
    """Per-row sums of the exact integrals of exp(level - m - r*s) and s * same
    over the segments between consecutive ``edges``."""
    a, b = edges[:, :-1], edges[:, 1:]
    amp = np.exp(levels - m)
    if abs(r) < 1e-14:
        i0 = amp * (b - a)
        i1 = amp * 0.5 * (b * b - a * a)
    else:
        ea, eb = np.exp(-r * a), np.exp(-r * b)
        i0 = amp * (ea - eb) / r
        i1 = amp * ((a / r + 1.0 / r ** 2) * ea - (b / r + 1.0 / r ** 2) * eb)
    return i0.sum(axis=1), i1.sum(axis=1)


def _jump_bayes(plus, minus, log_ratio, drift, u_max, size):
    """integral u Z / integral Z with piecewise-exact segments between jumps.

    Arguments as for ``_jump_mle``.  Each row sum runs over exactly one
    draw's segments, so it rounds as a 1-D sum over that draw would.
    """
    peak = np.full(size, -np.inf)
    sides = []
    for sign, groups in ((1.0, plus), (-1.0, minus)):
        # positive side: Z(u) = exp(level - drift*u); negative side with
        # s = -u: Z = exp(level + drift*s), and the u-weight flips sign
        segs = []
        for idx, times in groups:
            edges = np.empty((idx.size, times.shape[1] + 2))
            edges[:, 0] = 0.0
            edges[:, 1:-1] = times
            edges[:, -1] = u_max
            levels = sign * log_ratio * np.arange(times.shape[1] + 1)
            near = np.minimum if sign > 0 else np.maximum
            top = np.max(levels - sign * drift * near(edges[:, :-1], edges[:, 1:]), axis=1)
            peak[idx] = np.maximum(peak[idx], top)
            segs.append((idx, edges, levels))
        sides.append((sign * drift, segs))
    den, num = [], []
    for r, segs in sides:
        side_den, side_num = np.empty(size), np.empty(size)
        for idx, edges, levels in segs:
            side_den[idx], side_num[idx] = _segment_integrals(edges, levels, r, peak[idx, None])
        den.append(side_den)
        num.append(side_num)
    den = den[0] + den[1]
    num = num[0] - num[1]
    if np.any((den <= 0.0) | ~np.isfinite(den)):
        raise NumericalError("jump-limit posterior mass degenerate")
    return num / den


def _boundary_inner_integral(zs: np.ndarray) -> np.ndarray:
    """integral_{-z}^{inf} exp(-(u^2 - z^2)/2) du, by quadrature, chunked."""
    width = 40.0
    panels = 2048
    frac = np.linspace(0.0, 1.0, panels + 1)
    coeff = analysis._simpson_weights(panels) * ((width / panels) / 3.0)
    out = np.empty(zs.shape)
    chunk = 2048
    for lo in range(0, zs.size, chunk):
        z = zs[lo:lo + chunk]
        nodes = (-z)[:, None] + width * frac[None, :]
        vals = np.exp(0.5 * (z[:, None] ** 2 - nodes ** 2))
        out[lo:lo + chunk] = vals @ coeff
    return out


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
    left = zl / math.sqrt(il)
    right = zr / math.sqrt(ir)
    return np.where(
        (zl < 0) & (zr < 0), left,
        np.where(
            (zl > 0) & (zr > 0), right,
            np.where(
                (zl > 0) & (zr < 0), 0.0,
                np.where(np.abs(zl) > np.abs(zr), left, right),
            ),
        ),
    )


def _disc_fisher_bayes(zl, zr, il, ir):
    hw = 20.0 / math.sqrt(min(il, ir))
    u = np.linspace(-hw, hw, 2001)
    neg = u <= 0
    out = np.empty(zl.size)
    chunk = 2048
    for lo in range(0, zl.size, chunk):
        a = zl[lo:lo + chunk, None]
        b = zr[lo:lo + chunk, None]
        log_z = np.where(
            neg[None, :],
            u[None, :] * a * math.sqrt(il) - u[None, :] ** 2 * il / 2.0,
            u[None, :] * b * math.sqrt(ir) - u[None, :] ** 2 * ir / 2.0,
        )
        out[lo:lo + chunk] = _grid_posterior_mean(u, log_z)
    return out


def _nonident_bayes(zeta, roots, infos, weights):
    q = weights * infos ** -0.5 * np.exp(zeta ** 2 / 2.0)
    q /= q.sum(axis=1, keepdims=True)
    return q @ roots


def sample_limit_batch(limit: RegimeLimit, rng: RngStream, which: str | tuple | list,
                       size: int) -> np.ndarray:
    """size i.i.d. draws from the limit law of one or more estimators.

    ``which`` is "mle", "bayes" or a list or tuple of distinct names.  A name
    gives a 1-D array; a sequence gives one row per name.  The MLE and Bayes
    limits are two functionals (argmax, posterior mean) of one limit
    likelihood-ratio process, so a sequence draws that process once and
    applies each functional to it.  Both estimators consume the same variates
    of the stream, so row k is bit-identical to the call with ``which[k]``.
    """
    names = tuple(which) if isinstance(which, (list, tuple)) else (which,)
    if not names or len(set(names)) < len(names) or not set(names) <= {"mle", "bayes"}:
        raise CapabilityError("which must be 'mle', 'bayes' or a sequence of distinct "
                              f"ones, got {which!r}")
    if size < 1:
        raise DomainError("size must be >= 1")
    g = rng.generator()
    p = limit.params
    regime = limit.regime
    out = np.empty((len(names), size))
    whole = slice(None)

    def emit(draws, **functionals):
        # runs the requested functionals on variates already drawn
        for row, name in zip(out, names):
            row[draws] = functionals[name]()

    if regime in ("regular", "misspecified"):
        var = 1.0 / p["fisher_information"] if regime == "regular" else p["d_big_sq"]
        x = g.normal(0.0, math.sqrt(var), size)
        emit(whole, mle=lambda: x, bayes=lambda: x)

    elif regime == "null-fisher":
        i3 = p["i3"]
        zeta = g.normal(0.0, math.sqrt(i3), size)
        emit(whole, mle=lambda: np.cbrt(zeta / i3), bayes=lambda: _null_fisher_bayes(zeta, i3))

    elif regime == "disc-fisher":
        il, ir = p["info_left"], p["info_right"]
        zl, zr = _bivariate_normal(g, p["corr"], size)
        emit(whole, mle=lambda: _disc_fisher_mle(zl, zr, il, ir),
             bayes=lambda: _disc_fisher_bayes(zl, zr, il, ir))

    elif regime == "boundary":
        info = p["fisher_information"]
        orient = p.get("orientation", 1.0)
        zs = g.standard_normal(size)
        # sqrt(info) * zs is bit-identical to g.normal(0, sqrt(info), size)
        zeta = math.sqrt(info) * zs
        emit(whole, mle=lambda: orient * np.where(zeta >= 0.0, zeta / info, 0.0),
             bayes=lambda: orient * (zs + 1.0 / _boundary_inner_integral(zs)) / math.sqrt(info))

    elif regime == "jump":
        lam_left, lam_right = p["lam_left"], p["lam_right"]
        u_max = p.get("u_halfwidth", 60.0)
        log_ratio = math.log(lam_right / lam_left)
        drift = lam_right - lam_left
        n_plus = g.poisson(lam_left * u_max, size)
        n_minus = g.poisson(lam_right * u_max, size)
        for lo in range(0, size, _JUMP_BLOCK):
            # one uniform call per block with the counts in the order
            # p0, m0, p1, m1, ...: a Generator yields the same doubles as one
            # call per draw and side, so the draws do not depend on the block
            # size and are bit-identical to drawing one limit value at a time
            counts = np.stack([n_plus[lo:lo + _JUMP_BLOCK], n_minus[lo:lo + _JUMP_BLOCK]], axis=1)
            times = g.uniform(0.0, u_max, counts.sum())
            starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
            paths = (_jump_groups(times, starts[:, 0], counts[:, 0]),
                     _jump_groups(times, starts[:, 1], counts[:, 1]),
                     log_ratio, drift, u_max, counts.shape[0])
            emit(slice(lo, lo + _JUMP_BLOCK), mle=lambda: _jump_mle(*paths),
                 bayes=lambda: _jump_bayes(*paths))

    elif regime == "cusp":
        hurst, gamma_sq = p["hurst"], p["gamma_sq"]
        gamma = math.sqrt(gamma_sq)
        u = np.linspace(-p["grid_halfwidth"], p["grid_halfwidth"], p["grid_points"])
        pen = np.abs(u) ** (2.0 * hurst) * gamma_sq / 2.0
        chunk = 2048
        for lo in range(0, size, chunk):
            log_z = _fbm_batch(hurst, u, g, min(chunk, size - lo))
            log_z *= gamma
            log_z -= pen
            emit(slice(lo, lo + chunk), mle=lambda: u[np.argmax(log_z, axis=1)],
                 bayes=lambda: _grid_posterior_mean(u, log_z))

    else:  # nonidentifiable
        roots = np.asarray(p["roots"], dtype=float)
        infos = np.asarray(p["informations"], dtype=float)
        rho = np.asarray(p["rho"], dtype=float)
        weights = np.asarray(p.get("prior_weights", np.ones(roots.size)), dtype=float)
        jitter = 1e-12 * np.eye(roots.size)
        try:
            chol = np.linalg.cholesky(rho + jitter)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("root-correlation matrix failed Cholesky") from exc
        zeta = g.standard_normal((size, roots.size)) @ chol.T
        emit(whole, mle=lambda: roots[np.argmax(np.abs(zeta), axis=1)],
             bayes=lambda: _nonident_bayes(zeta, roots, infos, weights))

    return out if isinstance(which, (list, tuple)) else out[0]


def sample_limit(limit: RegimeLimit, rng: RngStream, which: str) -> float:
    """One draw of the limit variable."""
    return float(sample_limit_batch(limit, rng, which, 1)[0])
