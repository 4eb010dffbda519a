"""Monte Carlo harness: replicated scenarios, limit-law comparison, rate slopes.

Replicates are the unit of parallelism.  ``run_scenario`` turns a scenario
into one job list (a limit-draw job per estimator, then one job per
(n-index, replicate) pair), lets a process pool work through it, and puts
the results back in index order.  Each (n-index, replicate) pair owns a
disjoint block of RNG stream indices and each estimator's limit draws own one
stream, so the table and the summary are reproducible bit-for-bit for any
worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis, estimators, limits
from .errors import ConfigurationError, DomainError, PoislimError
from .intensity import ChangePointModel, IntensityModel, TrueIntensity, make_model
from .simulate import STREAM_STRIDE, RngStream, Sample, simulate_sample

__all__ = [
    "Scenario",
    "ExperimentReport",
    "RegionScanResult",
    "run_scenario",
    "ks_two_sample",
    "rate_regression",
    "region_scan",
]

_LIMIT_STREAM_BASE = 1 << 52


# ---------------------------------------------------------------------------
# scenario description
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "model", "params", "theta0", "theta_interval", "horizon", "true_intensity",
    "regime", "n", "replicates", "seed", "estimator", "window", "atom_epsilon",
    "limit_draws", "long_record",
}
_ESTIMATOR_KEYS = {
    "grid_size", "refine", "prior", "bayes_panels", "localize", "zoom_rounds",
    "estimators",
}
_WINDOW_KEYS = {"mode", "mu_star"}
_TRUE_KEYS = {"kind", "h", "h1", "h2"}


def _integer(value, what: str) -> int:
    """``value`` as an int; a non-integral number such as 20.7 fails, not truncates."""
    try:
        out = int(value)
        exact = out == float(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return out


@dataclass(frozen=True)
class Scenario:
    """One archivable experiment description."""

    model: str
    theta0: float
    n: tuple
    replicates: int
    seed: int
    params: dict = field(default_factory=dict)
    theta_interval: tuple | None = None
    horizon: float | None = None
    true_intensity: dict | None = None
    regime: str | None = None
    estimator: dict = field(default_factory=dict)
    window: dict = field(default_factory=lambda: {"mode": "none"})
    atom_epsilon: float = 0.05
    limit_draws: int = 100_000
    long_record: bool = False

    def __post_init__(self):
        ns = self.n if isinstance(self.n, (list, tuple)) else (self.n,)
        ns = tuple(_integer(v, "every n") for v in ns)
        if not ns or any(v < 1 for v in ns):
            raise ConfigurationError("n must list at least one value, each >= 1")
        object.__setattr__(self, "n", ns)
        object.__setattr__(self, "replicates", _integer(self.replicates, "replicates"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        # each (n, replicate) block holds STREAM_STRIDE streams below the limit-draw streams
        if not self.long_record and max(ns) > STREAM_STRIDE:
            raise ConfigurationError(f"n must be at most {STREAM_STRIDE} "
                                     "(the streams of one replicate), unless long_record is set")
        if len(ns) * self.replicates > _LIMIT_STREAM_BASE // STREAM_STRIDE:
            raise ConfigurationError("len(n) * replicates must be at most "
                                     f"{_LIMIT_STREAM_BASE // STREAM_STRIDE}")
        if self.regime is not None and self.regime not in limits.REGIMES:
            raise ConfigurationError(f"unknown regime {self.regime!r}")
        unknown = set(self.estimator) - _ESTIMATOR_KEYS
        if unknown:
            raise ConfigurationError(f"unknown estimator keys: {sorted(unknown)}")
        unknown = set(self.window) - _WINDOW_KEYS
        if unknown:
            raise ConfigurationError(f"unknown window keys: {sorted(unknown)}")
        if self.window.get("mode", "none") not in ("none", "optimal", "sufficient"):
            raise ConfigurationError(f"unknown window mode {self.window.get('mode')!r}")
        if self.window.get("mode") == "optimal" and self.window.get("mu_star") is None:
            raise ConfigurationError("window mode 'optimal' needs mu_star")
        if self.true_intensity is not None:
            unknown = set(self.true_intensity) - _TRUE_KEYS
            if unknown:
                raise ConfigurationError(f"unknown true_intensity keys: {sorted(unknown)}")

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        unknown = set(doc) - _SCENARIO_KEYS
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"model", "theta0", "n", "replicates", "seed"} - set(doc)
        if missing:
            raise ConfigurationError(f"missing scenario keys: {sorted(missing)}")
        doc = dict(doc)
        try:
            doc["model"] = str(doc["model"])
            doc["theta0"] = float(doc["theta0"])
            if doc.get("theta_interval") is not None:
                doc["theta_interval"] = tuple(float(v) for v in doc["theta_interval"])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad scenario value: {exc}") from None
        return Scenario(**doc)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["n"] = list(self.n)
        if self.theta_interval is not None:
            out["theta_interval"] = list(self.theta_interval)
        return out

    # -- builders ---------------------------------------------------------

    def build_model(self) -> IntensityModel:
        return make_model(self.model, params=self.params,
                          theta_interval=self.theta_interval, horizon=self.horizon)

    def build_true_intensity(self, model: IntensityModel) -> TrueIntensity:
        spec = self.true_intensity
        if spec is None:
            return TrueIntensity.from_model(model, self.theta0)
        kind = spec.get("kind")
        if kind == "constant_shift":
            h = float(spec["h"])
            return TrueIntensity.contaminated(
                model, self.theta0, lambda t: np.full_like(t, h), h_max=h,
                description=f"{self.model}@{self.theta0:g}+{h:g}")
        if kind == "changepoint":
            if not isinstance(model, ChangePointModel):
                raise ConfigurationError("changepoint contamination needs the CHANGEPOINT model")
            return TrueIntensity.changepoint(
                model.g1, model.g2, float(spec.get("h1", 0.0)), float(spec.get("h2", 0.0)),
                self.theta0, model.horizon)
        raise ConfigurationError(f"unknown true_intensity kind {kind!r}")

    def build_settings(self) -> estimators.EstimatorSettings:
        cfg = dict(self.estimator)
        if "estimators" in cfg:
            cfg["estimators"] = tuple(cfg["estimators"])
        if isinstance(cfg.get("prior"), (list, tuple)) and len(cfg["prior"]) == 2:
            cfg["prior"] = (np.asarray(cfg["prior"][0], dtype=float),
                            np.asarray(cfg["prior"][1], dtype=float))
        return estimators.EstimatorSettings(**cfg)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


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


def rate_regression(ns, mses) -> tuple[float, float]:
    """OLS slope (and its standard error) of log(mse) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    mses = np.asarray(mses, dtype=float)
    if np.unique(ns).size < 3:
        raise DomainError("rate regression needs >= 3 distinct n values")
    if np.any(mses <= 0):
        raise DomainError("rate regression needs positive MSE values")
    x = np.log(ns)
    y = np.log(mses)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - intercept - slope * x
    dof = max(x.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return slope, stderr


# ---------------------------------------------------------------------------
# replicate execution
# ---------------------------------------------------------------------------


def _replicate_stream_base(n_index: int, replicate: int, m: int) -> int:
    return (n_index * m + replicate) * STREAM_STRIDE


def _simulate_for(scenario: Scenario, true_int: TrueIntensity, model: IntensityModel,
                  n: int, base: RngStream) -> Sample:
    if scenario.long_record:
        # one record on [0, n*tau]: trajectory 0 of the replicate's stream block
        true_int = TrueIntensity(
            fn=true_int.fn, horizon=model.horizon * n, lambda_max=true_int.lambda_max,
            breakpoints=true_int.breakpoints, description=true_int.description)
        n = 1
    return simulate_sample(true_int, n, base)


def _estimate_row(scenario: Scenario, model, true_int, settings, n, n_index, r):
    """The table row of replicate ``r`` at one n value.

    A pure function of the scenario: replicate r only reads its own stream block.
    """
    mode = scenario.window.get("mode", "none")
    mu_star = scenario.window.get("mu_star")
    base = RngStream(scenario.seed, _replicate_stream_base(n_index, r, scenario.replicates))
    sample = _simulate_for(scenario, true_int, model, n, base)
    est_model = model
    if scenario.long_record:
        est_model = make_model(scenario.model, params=scenario.params,
                               theta_interval=scenario.theta_interval,
                               horizon=model.horizon * n)
    row = {"n": n, "replicate": r, "stream_base": base.stream_index,
           "events": sample.total_events(), "status": "ok"}
    errors = []
    for which in settings.estimators:
        try:
            if mode == "none":
                if which == "mle":
                    est = estimators.mle(est_model, sample, settings)
                else:
                    est = estimators.bayes(est_model, sample, settings)
            elif mode == "optimal":
                est = estimators.two_stage(est_model, sample, settings,
                                           stage="optimal-window", mu_star=mu_star,
                                           final=which)
            else:
                est = estimators.two_stage(est_model, sample, settings,
                                           stage="sufficient-window", final=which)
            row[which] = est.value
        except PoislimError as exc:
            row[which] = float("nan")
            errors.append(f"{which}-error: {type(exc).__name__}")
    if errors:
        # '; ' not ',': the status is one CSV field
        row["status"] = "; ".join(errors)
    return row


# (scenario, model, true intensity, settings, limit), set once in each pool
# worker by _init_worker; the serial path passes its context explicitly
_WORKER_CONTEXT = None


def _init_worker(doc, limit):
    global _WORKER_CONTEXT
    scenario = Scenario.from_dict(doc)
    model = scenario.build_model()
    _WORKER_CONTEXT = (scenario, model, scenario.build_true_intensity(model),
                       scenario.build_settings(), limit)


def _run_job(job, context=None):
    """One job: an estimator name draws its limit law, (n_index, r) is one row."""
    scenario, model, true_int, settings, limit = context or _WORKER_CONTEXT
    if isinstance(job, str):
        # all draws of one estimator stay in one call: the normal sampler
        # consumes a variable number of Philox outputs, so a split would
        # change the draws
        stream = RngStream(scenario.seed, _LIMIT_STREAM_BASE + (0 if job == "mle" else 1))
        return limits.sample_limit_batch(limit, stream, job, scenario.limit_draws)
    n_index, r = job
    return _estimate_row(scenario, model, true_int, settings, scenario.n[n_index], n_index, r)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class ExperimentReport:
    """Per-replicate table plus limit-law comparison summary."""

    scenario: dict
    rows: list
    summary: dict

    def table_columns(self):
        cols = ["n", "replicate", "stream_base", "events"]
        for which in ("mle", "bayes"):
            if any(which in row for row in self.rows):
                cols += [which, f"err_{which}", f"norm_err_{which}"]
        cols.append("status")
        return cols

    def write_table_csv(self, path) -> None:
        cols = self.table_columns()
        with open(path, "w", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")

    def write_summary_json(self, path) -> None:
        def default(obj):
            if isinstance(obj, (np.floating, np.integer)):
                return float(obj)
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            raise TypeError(f"not JSON-serializable: {type(obj)}")

        with open(path, "w") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True, allow_nan=True,
                      default=default)
            fh.write("\n")


def run_scenario(scenario: Scenario, workers: int = 1) -> ExperimentReport:
    """Execute the scenario and assemble the report.

    The work is one job list: first one limit-draw job per estimator (when
    the scenario has a regime; these are the longest jobs), then one job per
    (n_index, replicate), largest n first.  With ``workers`` > 1 a pool of
    min(workers, len(jobs)) processes works through the list, each building
    the scenario context once; with one worker the jobs run in this process.
    Results are put back by index, rows in (n_index, replicate) order and
    draws by estimator.  Every replicate owns a disjoint stream block and
    each estimator's limit draws own one stream, so the report is identical
    for every worker count.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    settings = scenario.build_settings()

    limit = None
    target = float(scenario.theta0)
    if scenario.regime is not None:
        limit = limits.limit_params(scenario.regime, model, scenario.theta0,
                                    true_intensity=true_int)
        if scenario.regime == "misspecified":
            target = limit.params["theta_star"]

    draw_jobs = list(settings.estimators) if limit is not None else []
    by_size = sorted(range(len(scenario.n)), key=lambda k: -scenario.n[k])
    jobs = draw_jobs + [(k, r) for k in by_size for r in range(scenario.replicates)]
    size = min(workers, len(jobs))
    if size > 1:
        with ProcessPoolExecutor(max_workers=size, initializer=_init_worker,
                                 initargs=(scenario.to_dict(), limit)) as pool:
            results = dict(zip(jobs, pool.map(_run_job, jobs)))
    else:
        context = (scenario, model, true_int, settings, limit)
        results = {job: _run_job(job, context) for job in jobs}
    draws = {which: results[which] for which in draw_jobs}

    all_rows = []
    rate_exp = limit.rate_exponent if limit is not None else 0.5
    raw_compare = scenario.regime == "nonidentifiable"
    for k, n in enumerate(scenario.n):
        for r in range(scenario.replicates):
            row = results[(k, r)]
            for which in settings.estimators:
                est = row.get(which, float("nan"))
                err = est - target
                row[f"err_{which}"] = err
                row[f"norm_err_{which}"] = float(n) ** rate_exp * err
            all_rows.append(row)

    summary = {
        "scenario": scenario.to_dict(),
        "target": target,
        "failures": sum(1 for row in all_rows if row["status"] != "ok"),
    }
    if limit is not None:
        summary["limit"] = {"regime": limit.regime,
                            "rate_exponent": limit.rate_exponent, **limit.params}
    est_summary = {}
    for which in settings.estimators:
        per_n = {}
        mses = []
        for n in scenario.n:
            vals = np.array([row[which] for row in all_rows
                             if row["n"] == n and np.isfinite(row.get(which, float("nan")))])
            if vals.size == 0:
                per_n[str(n)] = {"count": 0}
                mses.append(float("nan"))
                continue
            errs = vals - target
            norm = float(n) ** rate_exp * errs
            entry = {
                "count": int(vals.size),
                "mean": float(vals.mean()),
                "variance": float(vals.var(ddof=1)) if vals.size > 1 else 0.0,
                "mse": float(np.mean(errs ** 2)),
                "normalized_mean": float(norm.mean()),
                "normalized_variance": float(norm.var(ddof=1)) if vals.size > 1 else 0.0,
                "atom_frequency": float(np.mean(np.abs(norm) < scenario.atom_epsilon)),
            }
            if limit is not None:
                compare = vals if raw_compare else norm
                entry["ks_statistic"] = ks_two_sample(compare, draws[which])
            per_n[str(n)] = entry
            mses.append(entry["mse"])
        block = {"by_n": per_n}
        finite = [(n, m) for n, m in zip(scenario.n, mses) if math.isfinite(m) and m > 0]
        if len({n for n, _ in finite}) >= 3:
            slope, stderr = rate_regression([n for n, _ in finite], [m for _, m in finite])
            block["rate_slope"] = slope
            block["rate_stderr"] = stderr
        est_summary[which] = block
    summary["estimates"] = est_summary
    return ExperimentReport(scenario=scenario.to_dict(), rows=all_rows, summary=summary)


# ---------------------------------------------------------------------------
# consistency-region scan (change-point contamination)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionScanResult:
    x_grid: tuple
    h1_grid: tuple
    h2_grid: tuple
    kl_consistent: np.ndarray   # (x, h1, h2) -> KL minimizer stays at theta0
    predicted: np.ndarray       # closed-form region predicate

    @property
    def agreement(self) -> float:
        return float(np.mean(self.kl_consistent == self.predicted))


def region_scan(x_grid, h1_grid, h2_grid, theta0: float = 0.5, g1: float = 1.0,
                horizon: float = 1.0, grid_size: int = 20001,
                tol_cells: float = 3.0) -> RegionScanResult:
    """Mark (x, h1, h2) cells where the KL minimizer stays at theta0.

    h grids are in units of g1.  The scan recomputes theta* through the
    generic KL machinery; the closed-form predicate is attached for
    comparison, not used in the scan.
    """
    x_grid = tuple(float(x) for x in x_grid)
    h1_grid = tuple(float(h) for h in h1_grid)
    h2_grid = tuple(float(h) for h in h2_grid)
    if any(x <= 1.0 for x in x_grid):
        raise DomainError("every x must exceed 1")
    shape = (len(x_grid), len(h1_grid), len(h2_grid))
    kl_ok = np.zeros(shape, dtype=bool)
    predicted = np.zeros(shape, dtype=bool)
    for ix, x in enumerate(x_grid):
        model = ChangePointModel(g1=g1, g2=x * g1, horizon=horizon)
        h1_max, h2_min = analysis.consistency_region(x)
        tol = tol_cells * model.theta_interval.width / (grid_size - 1)
        for i1, h1 in enumerate(h1_grid):
            for i2, h2 in enumerate(h2_grid):
                true_int = TrueIntensity.changepoint(g1, x * g1, h1 * g1, h2 * g1,
                                                     theta0, horizon)
                ts = analysis.theta_star(true_int, model, grid_size=grid_size, refine=False)
                kl_ok[ix, i1, i2] = abs(ts - theta0) <= tol
                predicted[ix, i1, i2] = (h1 < h1_max) and (h2 > h2_min)
    return RegionScanResult(x_grid=x_grid, h1_grid=h1_grid, h2_grid=h2_grid,
                            kl_consistent=kl_ok, predicted=predicted)
