"""Monte Carlo harness: replicated scenarios, limit-law comparison, rate slopes.

Replicates are the unit of parallelism.  ``run_scenario`` turns a scenario
into one job list (one limit-draw job, then one job per (n-index, replicate)
pair), lets forked workers claim its jobs one at a time, and puts the
results back in index order.  Each (n-index, replicate) pair draws its sample
from its own RNG stream and the limit draws of every estimator come from one
shared stream, so the table and the summary are reproducible bit-for-bit for
any worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import multiprocessing.sharedctypes  # noqa: F401  the first Value loads these two lazily,
import multiprocessing.synchronize  # noqa: F401  about 5 ms, on the clock of a run
import os
import pickle
import select
import signal
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import analysis, estimators, limits
from .errors import ConfigurationError, DomainError, PoislimError
from .intensity import CATALOG, ChangePointModel, IntensityModel, TrueIntensity, make_model
from .likelihood import LikelihoodEvaluator
from .limits import ks_two_sample
from .simulate import RngStream, simulate_sample

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

_WINDOW_KEYS = {"mode", "mu_star"}
# the keys each true_intensity kind reads besides "kind"
_TRUE_KEYS = {"constant_shift": {"h"}, "changepoint": {"h1", "h2"}}


def _integer(value, what: str) -> int:
    """``value`` as an int; a non-integral number such as 20.7 fails, not truncates,
    and so does a bool."""
    try:
        out = int(value)
        exact = not isinstance(value, bool) and (
            isinstance(value, str) or out == value)  # int == float compares exactly
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return out


def check_seed(value) -> int:
    """``value`` as a master seed: an integer in [0, 2^64), the range of a Philox key word."""
    seed = _integer(value, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ConfigurationError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _check_number(value, what: str) -> None:
    """Fail unless ``value`` is a finite number; a numeric string or a bool fails too."""
    try:
        finite = not isinstance(value, (str, bool)) and math.isfinite(float(value))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")


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
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "limit_draws", _integer(self.limit_draws, "limit_draws"))
        # checked before they are read as floats, which the summary records
        _check_number(self.theta0, "theta0")
        object.__setattr__(self, "theta0", float(self.theta0))
        if self.theta_interval is not None:
            if not isinstance(self.theta_interval, (list, tuple)) or len(self.theta_interval) != 2:
                raise ConfigurationError("theta_interval must be two numbers [alpha, beta], "
                                         f"got {self.theta_interval!r}")
            for v in self.theta_interval:
                _check_number(v, "theta_interval")
            object.__setattr__(self, "theta_interval", tuple(float(v) for v in self.theta_interval))
        if not isinstance(self.long_record, bool):
            raise ConfigurationError(f"long_record must be true or false, got {self.long_record!r}")
        _check_number(self.atom_epsilon, "atom_epsilon")
        if not self.atom_epsilon > 0:
            raise ConfigurationError(f"atom_epsilon must be positive, got {self.atom_epsilon!r}")
        if self.horizon is not None:
            _check_number(self.horizon, "horizon")
        if not (isinstance(self.estimator, dict) and isinstance(self.window, dict)
                and isinstance(self.true_intensity, (dict, type(None)))):
            raise ConfigurationError("estimator, window and true_intensity must be JSON objects")
        if self.replicates < 1:
            raise ConfigurationError("replicates must be >= 1")
        if self.limit_draws < 1:
            raise ConfigurationError("limit_draws must be >= 1")
        # one stream per (n, replicate), all below the limit-draw stream
        if len(ns) * self.replicates > _LIMIT_STREAM_BASE:
            raise ConfigurationError(f"len(n) * replicates must be at most {_LIMIT_STREAM_BASE}")
        family = CATALOG.get(self.model)  # an unknown model fails in build_model
        if self.regime is not None:
            if self.regime not in limits.REGIMES:
                raise ConfigurationError(f"unknown regime {self.regime!r}")
            why = family and limits.REGIMES[self.regime].misfit(family, self.theta0)
            if why:
                raise ConfigurationError(f"model {self.model} does not fit its regime: {why}")
        unknown = set(self.estimator) - {f.name for f in fields(estimators.EstimatorSettings)}
        if unknown:
            raise ConfigurationError(f"unknown estimator keys: {sorted(unknown)}")
        self.build_settings()
        unknown = set(self.window) - _WINDOW_KEYS
        if unknown:
            raise ConfigurationError(f"unknown window keys: {sorted(unknown)}")
        mode = self.window.get("mode", "none")
        if mode not in ("none", "optimal", "sufficient"):
            raise ConfigurationError(f"unknown window mode {mode!r}")
        if self.window.get("mu_star") is not None:
            _check_number(self.window["mu_star"], "window.mu_star")
        elif mode == "optimal":
            raise ConfigurationError("window mode 'optimal' needs mu_star")
        # windows that every replicate would fail to choose: the first floor(sqrt(n))
        # trajectories choose one and the rest estimate
        if mode != "none" and (self.long_record or min(ns) < 9):
            got = "one long_record" if self.long_record else f"n = {min(ns)}"
            raise ConfigurationError(f"window mode {mode!r} needs n >= 9 trajectories, got {got}")
        if mode == "optimal" and family and family.smoothness_order < 1:
            raise ConfigurationError(f"window mode 'optimal' needs a theta-derivative; "
                                     f"{self.model} has smoothness_order {family.smoothness_order}")
        if self.true_intensity is not None:
            kind = self.true_intensity.get("kind")
            if not isinstance(kind, str) or kind not in _TRUE_KEYS:
                raise ConfigurationError(f"unknown true_intensity kind {kind!r}")
            unknown = set(self.true_intensity) - _TRUE_KEYS[kind] - {"kind"}
            if unknown:
                raise ConfigurationError(f"true_intensity kind {kind!r} reads only "
                                         f"{sorted(_TRUE_KEYS[kind])}, got {sorted(unknown)}")
            if kind == "constant_shift" and "h" not in self.true_intensity:
                raise ConfigurationError("true_intensity kind 'constant_shift' needs h")
            for key in sorted(set(self.true_intensity) - {"kind"}):
                _check_number(self.true_intensity[key], f"true_intensity.{key}")

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        unknown = set(doc) - {f.name for f in fields(Scenario)}
        if unknown:
            raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"model", "theta0", "n", "replicates", "seed"} - set(doc)
        if missing:
            raise ConfigurationError(f"missing scenario keys: {sorted(missing)}")
        return Scenario(**dict(doc, model=str(doc["model"])))

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
        if spec["kind"] == "constant_shift":
            h = float(spec["h"])
            return TrueIntensity.contaminated(
                model, self.theta0, lambda t: np.full_like(t, h), h_max=h,
                description=f"{self.model}@{self.theta0:g}+{h:g}")
        if not isinstance(model, ChangePointModel):
            raise ConfigurationError("changepoint contamination needs the CHANGEPOINT model")
        return TrueIntensity.changepoint(
            model.g1, model.g2, float(spec.get("h1", 0.0)), float(spec.get("h2", 0.0)),
            self.theta0, model.horizon)

    def build_settings(self) -> estimators.EstimatorSettings:
        cfg = dict(self.estimator)
        for key in ("grid_size", "zoom_rounds"):
            if key in cfg:
                cfg[key] = _integer(cfg[key], f"estimator.{key}")
        return estimators.EstimatorSettings(**cfg)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


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
    return n_index * m + replicate


def _long_record(scenario: Scenario, model: IntensityModel, true_int: TrueIntensity,
                 n: int) -> tuple[TrueIntensity, IntensityModel]:
    """True intensity and model of one record on [0, n*tau].

    Raises ConfigurationError where the family's formula leaves its bound past tau
    or fixes tau.
    """
    length = model.horizon * n
    where = f"long_record: {scenario.model} on one record of n*tau = {length:g}"
    try:
        est_model = make_model(scenario.model, params=scenario.params,
                               theta_interval=scenario.theta_interval, horizon=length)
        long_true = TrueIntensity(
            fn=true_int.fn, horizon=length, lambda_max=true_int.lambda_max,
            breakpoints=true_int.breakpoints, description=true_int.description)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    if est_model.horizon != length:
        raise ConfigurationError(f"{where}: the family fixes its horizon at {est_model.horizon:g}")
    return long_true, est_model


def _estimate_row(scenario: Scenario, model, true_int, settings, n, n_index, r):
    """The table row of replicate ``r`` at one n value.

    A pure function of the scenario: replicate r only reads its own stream.
    """
    mode = scenario.window.get("mode", "none")
    base = RngStream(scenario.seed, _replicate_stream_base(n_index, r, scenario.replicates))
    est_model, size = model, n
    if scenario.long_record:
        # one record on [0, n*tau], a size-1 sample of the replicate's stream
        true_int, est_model = _long_record(scenario, model, true_int, n)
        size = 1
    sample = simulate_sample(true_int, size, base)
    row = {"n": n, "replicate": r, "stream_base": base.stream_index,
           "events": sample.total_events(), "status": "ok"}
    # one window and one evaluator per replicate, so the estimators share its
    # breakpoint values; an error in building them fails every estimator
    window, est_sample, failed = None, sample, None
    try:
        if mode != "none":
            window, est_sample = estimators.two_stage_window(
                est_model, sample, settings, mode, scenario.window.get("mu_star"))
        ev = LikelihoodEvaluator(est_model, est_sample, window)
    except PoislimError as exc:
        failed = exc
    errors = []
    for which in settings.estimators:
        try:
            if failed is not None:
                raise failed
            # through the module attribute, which perfbench/tracer.py wraps
            est = getattr(estimators, which)(est_model, est_sample, settings,
                                             window=window, evaluator=ev)
            row[which] = est.value
        except PoislimError as exc:
            row[which] = float("nan")
            errors.append(f"{which}-error: {type(exc).__name__}")
    if errors:
        # '; ' not ',': the status is one CSV field
        row["status"] = "; ".join(errors)
    return row


def _run_job(job, context):
    """One job: "limits" draws the limit laws, (n_index, r) is one row."""
    scenario, model, true_int, settings, limit = context
    if job == "limits":
        # one call draws each limit process once and gives one row per
        # estimator; all draws stay in it, because the normal sampler consumes
        # a variable number of Philox outputs, so a split would change them
        stream = RngStream(scenario.seed, _LIMIT_STREAM_BASE)
        return limits.sample_limit_batch(limit, stream, settings.estimators,
                                         scenario.limit_draws)
    n_index, r = job
    return _estimate_row(scenario, model, true_int, settings, scenario.n[n_index], n_index, r)


def _claim_jobs(jobs, context, counter, fd, cpu):
    """Body of a forked worker: run jobs by index until none is left, then write
    ``{index: result or exception}`` to ``fd`` in one pickle.  Never returns."""
    code = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        out = {}
        while True:
            with counter.get_lock():
                index = counter.value
                counter.value = index + 1
            if index >= len(jobs):
                break
            try:
                out[index] = _run_job(jobs[index], context)
            except Exception as exc:
                out[index] = exc
                with counter.get_lock():  # no worker claims another job
                    counter.value = len(jobs)
                break
        with open(fd, "wb") as fh:
            pickle.dump(out, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run_jobs(jobs, context, workers):
    """``{job: result}`` of every job, from min(workers, len(jobs)) processes.

    One worker runs the jobs in this process.  More are forked once, after the
    context is built, and each claims the next job index from a shared counter.
    When the workers are at least as many as this process's CPUs, child k pins
    itself to the k-th of them: the kernel otherwise leaves short runs of two
    children on one CPU.  A job's exception is raised as one worker would raise
    it: the first in job order, after which no job is claimed.  A worker that
    dies without a result stops the others.  Every child is reaped on return.
    """
    size = min(workers, len(jobs))
    if size <= 1:
        return {job: _run_job(job, context) for job in jobs}
    # a "fork" lock needs no resource-tracker process, whatever the default start method
    counter = multiprocessing.get_context("fork").Value("q", 0)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    pin = bool(cpus) and size >= len(cpus)
    pending = {}  # read end -> (worker, pid, chunks)
    poller = select.poll()
    results = {}
    try:
        for k in range(size):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(rfd)
                _claim_jobs(jobs, context, counter, wfd, cpus[k % len(cpus)] if pin else None)
            os.close(wfd)
            pending[rfd] = (k, pid, [])
            poller.register(rfd, select.POLLIN)
        while pending:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    pending[fd][2].append(chunk)
                    continue
                k, pid, chunks = pending[fd]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pending[fd]
                poller.unregister(fd)
                os.close(fd)
                if code:
                    why = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise PoislimError(f"worker {k} (pid {pid}) ended without a result: {why}")
                results.update(pickle.loads(b"".join(chunks)))
    finally:
        for fd, (_, pid, _) in pending.items():  # after a failure: stop the others
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    for index in sorted(results):
        if isinstance(results[index], Exception):
            raise results[index]
    return {jobs[index]: result for index, result in results.items()}


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

    The work is one job list: first one limit-draw job (when the scenario
    has a regime; it is the longest job), then one job per (n_index,
    replicate), largest n first.  The limit-draw job draws each limit process
    once from stream 2^52 and applies every estimator's functional to it
    (``limits.sample_limit_batch`` with ``settings.estimators``).  With
    ``workers`` > 1, min(workers, len(jobs)) processes forked once from this
    one, context and all, claim the jobs by index (``_run_jobs``); with one
    worker the jobs run in this process.  Results are put back by index, rows in
    (n_index, replicate) order and draws by estimator.  Every replicate owns
    one stream and the limit draws own another, so the report is identical
    for every worker count.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    settings = scenario.build_settings()
    mu_star = scenario.window.get("mu_star")
    if scenario.window.get("mode") == "optimal" and not 0.0 < mu_star < model.horizon:
        raise ConfigurationError(f"window.mu_star {mu_star} outside (0, {model.horizon:g})")
    if scenario.long_record:
        for n in scenario.n:
            _long_record(scenario, model, true_int, n)

    limit = None
    target = float(scenario.theta0)
    if scenario.regime is not None:
        limit = limits.limit_params(scenario.regime, model, scenario.theta0,
                                    true_intensity=true_int, prior=settings.prior)
        target = limit.target(target)

    draw_jobs = ["limits"] if limit is not None else []
    by_size = sorted(range(len(scenario.n)), key=lambda k: -scenario.n[k])
    jobs = draw_jobs + [(k, r) for k in by_size for r in range(scenario.replicates)]
    results = _run_jobs(jobs, (scenario, model, true_int, settings, limit), workers)
    draws = dict(zip(settings.estimators, results["limits"])) if draw_jobs else {}

    all_rows = []
    rate_exp = limit.rate_exponent if limit is not None else 0.5
    for k, n in enumerate(scenario.n):
        for r in range(scenario.replicates):
            row = results[(k, r)]
            for which in settings.estimators:
                est = row[which]
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
                            "rate_exponent": limit.rate_exponent, **asdict(limit)}
    est_summary = {}
    for which in settings.estimators:
        per_n = {}
        mses = []
        for n in scenario.n:
            vals = np.array([row[which] for row in all_rows
                             if row["n"] == n and np.isfinite(row[which])])
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
                entry.update(limit.compare(vals, n, target, draws[which]))
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
    """Mark (x, h1, h2) cells where the KL minimizer stays at theta0, within
    ``tol_cells`` cells of the theta grid.

    h grids are in units of g1.  The scan recomputes theta* through the
    generic KL machinery; the closed-form predicate is attached for
    comparison, not used in the scan.  A tolerance that reaches an edge of
    Theta from theta0 raises ConfigurationError: every cell would pass.
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
        iv = model.theta_interval
        tol = tol_cells * iv.width / (grid_size - 1)
        if tol >= min(theta0 - iv.alpha, iv.beta - theta0):
            raise ConfigurationError(
                f"the tolerance of {tol_cells:g} cells of a {grid_size}-point grid, {tol:.6g}, "
                f"reaches an edge of Theta ({iv.alpha:g}, {iv.beta:g}) from theta0 = {theta0:g}, "
                "so every cell would count as consistent")
        for i1, h1 in enumerate(h1_grid):
            for i2, h2 in enumerate(h2_grid):
                true_int = TrueIntensity.changepoint(g1, x * g1, h1 * g1, h2 * g1,
                                                     theta0, horizon)
                ts = analysis.theta_star(true_int, model, grid_size=grid_size)
                kl_ok[ix, i1, i2] = abs(ts - theta0) <= tol
                predicted[ix, i1, i2] = (h1 < h1_max) and (h2 > h2_min)
    return RegionScanResult(x_grid=x_grid, h1_grid=h1_grid, h2_grid=h2_grid,
                            kl_consistent=kl_ok, predicted=predicted)
