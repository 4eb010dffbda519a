import csv
import math
import os
import signal
import time

import numpy as np
import pytest

from poislim import estimators, experiments, limits
from poislim.errors import ConfigurationError, NumericalError, PoislimError
from poislim.experiments import (Scenario, _estimate_row, _replicate_stream_base,
                                 ks_two_sample, run_scenario)
from poislim.limits import _kolmogorov_sf
from poislim.simulate import RngStream, simulate_sample

TINY = {"model": "REGULAR_EXP", "theta0": 0.3, "regime": "regular",
        "n": [20, 40], "replicates": 3, "seed": 1, "limit_draws": 200}


def test_run_scenario_rows_and_summary():
    report = run_scenario(Scenario.from_dict(TINY))
    assert [(row["n"], row["replicate"]) for row in report.rows] == [
        (n, r) for n in (20, 40) for r in range(3)]
    failed = sum(row["status"] != "ok" for row in report.rows)
    assert report.summary["failures"] == failed == 0
    for which in ("mle", "bayes"):
        for n in ("20", "40"):
            entry = report.summary["estimates"][which]["by_n"][n]
            assert entry["count"] == 3
            assert 0.0 <= entry["ks_statistic"] <= 1.0


def test_optimal_window_needs_mu_star():
    with pytest.raises(ConfigurationError, match="mu_star"):
        Scenario.from_dict(dict(TINY, window={"mode": "optimal"}))


def test_status_keeps_every_error():
    scenario = Scenario.from_dict(dict(TINY, n=[20], replicates=1,
                                       window={"mode": "optimal", "mu_star": 0.5}))
    # a window that skipped the construction-time check: both estimators fail
    object.__setattr__(scenario, "window", {"mode": "optimal"})
    model = scenario.build_model()
    row = _estimate_row(scenario, model, scenario.build_true_intensity(model),
                        scenario.build_settings(), 20, 0, 0)
    assert row["status"] == "mle-error: ConfigurationError; bayes-error: ConfigurationError"


def test_failed_rows_stay_one_csv_field(tmp_path):
    # with c0 = c1 = 0 the model intensity is 0 before s* - theta at every theta,
    # where the shifted truth has events: log L = -inf over Theta, so both
    # estimators fail on every replicate
    doc = {"model": "JUMP_SHIFT", "theta0": 0.5, "params": {"c0": 0, "c1": 0},
           "true_intensity": {"kind": "constant_shift", "h": 5},
           "n": [4], "replicates": 2, "seed": 3}
    report = run_scenario(Scenario.from_dict(doc))
    assert report.summary["failures"] == 2
    path = tmp_path / "table.csv"
    report.write_table_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert None not in row  # no status overflowed into extra columns
        assert row["status"] == "mle-error: EstimationError; bayes-error: EstimationError"


def test_replicate_stream_blocks_cannot_overlap():
    # a replicate draws its whole sample from one stream, so n is not bounded
    Scenario.from_dict(dict(TINY, n=[2 ** 21 + 1, 3_000_000]))
    Scenario.from_dict(dict(TINY, n=[3_000_000], long_record=True))
    # the (n, replicate) streams k * replicates + r stay below the limit-draw stream 2^52
    Scenario.from_dict(dict(TINY, n=[20], replicates=2 ** 52))
    Scenario.from_dict(dict(TINY, n=[20, 40], replicates=2 ** 51))
    assert _replicate_stream_base(1, 2 ** 51 - 1, 2 ** 51) == 2 ** 52 - 1
    with pytest.raises(ConfigurationError, match="at most"):
        Scenario.from_dict(dict(TINY, n=[20], replicates=2 ** 52 + 1))
    with pytest.raises(ConfigurationError, match="at most"):
        Scenario.from_dict(dict(TINY, n=[20, 40], replicates=2 ** 51 + 1))


def test_replicate_rows_read_one_stream_each():
    scenario = Scenario.from_dict(TINY)
    report = run_scenario(scenario)
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    assert [row["stream_base"] for row in report.rows] == list(range(6))
    for row in report.rows:
        sample = simulate_sample(true_int, row["n"], RngStream(1, row["stream_base"]))
        assert row["events"] == sample.total_events()


def test_long_record_freq_mod_mle_near_theta0():
    # one record on [0, 4000]: the likelihood's integral term must stay exact
    # over about 4,000 oscillations
    doc = {"model": "FREQ_MOD_SMOOTH", "theta0": 1.0137, "n": [400], "replicates": 1,
           "seed": 5, "long_record": True, "estimator": {"estimators": ["mle"]}}
    (row,) = run_scenario(Scenario.from_dict(doc)).rows
    assert row["status"] == "ok"
    assert abs(row["mle"] - 1.0137) < 1e-4


_PIN = {"n": [20, 40], "replicates": 2, "seed": 7, "limit_draws": 200}


@pytest.mark.parametrize("doc", [
    {"model": "REGULAR_EXP", "theta0": 0.3, "regime": "regular"},
    {"model": "REGULAR_EXP", "theta0": 0.3, "regime": "misspecified",
     "true_intensity": {"kind": "constant_shift", "h": 0.5}},
    {"model": "NONIDENT_FIXED", "theta0": 1.0, "regime": "nonidentifiable"},
    {"model": "NULLFI_SINE", "theta0": 0.0, "regime": "null-fisher"},
    {"model": "DISCFI_KINK", "theta0": 1.0, "regime": "disc-fisher"},
    {"model": "REGULAR_EXP", "theta0": -1.0, "regime": "boundary"},
    {"model": "CUSP", "theta0": 0.5, "regime": "cusp", "estimator": {"zoom_rounds": 3}},
    {"model": "JUMP_SHIFT", "theta0": 0.5, "regime": "jump"},
], ids=["regular", "misspecified", "nonidentifiable", "null-fisher", "disc-fisher",
        "boundary", "cusp", "jump"])
def test_limit_draws_share_one_stream(doc, tmp_path):
    scenario = Scenario.from_dict(dict(_PIN, **doc))
    reports = [run_scenario(scenario, workers=w) for w in (1, 2)]
    model = scenario.build_model()
    settings = scenario.build_settings()
    limit = limits.limit_params(scenario.regime, model, scenario.theta0,
                                true_intensity=scenario.build_true_intensity(model),
                                prior=settings.prior)
    # every estimator's draws are one row of one call on stream 2^52
    rows = limits.sample_limit_batch(limit, RngStream(scenario.seed, 2 ** 52),
                                     settings.estimators, scenario.limit_draws)
    report = reports[0]
    for which, draws in zip(settings.estimators, rows):
        # the nonidentifiable limit is a law of the estimate; the others, of the normalized error
        column = which if scenario.regime == "nonidentifiable" else f"norm_err_{which}"
        for n in scenario.n:
            sample = [row[column] for row in report.rows
                      if row["n"] == n and np.isfinite(row[which])]
            entry = report.summary["estimates"][which]["by_n"][str(n)]
            stat = ks_two_sample(sample, draws)
            assert entry["ks_statistic"] == stat
            m, k = len(sample), draws.size
            assert entry["ks_pvalue"] == _kolmogorov_sf(math.sqrt(m * k / (m + k)) * stat)
    outputs = []
    for w, rep in zip((1, 2), reports):
        rep.write_table_csv(tmp_path / f"{w}.csv")
        rep.write_summary_json(tmp_path / f"{w}.json")
        outputs.append((tmp_path / f"{w}.csv").read_bytes() + (tmp_path / f"{w}.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_scenario_without_regime_has_no_limit_comparison():
    doc = dict(TINY, regime=None)
    summary = run_scenario(Scenario.from_dict(doc)).summary
    assert "limit" not in summary
    for block in summary["estimates"].values():
        for entry in block["by_n"].values():
            assert entry["count"] == 3
            assert not any(key.startswith("ks_") for key in entry)


_SUFFWIN = {"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
            "n": [100], "replicates": 2, "seed": 7}
_WINSINE = {"model": "WINDOW_SINE", "theta0": 0.5,
            "window": {"mode": "optimal", "mu_star": 0.5},
            "n": [100], "replicates": 2, "seed": 7}


def test_rows_call_the_layers_through_module_attributes(monkeypatch):
    # perfbench/tracer.py times the layers by replacing these attributes; a row
    # that bound them at import would leave a traced run without their spans
    calls = []
    for owner, name in ((experiments, "simulate_sample"), (estimators, "mle"),
                        (estimators, "bayes"), (estimators, "two_stage_window")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    run_scenario(Scenario.from_dict(dict(TINY, replicates=2)))
    assert sorted(calls) == ["bayes"] * 4 + ["mle"] * 4 + ["simulate_sample"] * 4
    # a windowed row also chooses its window through the attribute; off
    # SUFFWIN_LINEAR the window's preliminary estimate is one more mle
    for doc, mle_calls in ((_SUFFWIN, 2), (_WINSINE, 4)):
        calls.clear()
        run_scenario(Scenario.from_dict(doc))
        assert sorted(calls) == (["bayes"] * 2 + ["mle"] * mle_calls
                                 + ["simulate_sample"] * 2 + ["two_stage_window"] * 2)


@pytest.mark.parametrize("doc", [_SUFFWIN, _WINSINE], ids=["sufficient", "optimal"])
def test_windowed_row_chooses_one_window_and_builds_one_evaluator(monkeypatch, doc):
    scenario = Scenario.from_dict(dict(doc, replicates=1))
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    settings = scenario.build_settings()
    chosen, built, used = [], [], []
    real_window, real_evaluator = estimators.two_stage_window, experiments.LikelihoodEvaluator

    def two_stage_window(*args, **kwargs):
        chosen.append(real_window(*args, **kwargs))
        return chosen[-1]

    def evaluator(*args, **kwargs):
        built.append(real_evaluator(*args, **kwargs))
        return built[-1]

    def final(name):
        real = getattr(estimators, name)

        def run(*args, **kwargs):
            if kwargs.get("evaluator") is not None:  # not the preliminary mle
                used.append((name, kwargs["window"], kwargs["evaluator"]))
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(estimators, "two_stage_window", two_stage_window)
    monkeypatch.setattr(experiments, "LikelihoodEvaluator", evaluator)
    for name in ("mle", "bayes"):
        monkeypatch.setattr(estimators, name, final(name))
    row = _estimate_row(scenario, model, true_int, settings, 100, 0, 0)
    assert row["status"] == "ok"
    assert len(chosen) == len(built) == 1
    window, rest = chosen[0]
    assert [name for name, _, _ in used] == ["mle", "bayes"]
    assert all(w is window and ev is built[0] for _, w, ev in used)
    assert built[0].n == rest.n == 100 - 10
    monkeypatch.undo()
    # the row's values are those of direct calls on (window, rest), bit for bit
    sample = simulate_sample(true_int, 100, RngStream(scenario.seed, 0))
    window, rest = estimators.two_stage_window(model, sample, settings,
                                               scenario.window["mode"],
                                               scenario.window.get("mu_star"))
    assert window == chosen[0][0]
    assert row["mle"] == estimators.mle(model, rest, settings, window=window).value
    assert row["bayes"] == estimators.bayes(model, rest, settings, window=window).value


@pytest.fixture
def reaped():
    """Stops the test after 60 s, and fails it if it leaves a child process of
    this one, running or not."""
    def timeout(signum, frame):
        raise TimeoutError("the test ran for 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_job_runs_once_with_more_workers_than_cpus(monkeypatch, tmp_path, reaped):
    # each job appends its index to one file; a lost update of the shared job
    # counter would run a job twice or skip one
    path = tmp_path / "claims"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    monkeypatch.setattr(experiments, "_run_job",
                        lambda job, context: os.write(fd, b"%d\n" % job))
    jobs = list(range(3000))
    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2
        results = experiments._run_jobs(jobs, None, cpus + 2)
    finally:
        os.close(fd)
    assert sorted(results) == jobs
    assert sorted(int(line) for line in path.read_text().split()) == jobs


def test_job_error_is_raised_as_one_worker_raises_it(monkeypatch, reaped):
    real = experiments._estimate_row

    def row(scenario, model, true_int, settings, n, n_index, r):
        if r == 1:
            raise NumericalError(f"no row for replicate {r} at n = {n}")
        return real(scenario, model, true_int, settings, n, n_index, r)

    # patched before the fork, so the workers inherit it
    monkeypatch.setattr(experiments, "_estimate_row", row)
    scenario = Scenario.from_dict(dict(TINY, replicates=4))
    errors = []
    for workers in (1, 2, 3):
        with pytest.raises(NumericalError) as info:
            run_scenario(scenario, workers=workers)
        errors.append((type(info.value), str(info.value)))
    # jobs run largest n first, so replicate 1 at n = 40 is the first to fail
    assert errors == [(NumericalError, "no row for replicate 1 at n = 40")] * 3


def test_killed_worker_fails_the_run_promptly(monkeypatch, reaped):
    parent = os.getpid()

    def row(scenario, model, true_int, settings, n, n_index, r):
        if r == 0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.5)
        return {}

    monkeypatch.setattr(experiments, "_estimate_row", row)
    scenario = Scenario.from_dict(dict(TINY, n=[20], replicates=40))
    start = time.perf_counter()
    with pytest.raises(PoislimError, match=r"worker \d \(pid \d+\) ended without a "
                                           r"result: killed by signal 9"):
        run_scenario(scenario, workers=2)
    # the surviving worker alone would need 39 * 0.5 s for the rest of the jobs
    assert time.perf_counter() - start < 5.0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
@pytest.mark.parametrize("extra, pinned", [(0, True), (1, False)],
                         ids=["as-many-cpus-as-workers", "more-cpus-than-workers"])
def test_workers_pin_one_cpu_each_only_when_they_fill_the_cpus(monkeypatch, reaped,
                                                                 extra, pinned):
    real = os.sched_getaffinity
    own = sorted(real(0))
    if len(own) < 2:
        pytest.skip("needs two CPUs")
    # two of this process's CPUs, plus ``extra`` that a pinned worker would never use
    cpus = own[:2] + [max(own) + 1 + i for i in range(extra)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    # each job outlasts the fork of the other worker, so each worker runs one
    monkeypatch.setattr(experiments, "_run_job",
                        lambda job, context: (time.sleep(0.5), os.getpid(), real(0))[1:])
    seen = experiments._run_jobs([0, 1], None, 2)
    assert len({pid for pid, _ in seen.values()}) == 2
    if pinned:
        assert sorted(cpu for _, mask in seen.values() for cpu in mask) == own[:2]
    else:
        assert all(mask == set(own) for _, mask in seen.values())
