import csv

import pytest

from poislim.errors import ConfigurationError
from poislim.experiments import Scenario, _estimate_row, run_scenario
from poislim.simulate import STREAM_STRIDE

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
    # two-stage estimation needs n >= 9, so both estimators fail on every replicate
    doc = {"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
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
        assert row["status"] == "mle-error: PreconditionError; bayes-error: PreconditionError"


def test_replicate_stream_blocks_cannot_overlap():
    # the largest n and replicate counts whose stream blocks stay disjoint load
    Scenario.from_dict(dict(TINY, n=[STREAM_STRIDE]))
    Scenario.from_dict(dict(TINY, n=[20], replicates=2 ** 31))
    # a long record uses one stream per replicate, so n is not bounded by the stride
    Scenario.from_dict(dict(TINY, n=[3_000_000], long_record=True))
    with pytest.raises(ConfigurationError, match="at most"):
        Scenario.from_dict(dict(TINY, n=[20, STREAM_STRIDE + 1]))
    with pytest.raises(ConfigurationError, match="at most"):
        Scenario.from_dict(dict(TINY, n=[20, 40], replicates=2 ** 30 + 1))
