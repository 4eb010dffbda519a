import csv
import json

import pytest

from poislim import cli, limits
from poislim.experiments import Scenario
from poislim.intensity import make_model
from poislim.simulate import RngStream

TINY = {"model": "REGULAR_EXP", "theta0": 0.3, "regime": "regular",
        "n": [20, 40], "replicates": 3, "seed": 1, "limit_draws": 200}


def write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_experiment_end_to_end(tmp_path):
    scenario = write_scenario(tmp_path, TINY)
    tables = []
    for workers in (1, 2):
        prefix = tmp_path / f"workers{workers}"
        argv = ["experiment", scenario, "--out-prefix", str(prefix), "--workers", str(workers)]
        assert cli.main(argv) == cli.EXIT_OK
        table = (tmp_path / f"workers{workers}.table.csv").read_bytes()
        summary = json.loads((tmp_path / f"workers{workers}.summary.json").read_text())
        rows = list(csv.DictReader(table.decode().splitlines()))
        assert len(rows) == TINY["replicates"] * len(TINY["n"])
        assert summary["failures"] == sum(row["status"] != "ok" for row in rows)
        tables.append(table)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("doc", [
    dict(TINY, n=[40]),
    {"model": "JUMP_SHIFT", "theta0": 0.5, "regime": "jump", "n": [20, 40],
     "replicates": 2, "seed": 1, "limit_draws": 200},
])
def test_experiment_outputs_identical_for_any_worker_count(tmp_path, doc):
    scenario = write_scenario(tmp_path, doc)
    outputs = []
    for workers in (1, 2, 3):
        prefix = tmp_path / f"workers{workers}"
        argv = ["experiment", scenario, "--out-prefix", str(prefix), "--workers", str(workers)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append((tmp_path / f"workers{workers}.table.csv").read_bytes()
                       + (tmp_path / f"workers{workers}.summary.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# with c0 = c1 = 0 the model intensity is 0 before s* - theta at every theta, where
# the shifted truth has events, so log L = -inf over Theta and both estimators
# fail on every replicate
ALL_FAIL = {"model": "JUMP_SHIFT", "theta0": 0.5, "params": {"c0": 0, "c1": 0},
            "true_intensity": {"kind": "constant_shift", "h": 5},
            "n": [4], "replicates": 2, "seed": 3}


KINK = {"model": "DISCFI_KINK", "theta0": 1.0, "n": [5], "replicates": 2, "seed": 1,
        "limit_draws": 200}


@pytest.mark.parametrize("doc, extra, code", [
    (TINY, ["--workers", "0"], cli.EXIT_CONFIG),
    (TINY, ["--workers", "-3"], cli.EXIT_CONFIG),
    (TINY, ["--n", "2.5"], cli.EXIT_CONFIG),
    (TINY, ["--n", "x"], cli.EXIT_CONFIG),
    (dict(TINY, replicates="abc"), [], cli.EXIT_CONFIG),
    (dict(TINY, n=["x"]), [], cli.EXIT_CONFIG),
    (dict(TINY, n=[]), [], cli.EXIT_CONFIG),
    (ALL_FAIL, [], cli.EXIT_RUNTIME),
    (dict(TINY, n=[20.7]), [], cli.EXIT_CONFIG),
    (dict(TINY, replicates=2.9), [], cli.EXIT_CONFIG),
    (dict(TINY, seed=1.5), [], cli.EXIT_CONFIG),
    (dict(TINY, params={"zz": 1}), [], cli.EXIT_CONFIG),
    # replicate streams k * replicates + r that would reach the limit-draw
    # stream 2**52.  theta0 lies outside Theta, so a run that loaded such a
    # scenario would stop (exit 3) before building its job list.
    (dict(TINY, theta0=5.0, n=[20], replicates=2 ** 52 + 1), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[1, 2], replicates=2 ** 51 + 1), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[3_000_000, 2 ** 21 + 1], replicates=2 ** 51 + 1), [],
     cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[1, 2, 3, 4], replicates=2 ** 50 + 1), [], cli.EXIT_CONFIG),
    # long_record families that are not one record on [0, n*tau]: exp(0.3 t)
    # leaves its bound past tau, and WINDOW_SINE pins its horizon to one period
    ({"model": "REGULAR_EXP", "theta0": 0.3, "n": [5], "replicates": 2, "seed": 1,
      "long_record": True}, [], cli.EXIT_CONFIG),
    ({"model": "WINDOW_SINE", "theta0": 0.3, "n": [50], "replicates": 2, "seed": 1,
      "long_record": True}, [], cli.EXIT_CONFIG),
    # the estimator list names the rows of the one limit-draw job
    (dict(TINY, estimator={"estimators": ["mle", "mle"]}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"estimators": ["median"]}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"estimators": []}), [], cli.EXIT_CONFIG),
    # wrong-typed values fail when the scenario is read, before any job runs
    (dict(TINY, estimator={"prior": [1, 2, 3]}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"prior": 5}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"grid_size": "abc"}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"grid_size": 25.5}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"zoom_rounds": 2.5}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"zoom_rounds": -1}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"estimators": 5}), [], cli.EXIT_CONFIG),
    (dict(TINY, limit_draws=2.5), [], cli.EXIT_CONFIG),
    (dict(TINY, limit_draws=0), [], cli.EXIT_CONFIG),
    (dict(TINY, atom_epsilon="x"), [], cli.EXIT_CONFIG),
    (dict(TINY, horizon="x"), [], cli.EXIT_CONFIG),
    (dict(TINY, window={"mode": "optimal", "mu_star": "x"}), [], cli.EXIT_CONFIG),
    (dict(TINY, true_intensity={"kind": "constant_shift", "h": "x"}), [], cli.EXIT_CONFIG),
    # the search path is read off the model and the sample, not set
    (dict(TINY, estimator={"refine": False}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"localize": True}), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator=5), [], cli.EXIT_CONFIG),
    (dict(TINY, window=5), [], cli.EXIT_CONFIG),
    # values that every replicate would fail on, or that no error can meet, fail at load
    (dict(TINY, theta0=float("nan")), [], cli.EXIT_CONFIG),
    (dict(TINY, atom_epsilon=-1), [], cli.EXIT_CONFIG),
    (dict(TINY, atom_epsilon=0), [], cli.EXIT_CONFIG),
    ({"model": "WINDOW_SINE", "theta0": 0.3, "window": {"mode": "optimal", "mu_star": 5},
      "n": [16], "replicates": 2, "seed": 1}, [], cli.EXIT_CONFIG),
    ({"model": "WINDOW_SINE", "theta0": 0.3, "window": {"mode": "optimal", "mu_star": 0},
      "n": [16], "replicates": 2, "seed": 1}, [], cli.EXIT_CONFIG),
    # the Bayes panel count is fixed, not a setting
    (dict(TINY, estimator={"bayes_panels": 4096}), [], cli.EXIT_CONFIG),
    # a seed outside [0, 2^64) fails instead of aliasing one inside it
    (dict(TINY, seed=2 ** 64), [], cli.EXIT_CONFIG),
    (dict(TINY, seed=-1), [], cli.EXIT_CONFIG),
    (TINY, ["--seed", "-1"], cli.EXIT_CONFIG),
    (TINY, ["--seed", str(2 ** 64)], cli.EXIT_CONFIG),
    (dict(TINY, seed=2 ** 64 - 1), [], cli.EXIT_OK),
    # a true_intensity kind takes exactly the keys it reads, and theta_interval two numbers
    (dict(TINY, true_intensity={"kind": "constant_shift"}), [], cli.EXIT_CONFIG),
    (dict(TINY, true_intensity={"kind": "constant_shift", "h": 0.5, "h1": 3}), [],
     cli.EXIT_CONFIG),
    ({"model": "CHANGEPOINT", "theta0": 0.5, "n": [5], "replicates": 2, "seed": 1,
      "true_intensity": {"kind": "changepoint", "h": 0.5}}, [], cli.EXIT_CONFIG),
    (dict(TINY, true_intensity={"kind": "shift", "h": 0.5}), [], cli.EXIT_CONFIG),
    (dict(TINY, theta_interval=[0]), [], cli.EXIT_CONFIG),
    (dict(TINY, theta_interval=[0, 1, 2]), [], cli.EXIT_CONFIG),
    ({"model": "CHANGEPOINT", "theta0": 0.5, "n": [5], "replicates": 2, "seed": 1,
      "true_intensity": {"kind": "changepoint", "h1": 0.5, "h2": 1.0}}, [], cli.EXIT_OK),
    # a regime that its model does not fit: the wrong family, no coinciding
    # roots, or too few theta-derivatives
    ({"model": "CHANGEPOINT", "theta0": 0.5, "regime": "jump", "n": [5], "replicates": 2,
      "seed": 1}, [], cli.EXIT_CONFIG),
    (dict(TINY, regime="cusp"), [], cli.EXIT_CONFIG),
    (dict(TINY, regime="nonidentifiable"), [], cli.EXIT_CONFIG),
    ({"model": "JUMP_SHIFT", "theta0": 0.5, "regime": "regular", "n": [5], "replicates": 2,
      "seed": 1}, [], cli.EXIT_CONFIG),
    ({"model": "CUSP", "theta0": 0.5, "regime": "misspecified", "n": [5], "replicates": 2,
      "seed": 1}, [], cli.EXIT_CONFIG),
    # theta0 on a declared kink: the regimes that read two-sided theta-derivatives
    # there do not fit, the disc-fisher regime of that kink does
    (dict(KINK, regime="regular"), [], cli.EXIT_CONFIG),
    (dict(KINK, regime="misspecified", true_intensity={"kind": "constant_shift", "h": 0.5}), [],
     cli.EXIT_CONFIG),
    (dict(KINK, regime="null-fisher"), [], cli.EXIT_CONFIG),
    (dict(KINK, regime="disc-fisher"), [], cli.EXIT_OK),
    # windows that every replicate would fail to choose: the first floor(sqrt(n))
    # trajectories choose one, so it needs n >= 9 trajectories and no long_record,
    # and an optimal window needs a theta-derivative of the family
    ({"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
      "n": [4], "replicates": 2, "seed": 3}, [], cli.EXIT_CONFIG),
    ({"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
      "n": [100, 8], "replicates": 2, "seed": 3}, [], cli.EXIT_CONFIG),
    ({"model": "WINDOW_SINE", "theta0": 0.5, "window": {"mode": "optimal", "mu_star": 0.5},
      "n": [4], "replicates": 2, "seed": 3}, [], cli.EXIT_CONFIG),
    ({"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
      "n": [100], "replicates": 2, "seed": 3, "long_record": True}, [], cli.EXIT_CONFIG),
    ({"model": "JUMP_SHIFT", "theta0": 0.5, "window": {"mode": "optimal", "mu_star": 0.5},
      "n": [100], "replicates": 2, "seed": 3}, [], cli.EXIT_CONFIG),
    ({"model": "JUMP_SHIFT", "theta0": 0.5, "window": {"mode": "sufficient"},
      "n": [9], "replicates": 2, "seed": 3}, [], cli.EXIT_OK),
    # a JSON bool is no number, a numeric string no number either, and
    # long_record takes only a bool
    (dict(TINY, theta0=True), [], cli.EXIT_CONFIG),
    (dict(TINY, n=[True, 20]), [], cli.EXIT_CONFIG),
    (dict(TINY, replicates=True), [], cli.EXIT_CONFIG),
    (dict(TINY, seed=False), [], cli.EXIT_CONFIG),
    (dict(TINY, estimator={"zoom_rounds": True}), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0="0.3"), [], cli.EXIT_CONFIG),
    (dict(TINY, theta_interval=["-1", "1"]), [], cli.EXIT_CONFIG),
    (dict(TINY, theta_interval=[False, 1]), [], cli.EXIT_CONFIG),
    (dict(TINY, long_record="false"), [], cli.EXIT_CONFIG),
])
def test_experiment_exit_codes(tmp_path, capsys, doc, extra, code):
    scenario = write_scenario(tmp_path, doc)
    prefix = tmp_path / "out"
    assert cli.main(["experiment", scenario, "--out-prefix", str(prefix), *extra]) == code
    if code == cli.EXIT_CONFIG:
        assert not (tmp_path / "out.table.csv").exists()
    if doc.get("long_record") is True:
        expect = ("got one long_record" if "window" in doc else
                  f"long_record: {doc['model']} on one record of n*tau = {doc['n'][0]}")
        assert expect in capsys.readouterr().err
        assert not prefix.with_suffix(".table.csv").exists()
    if code == cli.EXIT_RUNTIME:
        # the outputs of a run in which every replicate failed are still written
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["failures"] == 2
        assert len((tmp_path / "out.table.csv").read_text().splitlines()) == 3


def test_regime_its_model_does_not_fit_fails_at_load(tmp_path, capsys):
    doc = {"model": "CHANGEPOINT", "theta0": 0.5, "regime": "jump", "n": [5],
           "replicates": 2, "seed": 1}
    argv = ["experiment", write_scenario(tmp_path, doc), "--out-prefix", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "jump regime is defined for the JUMP_SHIFT family" in err
    # the same through ``limits --scenario``, whose --regime the scenario does not name
    doc.pop("regime")
    argv = ["limits", "--regime", "cusp", "--scenario", write_scenario(tmp_path, doc),
            "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "cusp regime is defined for the CUSP family" in capsys.readouterr().err
    assert not (tmp_path / "draws.csv").exists()
    # theta0 on the family's kink, where the regular regime needs two-sided derivatives
    argv = ["experiment", write_scenario(tmp_path, dict(KINK, regime="regular")),
            "--out-prefix", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "DISCFI_KINK has a kink at theta0 = 1" in capsys.readouterr().err
    argv = ["limits", "--regime", "regular", "--scenario", write_scenario(tmp_path, KINK),
            "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "DISCFI_KINK has a kink at theta0 = 1" in capsys.readouterr().err
    assert not (tmp_path / "draws.csv").exists()


def test_experiment_rejects_optimal_window_without_mu_star(tmp_path):
    scenario = write_scenario(tmp_path, dict(TINY, window={"mode": "optimal"}))
    argv = ["experiment", scenario, "--out-prefix", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG


@pytest.mark.parametrize("regime, pairs, code", [
    ("regular", ["I=2"], cli.EXIT_OK),
    ("regular", ["foo=1"], cli.EXIT_CONFIG),
    ("regular", ["I=abc"], cli.EXIT_CONFIG),
    ("regular", ["I=-1"], cli.EXIT_CONFIG),
    ("regular", ["I=2", "typo=3"], cli.EXIT_CONFIG),
    ("regular", ["I"], cli.EXIT_CONFIG),
    ("disc-fisher", ["I_left=0.2", "I_right=0.3", "corr=1.5"], cli.EXIT_CONFIG),
    ("cusp", ["kappa=0.25", "gamma_sq=1.5", "grid_points=201"], cli.EXIT_OK),
    ("cusp", ["kappa=0.25", "gamma_sq=1.5", "grid_points=2000"], cli.EXIT_CONFIG),
    ("cusp", ["kappa=0.7", "gamma_sq=1.5"], cli.EXIT_CONFIG),
    ("jump", ["lam_left=2", "lam_right=4"], cli.EXIT_OK),
    ("jump", ["lam_left=0", "lam_right=4"], cli.EXIT_CONFIG),
    ("nonidentifiable", ["I=1"], cli.EXIT_CONFIG),
    ("boundary", ["I=1", "orientation=5"], cli.EXIT_CONFIG),
    ("boundary", ["I=1", "orientation=0"], cli.EXIT_CONFIG),
    ("cusp", ["kappa=0.25", "gamma_sq=1.5", "grid_points=2001.7"], cli.EXIT_CONFIG),
    ("boundary", ["I=1", "orientation=-1"], cli.EXIT_OK),
    ("cusp", ["kappa=0.25", "gamma_sq=nan"], cli.EXIT_CONFIG),
    ("cusp", ["kappa=0.25", "gamma_sq=inf"], cli.EXIT_CONFIG),
    ("cusp", ["kappa=0.25", "gamma_sq=1.5", "halfwidth=inf"], cli.EXIT_CONFIG),
    ("jump", ["lam_left=1", "lam_right=2", "halfwidth=inf"], cli.EXIT_CONFIG),
    ("regular", ["I=inf"], cli.EXIT_CONFIG),
    ("jump", ["lam_left=3", "lam_right=3"], cli.EXIT_CONFIG),
    ("jump", ["lam_left=3", "lam_right=3", "halfwidth=2"], cli.EXIT_OK),
    # linspace puts this grid's centre at -1.1e-16, not 0.0
    ("cusp", ["kappa=0.25", "gamma_sq=1.5", "halfwidth=1", "grid_points=99"], cli.EXIT_OK),
    # the default window of rates this close holds about 1e16 events per draw
    ("jump", ["lam_left=1", "lam_right=1.0000001"], cli.EXIT_CONFIG),
])
def test_limits_set_exit_codes(tmp_path, regime, pairs, code):
    out = tmp_path / "draws.csv"
    argv = ["limits", "--regime", regime, "--set", *pairs, "--samples", "20", "--out", str(out)]
    assert cli.main(argv) == code
    if code == cli.EXIT_OK:
        assert len(out.read_text().splitlines()) == 21


@pytest.mark.parametrize("args, code", [
    (["--scenario", "SCENARIO", "--set", "bogus=1"], cli.EXIT_CONFIG),
    (["--set", "I=2", "--samples", "0"], cli.EXIT_CONFIG),
    (["--scenario", "SCENARIO", "--samples", "-1"], cli.EXIT_CONFIG),
    (["--scenario", "SCENARIO"], cli.EXIT_OK),
    (["--set", "I=2", "--seed", "-1"], cli.EXIT_CONFIG),
    (["--set", "I=2", "--seed", str(2 ** 64)], cli.EXIT_CONFIG),
    (["--set", "I=2", "--seed", str(2 ** 64 - 1)], cli.EXIT_OK),
])
def test_limits_exit_codes(tmp_path, args, code):
    scenario = write_scenario(tmp_path, TINY)
    args = [scenario if a == "SCENARIO" else a for a in args]
    argv = ["limits", "--regime", "regular", *args, "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == code


def test_seed_range_message_and_exact_integers(tmp_path, capsys):
    argv = ["limits", "--regime", "regular", "--set", "I=2", "--seed", "-1",
            "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "seed must lie in [0, 2^64), got -1" in capsys.readouterr().err
    # above 2^53 a double cannot hold every integer: the seed stays exact
    for seed in (2 ** 53 + 1, 2 ** 64 - 1):
        assert Scenario.from_dict(dict(TINY, seed=seed)).seed == seed


def test_limits_scenario_reads_the_prior(tmp_path):
    doc = {"model": "NONIDENT_FIXED", "theta0": 1.0, "n": [10], "replicates": 1, "seed": 4,
           "estimator": {"prior": [[0, 3], [1, 30]]}}
    out = tmp_path / "draws.csv"
    argv = ["limits", "--regime", "nonidentifiable", "--scenario", write_scenario(tmp_path, doc),
            "--which", "bayes", "--samples", "50", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    model = make_model("NONIDENT_FIXED")
    prior = Scenario.from_dict(doc).build_settings().prior
    limit = limits.limit_params("nonidentifiable", model, 1.0, prior=prior)
    assert limit.prior_weights[0] < 1.0
    expect = limits.sample_limit_batch(limit, RngStream(4, 0), "bayes", 50)
    assert out.read_text().splitlines()[1:] == [f"{v:.17g}" for v in expect]


@pytest.mark.parametrize("doc, code", [
    (dict(TINY, n=[5]), cli.EXIT_OK),
    (dict(TINY, params={"zz": 1}), cli.EXIT_CONFIG),
])
def test_simulate_exit_codes(tmp_path, doc, code):
    out = tmp_path / "events.csv"
    assert cli.main(["simulate", write_scenario(tmp_path, doc), "--out", str(out)]) == code
    if code == cli.EXIT_OK:
        lines = out.read_text().splitlines()
        assert lines[0] == "trajectory_index,event_time"
        assert {int(line.split(",")[0]) for line in lines[1:]} <= set(range(5))


@pytest.mark.parametrize("params, mu_star, theta, code", [
    pytest.param(None, "0.3", "0.5", cli.EXIT_OK, id="None-0"),
    pytest.param("{bad", "0.3", "0.5", cli.EXIT_CONFIG, id="{bad-2"),
    pytest.param('{"zz": 1}', "0.3", "0.5", cli.EXIT_CONFIG, id='{"zz": 1}-2'),
    pytest.param("[1]", "0.3", "0.5", cli.EXIT_CONFIG, id="[1]-2"),
    # mu_star must lie in (0, tau); WINDOW_SINE has tau = 1
    pytest.param(None, "nan", "0.5", cli.EXIT_CONFIG, id="mu_star=nan-2"),
    pytest.param(None, "0", "0.5", cli.EXIT_CONFIG, id="mu_star=0-2"),
    pytest.param(None, "1", "0.5", cli.EXIT_CONFIG, id="mu_star=1-2"),
    # theta must lie in Theta, which is [-1, 1] on WINDOW_SINE
    pytest.param(None, "0.3", "nan", cli.EXIT_CONFIG, id="theta=nan-2"),
    pytest.param(None, "0.3", "inf", cli.EXIT_CONFIG, id="theta=inf-2"),
    pytest.param(None, "0.3", "5", cli.EXIT_CONFIG, id="theta=5-2"),
    pytest.param(None, "0.3", "-1.5", cli.EXIT_CONFIG, id="theta=-1.5-2"),
    pytest.param(None, "0.3", "1", cli.EXIT_OK, id="theta=1-0"),
])
def test_windows_exit_codes(tmp_path, params, mu_star, theta, code):
    out = tmp_path / "window.json"
    argv = ["windows", "--model", "WINDOW_SINE", "--theta", theta, "--mu-star", mu_star,
            "--out", str(out)]
    if params is not None:
        argv += ["--params", params]
    assert cli.main(argv) == code
    assert out.exists() == (code == cli.EXIT_OK)
    if code == cli.EXIT_OK:
        doc = json.loads(out.read_text())
        assert set(doc) == {"model", "theta", "mu_star", "threshold", "intervals", "measure"}
        assert doc["measure"] == pytest.approx(0.3)


@pytest.mark.parametrize("x, h1, code", [
    ("2", "0:0.5:2", cli.EXIT_OK),
    ("2", "0:1", cli.EXIT_CONFIG),
    ("a", "0:0.5:2", cli.EXIT_CONFIG),
    ("0.5", "0:0.5:2", cli.EXIT_CONFIG),
    ("2", "0:0.5:0", cli.EXIT_CONFIG),
])
def test_region_map_exit_codes(tmp_path, x, h1, code):
    out = tmp_path / "map.csv"
    argv = ["region-map", "--x", x, "--h1", h1, "--h2", "0:0.5:2", "--grid-size", "201",
            "--out", str(out)]
    assert cli.main(argv) == code
    if code == cli.EXIT_OK:
        lines = out.read_text().splitlines()
        assert lines[0] == "x,h1,h2,kl_consistent,predicted"
        assert len(lines) == 1 + 2 * 2


@pytest.mark.parametrize("extra", [
    ["--grid-size", "1"],
    ["--grid-size", "-5"],
    ["--grid-size", "0"],
    # the change-point Theta is (0.1, 0.9)
    ["--theta0", "0.05"],
    ["--theta0", "0.9"],
    ["--theta0", "nan"],
    # a tolerance of 3 grid cells that reaches an edge of Theta from theta0
    ["--grid-size", "3"],
    ["--grid-size", "5"],
    ["--theta0", "0.11"],
])
def test_region_map_rejects_bad_bounds(tmp_path, capsys, extra):
    out = tmp_path / "map.csv"
    argv = ["region-map", "--x", "2", "--h1", "0:0.5:2", "--h2", "0:0.5:2", "--grid-size", "201",
            "--out", str(out), *extra]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()
