import csv
import json

import pytest

from poislim import cli

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


# two-stage estimation needs n >= 9, so both estimators fail on every replicate
ALL_FAIL = {"model": "SUFFWIN_LINEAR", "theta0": 0.5, "window": {"mode": "sufficient"},
            "n": [4], "replicates": 2, "seed": 3}


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
    # stream blocks that overlap: replicate r's trajectory 2**21 + j would reuse
    # replicate r+1's stream j, or replicate streams would reach the limit-draw
    # streams at 2**52.  theta0 lies outside Theta, so a run that loaded such a
    # scenario would stop (exit 3) before simulating anything that size.
    (dict(TINY, theta0=5.0, n=[3_000_000]), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[2 ** 21 + 1]), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[20], replicates=2 ** 31 + 1), [], cli.EXIT_CONFIG),
    (dict(TINY, theta0=5.0, n=[1, 2], replicates=2 ** 30 + 1), [], cli.EXIT_CONFIG),
])
def test_experiment_exit_codes(tmp_path, doc, extra, code):
    scenario = write_scenario(tmp_path, doc)
    prefix = tmp_path / "out"
    assert cli.main(["experiment", scenario, "--out-prefix", str(prefix), *extra]) == code
    if code == cli.EXIT_RUNTIME:
        # the outputs of a run in which every replicate failed are still written
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["failures"] == 2
        assert len((tmp_path / "out.table.csv").read_text().splitlines()) == 3


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
])
def test_limits_exit_codes(tmp_path, args, code):
    scenario = write_scenario(tmp_path, TINY)
    args = [scenario if a == "SCENARIO" else a for a in args]
    argv = ["limits", "--regime", "regular", *args, "--out", str(tmp_path / "draws.csv")]
    assert cli.main(argv) == code


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


@pytest.mark.parametrize("params, code", [
    (None, cli.EXIT_OK),
    ("{bad", cli.EXIT_CONFIG),
    ('{"zz": 1}', cli.EXIT_CONFIG),
    ("[1]", cli.EXIT_CONFIG),
])
def test_windows_exit_codes(tmp_path, params, code):
    out = tmp_path / "window.json"
    argv = ["windows", "--model", "WINDOW_SINE", "--theta", "0.5", "--mu-star", "0.3",
            "--out", str(out)]
    if params is not None:
        argv += ["--params", params]
    assert cli.main(argv) == code
    if code == cli.EXIT_OK:
        doc = json.loads(out.read_text())
        assert set(doc) == {"model", "theta", "mu_star", "threshold", "intervals", "measure"}
        assert doc["measure"] == pytest.approx(0.3)


@pytest.mark.parametrize("x, h1, code", [
    ("2", "0:0.5:2", cli.EXIT_OK),
    ("2", "0:1", cli.EXIT_CONFIG),
    ("a", "0:0.5:2", cli.EXIT_CONFIG),
    ("0.5", "0:0.5:2", cli.EXIT_CONFIG),
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
