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
