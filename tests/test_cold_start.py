"""What a fresh process loads: no scipy for the command line, the regular, jump and
cusp regimes, and numpy's lazy submodules before workers fork."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from poislim.limits import _kolmogorov_sf

ROOT = Path(__file__).resolve().parents[1]

# runs the `tiny` size of each benchmark workload in one fresh process, cusp last,
# and reports the modules each run added to sys.modules
_SCRIPT = """
import json, sys
import poislim.cli
from poislim.experiments import Scenario, run_scenario

out = {"import": sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m in ("numpy.random", "numpy.ma"))}
with open("perfbench/workloads.json") as fh:
    workloads = json.load(fh)["workloads"]
for name in ("regular-sim", "jump-search", "cusp-fbm"):
    doc = dict(workloads[name]["scenario"], **workloads[name]["tiny"], seed=1)
    before = set(sys.modules)
    report = run_scenario(Scenario.from_dict(doc), workers=1)
    out[name] = {"added": sorted(set(sys.modules) - before), "summary": report.summary,
                 "draws": doc["limit_draws"]}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_and_scipy_free_regimes(fresh):
    assert fresh["import"] == ["numpy.ma", "numpy.random"]
    for name in ("regular-sim", "jump-search"):
        assert fresh[name]["added"] == [], name
        assert fresh[name]["summary"]["failures"] == 0, name
    cusp = fresh["cusp-fbm"]
    assert cusp["summary"]["failures"] == 0
    # the fBm sampler needs numpy.fft; the cusp constant is a closed form in
    # math.gamma, so no cusp run needs scipy
    assert "numpy.fft" in cusp["added"]
    assert not any(m.split(".")[0] == "scipy" for m in cusp["added"])


def test_kolmogorov_sf_matches_scipy():
    for x in np.linspace(0.05, 3.0, 2951):
        assert _kolmogorov_sf(x) == pytest.approx(special.kolmogorov(x), rel=0, abs=1e-12), x
    assert _kolmogorov_sf(0.0) == 1.0


def test_summary_pvalues_without_scipy(fresh):
    # the p-values of a run that never loaded scipy, against scipy's survival function
    run = fresh["regular-sim"]
    for which, block in run["summary"]["estimates"].items():
        for n, entry in block["by_n"].items():
            m = entry["count"]
            x = math.sqrt(m * run["draws"] / (m + run["draws"])) * entry["ks_statistic"]
            assert entry["ks_pvalue"] == pytest.approx(special.kolmogorov(x), rel=0, abs=1e-12)
