"""The conformance sweep: each regime's Monte Carlo errors against its limit law.

Runs the default model of each of the eight regimes through ``run_scenario``
at n = 400, with 150 replicates, 20,000 limit draws, seed 11 and 2 workers,
and writes ``CONFORMANCE.json`` at the repository root: per regime, the
scenario, each estimator's KS statistic and p-value against the regime's
limit law, the SHA-256 of the replicate table (the bytes that
``poislim experiment`` writes as ``<prefix>.table.csv``) and the wall time,
plus the versions of Python, numpy, scipy and poislim.  The sweep takes no
options, so two trees are compared by running it on each: every statistic
and hash must agree where a change keeps the estimates identical.  Run from
the repository root:

    PYTHONPATH=src python3 tools/conformance.py
"""

import hashlib
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import poislim
from poislim.experiments import Scenario, run_scenario

OUT = Path(__file__).resolve().parent.parent / "CONFORMANCE.json"
SETTINGS = {"n": 400, "replicates": 150, "limit_draws": 20_000, "seed": 11, "workers": 2}
REGIMES = {
    "regular": {"model": "REGULAR_EXP", "theta0": 0.3},
    "misspecified": {"model": "REGULAR_EXP", "theta0": 0.3,
                     "true_intensity": {"kind": "constant_shift", "h": 0.5}},
    "nonidentifiable": {"model": "NONIDENT_FIXED", "theta0": 1.0},
    "null-fisher": {"model": "NULLFI_SINE", "theta0": 0.0},
    "disc-fisher": {"model": "DISCFI_KINK", "theta0": 1.0},
    "boundary": {"model": "REGULAR_EXP", "theta0": -1.0},
    "cusp": {"model": "CUSP", "theta0": 0.5, "estimator": {"zoom_rounds": 3}},
    "jump": {"model": "JUMP_SHIFT", "theta0": 0.5},
}


def run_regime(regime: str, doc: dict) -> dict:
    doc = dict(doc, regime=regime, n=[SETTINGS["n"]], replicates=SETTINGS["replicates"],
               limit_draws=SETTINGS["limit_draws"], seed=SETTINGS["seed"])
    start = time.perf_counter()
    report = run_scenario(Scenario.from_dict(doc), workers=SETTINGS["workers"])
    wall = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.csv"
        report.write_table_csv(table)
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
    out = {"scenario": doc}
    for which, block in report.summary["estimates"].items():
        entry = block["by_n"][str(SETTINGS["n"])]
        out[which] = {key: entry[key] for key in ("ks_statistic", "ks_pvalue")}
    out["failures"] = report.summary["failures"]
    out["table_sha256"] = digest
    out["wall_s"] = round(wall, 2)
    return out


def main() -> None:
    result = {
        "settings": SETTINGS,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "poislim": poislim.__version__},
        "regimes": {},
    }
    for regime, doc in REGIMES.items():
        result["regimes"][regime] = row = run_regime(regime, doc)
        print(f"{regime:16s} " + "  ".join(
            f"{which} KS {row[which]['ks_statistic']:.4f} p {row[which]['ks_pvalue']:.3g}"
            for which in ("mle", "bayes")) + f"  {row['wall_s']:.1f} s", file=sys.stderr)
    OUT.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
