"""Page faults and times of one benchmark scenario, run inside this process.

Takes a workload's scenario from ``perfbench/workloads.json``, sets its seed,
drops its ``regime`` (so no limit draws: only the replicate jobs run) and
runs ``run_scenario`` at one worker, in this process, at one BLAS thread.
Prints one JSON line with the ``resource.getrusage(RUSAGE_SELF)`` deltas
around that call (minor and major page faults, user and system CPU seconds)
and its wall time.  Run from the repository root:

    PYTHONPATH=src python3 tools/fault_count.py --workload jump-search --seed 1
"""

import argparse
import json
import os
import resource
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def main() -> None:
    spec = json.loads(WORKLOADS.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    args = ap.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = str(spec["blas_threads"])

    from poislim.experiments import Scenario, run_scenario

    doc = dict(spec["workloads"][args.workload]["scenario"], seed=args.seed)
    doc.pop("regime", None)
    scenario = Scenario.from_dict(doc)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    report = run_scenario(scenario, workers=1)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rows": len(report.rows),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "major_faults": after.ru_majflt - before.ru_majflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "wall_s": round(wall, 3),
    }))


if __name__ == "__main__":
    main()
