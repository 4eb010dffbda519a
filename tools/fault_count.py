"""Page faults and times of one benchmark scenario, run inside this process.

Takes a workload's scenario from ``perfbench/workloads.json`` and sets its
seed.  By default it drops the scenario's ``regime`` (so no limit draws: only
the replicate jobs run) and runs ``run_scenario`` at one worker.  With
``--draws`` it runs only the scenario's limit-draw job, the same call that
``run_scenario`` makes.  Either way it runs in this process at one BLAS
thread and prints one JSON line with the ``resource.getrusage(RUSAGE_SELF)``
deltas around that work (minor and major page faults, user and system CPU
seconds), its wall time and the process's peak RSS (``ru_maxrss``, KiB).
Run from the repository root:

    PYTHONPATH=src python3 tools/fault_count.py --workload jump-search --seed 1
    PYTHONPATH=src python3 tools/fault_count.py --workload cusp-fbm --draws
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
    ap.add_argument("--draws", action="store_true",
                    help="run only the limit-draw job instead of the replicate jobs")
    args = ap.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = str(spec["blas_threads"])

    from poislim import limits
    from poislim.experiments import Scenario, _run_job, run_scenario

    doc = dict(spec["workloads"][args.workload]["scenario"], seed=args.seed)
    if args.draws:
        scenario = Scenario.from_dict(doc)
        model = scenario.build_model()
        true_int = scenario.build_true_intensity(model)
        limit = limits.limit_params(scenario.regime, model, scenario.theta0,
                                    true_intensity=true_int)
        context = (scenario, model, true_int, scenario.build_settings(), limit)

        def work():
            return _run_job("limits", context).size
    else:
        doc.pop("regime", None)
        scenario = Scenario.from_dict(doc)

        def work():
            return len(run_scenario(scenario, workers=1).rows)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    done = work()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "draws" if args.draws else "rows": done,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "major_faults": after.ru_majflt - before.ru_majflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "wall_s": round(wall, 3),
        "maxrss_kb": after.ru_maxrss,
    }))


if __name__ == "__main__":
    main()
