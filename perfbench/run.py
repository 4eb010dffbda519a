"""Scenario benchmark for ``poislim experiment``.

    python3 perfbench/run.py --workload cusp-fbm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; poislim is imported from ``src/``.  Each
workload is a generated scenario JSON (its seed is ``--seed``) that is run
end to end through ``poislim.cli.main(["experiment", ...])`` in fresh Python
processes.  ``--trace 0`` repeats the timed run for ``--seconds`` and prints
the end-to-end metrics, with times scaled by a reference computation timed
around each process (see ``reference_s``); ``--trace 1`` prints the
per-layer metrics of one traced run.  Every run checks the CLI outputs and prints the table's SHA-256.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check
exits 1; a checkout without ``src/poislim`` exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SPEC = json.loads((BENCH / "workloads.json").read_text())

# a run must end within this many seconds, whatever --seconds asks
BUDGET_S = 170.0
# fresh processes timed for setup_s besides the one per experiment run
SETUP_PROBES = 3
MIN_EXPERIMENTS = 3
# Timed-run metrics are quoted at the machine speed at which reference_s()
# takes this long, about its median on the 2-vCPU machine of README.md: a
# time t measured beside a reference time r is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.055

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "simulate.trajectories": "count",
    "simulate.events": "count",
    "simulate.self_s": "s",
    "simulate.us_per_trajectory": "us",
    "intensity.event_log_sums.calls": "count",
    "intensity.event_log_sums.pairs": "count",
    "intensity.event_log_sums.self_s": "s",
    "intensity.event_log_sums.ns_per_pair": "ns",
    "likelihood.values.calls": "count",
    "likelihood.values.thetas": "count",
    "likelihood.values.thetas_per_call": "count",
    "likelihood.values.self_s": "s",
    **{f"estimators.{est}.{key}": unit
       for est in ("mle", "bayes")
       for key, unit in (("calls", "count"), ("self_s", "s"),
                         ("values_calls_per_estimate", "count"),
                         ("thetas_per_estimate", "count"),
                         ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
                         ("latency_tail_pct", "%"), ("latency_samples", "count"))},
    "limits.limit_params.s": "s",
    "limits.sample_limit_batch.s": "s",
    "limits.draws_per_s": "1/s",
    "limits.fbm_first_call_s": "s",
    "experiments.busy_frac": "ratio",
    "experiments.parent_cpu_s": "s",
    "experiments.summary_s": "s",
    "experiments.ks_max": "1",
    "experiments.failed_frac": "ratio",
    "cli.write_s": "s",
    "trace.overhead_frac": "ratio",
}


# synthetic module source for the byte-compile step of reference_s()
_SOURCE = "".join(
    f"def f{i}(x, y=({i}, 'a{i}')):\n    return [x * k + y[0] for k in range({i % 7 + 1}) if k % 2]\n"
    for i in range(400))


def reference_s() -> float:
    """Seconds for a fixed computation that does not use poislim.

    On a shared host the speed of identical work drifts by up to a third for
    minutes at a time.  The runner times this right before and right after
    each child process and scales the child's times by it, which cancels most
    of the drift.  Small-call work (short numpy calls, byte-compiling Python
    source) and large-array work (long vector passes, a matmul) drift apart,
    so the result is the geometric mean of the two halves.
    """
    import numpy as np

    g = np.random.Generator(np.random.Philox(key=np.array([7, 11], dtype=np.uint64)))
    start = time.perf_counter()
    total = 0.0
    for _ in range(4000):
        total += float(np.sum(np.log1p(g.uniform(0.0, 1.0, 64))))
    a = g.random(100_000)
    for _ in range(20):
        a = np.sort(np.exp(-a))
    calls = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(2):
        compile(_SOURCE, "<reference>", "exec")
    compiling = time.perf_counter() - start
    start = time.perf_counter()
    a = g.random(1_000_000)
    for _ in range(8):
        a = np.sqrt(np.sqrt(np.abs(a - 0.5))) + 0.1
    m = g.standard_normal((400, 400))
    for _ in range(6):
        m = (m @ m) / 400.0
    arrays = time.perf_counter() - start
    return math.sqrt(math.sqrt(calls * compiling) * arrays)


class BenchError(Exception):
    """A child process failed or an output check did not hold."""


def scenario_doc(workload: str, seed: int, tiny: bool) -> dict:
    spec = SPEC["workloads"][workload]
    doc = dict(spec["scenario"])
    if tiny:
        doc.update(spec["tiny"])
    doc["seed"] = seed
    return doc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(SPEC["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts child processes inside one run directory under a shared deadline."""

    def __init__(self, workload: str, run_dir: Path, scenario_path: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.scenario_path = scenario_path
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def child(self, mode: str, *extra) -> dict:
        self.count += 1
        result = self.run_dir / f"result{self.count}.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before child {mode}")
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(self.scenario_path),
               str(result), *map(str, extra)]
        before = reference_s()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"child {mode} killed after the {BUDGET_S:.0f} s budget")
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited {proc.returncode}:\n{out[-2000:]}{err[-4000:]}")
        res = json.loads(result.read_text())
        res["reference_s"] = math.sqrt(before * reference_s())
        return res

    def experiment(self, workers: int) -> dict:
        prefix = self.run_dir / f"exp{self.count + 1}"
        res = self.child("experiment", prefix, workers)
        res["prefix"] = prefix
        return res

    def traced(self) -> dict:
        prefix = self.run_dir / f"exp{self.count + 1}"
        spans = self.run_dir / "spans.json"
        res = self.child("traced", prefix, spans)
        res["prefix"] = prefix
        res["spans"] = json.loads(spans.read_text())["spans"]
        shutil.copyfile(spans, OUT / f"spans-{self.workload}.json")
        return res


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def check_outputs(res: dict, doc: dict) -> dict:
    """Verify one experiment's CLI outputs; returns counts, table hash and KS max."""
    problems = []
    if res["rc"] != 0:
        problems.append(f"cli.main returned {res['rc']}")
    table = Path(f"{res['prefix']}.table.csv")
    summary_path = Path(f"{res['prefix']}.summary.json")
    if not table.is_file() or not summary_path.is_file():
        raise BenchError("; ".join(problems + ["table or summary file missing"]))
    data = table.read_bytes()
    rows = list(csv.DictReader(data.decode().splitlines()))
    summary = json.loads(summary_path.read_text())
    expect = doc["replicates"] * len(doc["n"])
    if len(rows) != expect:
        problems.append(f"table has {len(rows)} rows, expected {expect}")
    not_ok = sum(row["status"] != "ok" for row in rows)
    if summary.get("failures") != not_ok:
        problems.append(f"summary failures {summary.get('failures')} != {not_ok} non-ok rows")
    alpha, beta = res["theta_interval"]
    attempted = failed = ok_rows = 0
    for row in rows:
        row_ok = True
        for which in res["estimators"]:
            attempted += 1
            text = row.get(which)
            try:
                value = float(text)
            except (TypeError, ValueError):
                value = math.nan
            good = (row["status"] == "ok" and math.isfinite(value) and alpha <= value <= beta)
            failed += not good
            row_ok &= good
        ok_rows += row_ok
    ks = []
    for which in res["estimators"]:
        for entry in summary.get("estimates", {}).get(which, {}).get("by_n", {}).values():
            ks.append(entry.get("ks_statistic", math.nan))
    if len(ks) != len(res["estimators"]) * len(doc["n"]) or not all(0.0 <= k <= 1.0 for k in ks):
        problems.append(f"summary KS statistics missing or out of [0, 1]: {ks}")
    if problems:
        raise BenchError("output check failed: " + "; ".join(problems))
    return {
        "rows": len(rows), "ok_rows": ok_rows, "attempted": attempted, "failed": failed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "ks_max": max(ks) if ks else math.nan,
    }


def same_table(checks: list) -> None:
    hashes = {c["sha256"] for c in checks}
    if len(hashes) != 1:
        raise BenchError(f"output tables differ between runs of one scenario: {sorted(hashes)}")


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _tail(samples: list) -> tuple:
    """Median, and the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile is not above the median, so the median
    stands in for it and the percentile reads 50.
    """
    s = sorted(samples)
    if not s:
        return math.nan, math.nan, 0.0
    median = statistics.median(s)
    k = len(s) - 10
    pct = 100.0 * k / len(s)
    if pct <= 50.0:
        return median, median, 50.0
    return median, s[k - 1], pct


def layer_metrics(spans: list) -> dict:
    n = len(spans)
    self_time = [sp[2] - sp[1] for sp in spans]
    estimator_of = [-1] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= end - start
            estimator_of[i] = estimator_of[parent]
        if name in ("estimators.mle", "estimators.bayes"):
            estimator_of[i] = i

    def spans_named(name):
        return [i for i in range(n) if spans[i][0] == name]

    def total(ids, times=self_time):
        return float(sum(times[i] for i in ids))

    duration = [sp[2] - sp[1] for sp in spans]
    m = {}
    sim = spans_named("simulate.simulate_sample")
    m["simulate.trajectories"] = sum(spans[i][4][0] for i in sim)
    m["simulate.events"] = sum(spans[i][4][1] for i in sim)
    m["simulate.self_s"] = total(sim)
    m["simulate.us_per_trajectory"] = 1e6 * m["simulate.self_s"] / max(m["simulate.trajectories"], 1)

    els = spans_named("intensity.event_log_sums")
    m["intensity.event_log_sums.calls"] = len(els)
    m["intensity.event_log_sums.pairs"] = sum(spans[i][4] for i in els)
    m["intensity.event_log_sums.self_s"] = total(els)
    m["intensity.event_log_sums.ns_per_pair"] = (
        1e9 * m["intensity.event_log_sums.self_s"] / max(m["intensity.event_log_sums.pairs"], 1))

    vals = spans_named("likelihood.values")
    m["likelihood.values.calls"] = len(vals)
    m["likelihood.values.thetas"] = sum(spans[i][4] for i in vals)
    m["likelihood.values.thetas_per_call"] = m["likelihood.values.thetas"] / max(len(vals), 1)
    m["likelihood.values.self_s"] = total(vals)

    for est in ("mle", "bayes"):
        ids = spans_named(f"estimators.{est}")
        own = set(ids)
        inner = [i for i in vals if estimator_of[i] in own]
        calls = max(len(ids), 1)
        p50, tail, pct = _tail([1e3 * duration[i] for i in ids])
        m[f"estimators.{est}.calls"] = len(ids)
        m[f"estimators.{est}.self_s"] = total(ids)
        m[f"estimators.{est}.values_calls_per_estimate"] = len(inner) / calls
        m[f"estimators.{est}.thetas_per_estimate"] = sum(spans[i][4] for i in inner) / calls
        m[f"estimators.{est}.latency_p50_ms"] = p50
        m[f"estimators.{est}.latency_tail_ms"] = tail
        m[f"estimators.{est}.latency_tail_pct"] = pct
        m[f"estimators.{est}.latency_samples"] = len(ids)

    lim = spans_named("limits.sample_limit_batch")
    m["limits.limit_params.s"] = total(spans_named("limits.limit_params"), duration)
    m["limits.sample_limit_batch.s"] = total(lim, duration)
    m["limits.draws_per_s"] = sum(spans[i][4] for i in lim) / max(m["limits.sample_limit_batch.s"], 1e-12)
    # run_scenario's self time is its report assembly plus per-job scenario rebuilds
    m["experiments.summary_s"] = (total(spans_named("experiments.ks_two_sample"), duration)
                                  + total(spans_named("experiments.run_scenario")))
    m["cli.write_s"] = total(spans_named("cli.write"), duration)
    return m


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _scaled(seconds: float, res: dict) -> float:
    return seconds * REFERENCE_S / res["reference_s"]


def timed_run(runner: Runner, doc: dict, seconds: float):
    workers = SPEC["workers"]
    warm = runner.child("setup")  # untimed: compiles bytecode and fills the file cache
    probes = [runner.child("setup") for _ in range(SETUP_PROBES)]
    exps, checks = [], []
    start = time.monotonic()
    while len(exps) < MIN_EXPERIMENTS or time.monotonic() - start < seconds:
        res = runner.experiment(workers)
        checks.append(check_outputs(res, doc))
        exps.append(res)
    same_table(checks)
    setups = [_scaled(r["setup_s"], r) for r in probes + exps]
    walls = [_scaled(r["wall_s"], r) for r in exps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "replicates_per_s": statistics.median(c["ok_rows"] / w for w, c in zip(walls, checks)),
        "peak_rss_mb": statistics.median(
            max(r["self_maxrss_kb"], r["children_maxrss_kb"]) / 1024.0 for r in exps),
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh processes",
        f"wall_s, replicates_per_s, peak_rss_mb: median of {len(exps)} experiment runs "
        f"at --workers {workers} in {time.monotonic() - start:.1f} s",
        f"times scaled by {REFERENCE_S} s / reference time; unscaled medians: "
        f"setup_s {statistics.median(r['setup_s'] for r in probes + exps):.4f} s, "
        f"wall_s {statistics.median(r['wall_s'] for r in exps):.4f} s, reference "
        f"{statistics.median(r['reference_s'] for r in probes + exps):.4f} s",
        "wall_s samples " + " ".join(f"{w:.3f}" for w in walls),
        "setup_s samples " + " ".join(f"{s:.3f}" for s in setups),
    ]
    return warm["context"], metrics, checks, notes


def traced_run(runner: Runner, doc: dict):
    workers = SPEC["workers"]
    warm = runner.child("setup")
    timed = runner.experiment(workers)
    single = runner.experiment(1)
    traced = runner.traced()
    fbm = runner.child("fbm")
    checks = [check_outputs(r, doc) for r in (timed, single, traced)]
    same_table(checks)
    metrics = layer_metrics(traced["spans"])
    metrics["limits.fbm_first_call_s"] = fbm["fbm_first_call_s"]
    metrics["experiments.busy_frac"] = timed["children_cpu_s"] / (workers * timed["wall_s"])
    metrics["experiments.parent_cpu_s"] = timed["parent_cpu_s"]
    metrics["experiments.ks_max"] = checks[0]["ks_max"]
    metrics["experiments.failed_frac"] = checks[0]["failed"] / checks[0]["attempted"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / single["wall_s"] - 1.0
    notes = [
        f"experiments.busy_frac, parent_cpu_s: rusage of one untraced run at --workers {workers}",
        f"other layers: one traced run at --workers 1 ({len(traced['spans'])} spans, "
        f"wall {traced['wall_s']:.3f} s vs {single['wall_s']:.3f} s untraced)",
    ]
    return warm["context"], metrics, checks, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 deadline: float) -> dict:
    doc = scenario_doc(workload, seed, tiny)
    run_dir = OUT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        scenario_path = run_dir / "scenario.json"
        scenario_path.write_text(json.dumps(doc, indent=2) + "\n")
        runner = Runner(workload, run_dir, scenario_path, deadline)
        if trace:
            context, metrics, checks, notes = traced_run(runner, doc)
            units = PER_LAYER
        else:
            context, metrics, checks, notes = timed_run(runner, doc, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    first = checks[0]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    expect_src = str((ROOT / "src" / "poislim").resolve())
    if str(Path(context["poislim_path"]).resolve()) != expect_src:
        raise BenchError(f"poislim imported from {context['poislim_path']}, not {expect_src}")
    context["blas_threads_fixed"] = SPEC["blas_threads"]
    context["workers"] = SPEC["workers"]

    print(f"== {workload} seed={seed} trace={int(trace)}{' size=tiny' if tiny else ''}")
    print("context " + json.dumps(context, sort_keys=True))
    print("scenario " + json.dumps(doc, sort_keys=True))
    print(f"check ok: cli exit 0; {first['rows']} rows = {doc['replicates']} replicates x "
          f"{len(doc['n'])} n; summary failures = non-ok rows; identical over {len(checks)} runs")
    print(f"table sha256 {first['sha256']}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} estimator calls)")
    print(f"ks_max {first['ks_max']:.6g} 1 (largest KS statistic over estimators and n)")
    for note in notes:
        print("note " + note)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    names = list(SPEC["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks each scenario for the self-test")
    args = parser.parse_args(argv)

    # before numpy loads: the reference computation's matmul runs on one thread too
    os.environ["OPENBLAS_NUM_THREADS"] = str(SPEC["blas_threads"])
    if not (ROOT / "src" / "poislim" / "__init__.py").is_file():
        print(f"perfbench: no poislim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         args.size == "tiny", deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[selected[0]]
    else:
        for name, res in results.items():
            print(f"result {name} " + json.dumps(res))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
