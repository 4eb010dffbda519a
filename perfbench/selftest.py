"""Self-test of the benchmark: every workload at a tiny size, timed and traced.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection; it
takes about 30 s on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = list(run.SPEC["workloads"])


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    for prefix in ("context ", "check ok", "table sha256 ", "failed_frac ", "ks_max "):
        assert any(line.startswith(prefix) for line in lines), prefix
    context = json.loads(next(line for line in lines if line.startswith("context "))[8:])
    assert context["blas"]["threads"] == run.SPEC["blas_threads"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in run.SPEC["workloads"].values():
        assert workload["predictions"]


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _write_outputs(prefix, statuses, failures):
    rows = ["n,replicate,stream_base,events,mle,bayes,status"]
    rows += [f"10,{i},0,5,0.5,0.5,{status}" for i, status in enumerate(statuses)]
    Path(f"{prefix}.table.csv").write_text("\n".join(rows) + "\n")
    summary = {"failures": failures, "estimates": {
        which: {"by_n": {"10": {"ks_statistic": 0.2}}} for which in ("mle", "bayes")}}
    Path(f"{prefix}.summary.json").write_text(json.dumps(summary))
    return {"rc": 0, "prefix": prefix, "theta_interval": [0.0, 1.0],
            "estimators": ["mle", "bayes"]}


def test_output_check_rejects_inconsistent_failure_count(tmp_path):
    doc = {"replicates": 2, "n": [10]}
    good = _write_outputs(tmp_path / "good", ["ok", "ok"], 0)
    assert run.check_outputs(good, doc)["ok_rows"] == 2
    bad = _write_outputs(tmp_path / "bad", ["ok", "bayes-error: EstimationError"], 0)
    with pytest.raises(run.BenchError, match="summary failures"):
        run.check_outputs(bad, doc)
    short = _write_outputs(tmp_path / "short", ["ok"], 0)
    with pytest.raises(run.BenchError, match="rows"):
        run.check_outputs(short, doc)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run._tail(list(range(40))) == (19.5, 29, 75.0)
    assert run._tail(list(range(12))) == (5.5, 5.5, 50.0)
