"""Self-test of the benchmark: every workload at a tiny size, and planted
faults that its checks must catch.

    python3 -m pytest perfbench/tests -q

Each case runs perfbench/run.py the way BENCHMARK.json's command does,
with ``--size tiny`` so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT,
              seconds: float = 1):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def needs_cc(workload: str) -> None:
    if workload == "label-real" and shutil.which("cc") is None:
        pytest.skip("label-real needs cc")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    needs_cc(workload)
    proc = run_bench(workload, "--size", "tiny")
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert "check " in proc.stdout and "env " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    needs_cc(workload)
    res = result_of(run_bench(workload, "--size", "tiny", trace=1))
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["metrics"]["trace.spans"]["value"] > 0


def failed_share(res: dict) -> float:
    return res["failed"] / res["attempted"]


@pytest.mark.parametrize(
    "workload,fault",
    [("fit", "train-drift"), ("triage", "flip-label"), ("triage", "quarantine-valid")],
)
def test_planted_fault_raises_failed_share(workload, fault):
    clean = result_of(run_bench(workload, "--size", "tiny"))
    faulty = result_of(run_bench(workload, "--size", "tiny", "--fault", fault))
    assert failed_share(faulty) > failed_share(clean)
    assert faulty["correct"] is False


@pytest.mark.parametrize("workload", ["fit", "triage"])
def test_counts_depend_on_seed_not_run_length(workload):
    short = result_of(run_bench(workload, "--size", "tiny"))
    long = result_of(run_bench(workload, "--size", "tiny", seconds=4))
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("fit", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_harness():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        run.per_layer_metrics()
    )
