"""Self-test of the benchmark: every workload at a tiny input size.

    python3 -m pytest perfbench -q

Checks that each run emits exactly the metrics BENCHMARK.json declares,
each with its unit, that the traced and untraced runs observe the same
counts, and that the benchmark refuses to run without the program.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics_and_counts_agree(workload):
    results = {trace: result_of(run_bench(workload, trace)) for trace in (0, 1)}
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            metric = result["metrics"][m["name"]]
            assert metric["unit"] == m["unit"], m["name"]
            assert isinstance(metric["value"], (int, float)), m["name"]
    for m in SPEC["end_to_end"]:
        assert results[0]["metrics"][m["name"]]["value"] > 0, m["name"]
    assert record_of(workload, 1)["detail"]["counts"] == record_of(workload, 0)["detail"]["counts"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("enroll", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
