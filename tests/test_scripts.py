"""The example scripts run end to end on a tiny dataset; the paired
benchmark's summary is checked on synthetic records."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["rotation_experiment.py"])
def test_script_runs(tmp_path, script):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--classes", "2", "--train", "2", "--test", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "accuracy" in proc.stdout


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records(values: dict[str, list[float]], correct=None, failed=None, host=None) -> list[dict]:
    n = len(next(iter(values.values())))
    correct = correct or [True] * n
    failed = failed or [0] * n
    host = host or [1.0] * n
    return [{"result": {"metrics": {k: {"value": v[i]} for k, v in values.items()},
                        "correct": correct[i], "failed": failed[i]},
             "detail": {"host_items_per_s": host[i]}} for i in range(n)]


class TestBenchSummary:
    metrics = [{"name": "items_per_s", "better": "higher"}, {"name": "setup_s", "better": "lower"}]

    def test_quartiles_and_pairs_won(self):
        summarize = load_bench_pairs().summarize
        parent = records({"items_per_s": [5, 4, 3, 2, 1], "setup_s": [1, 2, 3, 4, 5]})
        # pairs 1 and 4 won, pairs 2 and 5 tied, pair 3 lost, for either direction
        change = records({"items_per_s": [6, 4, 2, 3, 1], "setup_s": [0, 2, 4, 3, 5]})
        out = summarize(parent, change, self.metrics)
        assert out["items_per_s"] == {"parent_q1_median_q3": [2.0, 3.0, 4.0],
                                      "change_q1_median_q3": [2.0, 3.0, 4.0],
                                      "change_better_pairs": 2}
        assert out["setup_s"] == {"parent_q1_median_q3": [2.0, 3.0, 4.0],
                                  "change_q1_median_q3": [2.0, 3.0, 4.0],
                                  "change_better_pairs": 2}
        assert out["correct"] is True
        assert out["failed"] == {"parent": 0, "change": 0}

    def test_single_pair_and_failures(self):
        summarize = load_bench_pairs().summarize
        parent = records({"items_per_s": [2.0], "setup_s": [1.0]}, failed=[3])
        change = records({"items_per_s": [1.5], "setup_s": [0.5]}, correct=[False], failed=[1])
        out = summarize(parent, change, self.metrics)
        assert out["items_per_s"]["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
        assert out["items_per_s"]["change_better_pairs"] == 0
        assert out["setup_s"]["change_q1_median_q3"] == [0.5, 0.5, 0.5]
        assert out["setup_s"]["change_better_pairs"] == 1
        assert out["correct"] is False
        assert out["failed"] == {"parent": 3, "change": 1}

    def test_trace1_correctness_per_side(self):
        summarize = load_bench_pairs().summarize
        parent = records({"items_per_s": [2.0], "setup_s": [1.0]})
        change = records({"items_per_s": [3.0], "setup_s": [1.0]})
        # a failed trace-1 check reaches the summary though every trace-0 run passed
        trace1 = {"parent": records({"items_per_s": [1.0]}),
                  "change": records({"items_per_s": [1.0, 1.0]}, correct=[True, False])}
        out = summarize(parent, change, self.metrics, trace1)
        assert out["correct"] is True
        assert out["trace1_correct"] == {"parent": True, "change": False}
        assert summarize(parent, change, self.metrics)["trace1_correct"] == {
            "parent": None, "change": None}

    def test_raw_host_throughput_beside_calibrated(self):
        summarize = load_bench_pairs().summarize
        # calibrated throughput has the change ahead in 3 pairs, raw in 1
        parent = records({"items_per_s": [1, 1, 1, 1], "setup_s": [1, 1, 1, 1]},
                         host=[10, 12, 14, 16])
        change = records({"items_per_s": [2, 2, 2, 0], "setup_s": [1, 1, 1, 1]},
                         host=[9, 11, 15, 13])
        out = summarize(parent, change, self.metrics)
        assert out["items_per_s"]["change_better_pairs"] == 3
        assert out["detail.host_items_per_s"] == {"parent_q1_median_q3": [11.5, 13.0, 14.5],
                                                  "change_q1_median_q3": [10.5, 12.0, 13.5],
                                                  "change_better_pairs": 1}
