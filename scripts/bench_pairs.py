"""Paired benchmark runs of two checkouts, written as one BENCH_<n>.json.

Runs `python3 perfbench/run.py --workload W --seed S --trace 0` in a
parent and a change checkout back to back on each seed, the parent first
on odd-numbered pairs and the change first on even-numbered ones, so host
drift falls on both sides alike. Choose the seeds before measuring. With
--trace1-seed, each side also runs one trace-1 unit per workload first.
Every record is the run's .perfbench_out/ file, unedited. The summary
gives, per workload and end-to-end metric of BENCHMARK.json and for the
raw host throughput `detail.host_items_per_s`, each side's quartiles over
the seeds and the number of pairs the change won, and per workload each
side's trace-1 correctness (null when not run).

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 921 922 ...
       [--workloads enroll train identify] [--trace1-seed 5] [--out BENCH_n.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def summarize(parent: list[dict], change: list[dict], metrics: list[dict],
              trace1: dict[str, list[dict]] | None = None) -> dict:
    """Summary of one workload's trace-0 records of each side; trace1 maps
    a side to its trace-1 records of the workload."""
    def compare(p: list[float], c: list[float], higher: bool) -> dict:
        return {
            "parent_q1_median_q3": statistics.quantiles(p, n=4, method="inclusive")
            if len(p) > 1 else p * 3,
            "change_q1_median_q3": statistics.quantiles(c, n=4, method="inclusive")
            if len(c) > 1 else c * 3,
            "change_better_pairs": sum((b > a) if higher else (b < a) for a, b in zip(p, c)),
        }

    out = {}
    for m in metrics:
        out[m["name"]] = compare([r["result"]["metrics"][m["name"]]["value"] for r in parent],
                                 [r["result"]["metrics"][m["name"]]["value"] for r in change],
                                 m["better"] == "higher")
    # The raw throughput beside the host-calibrated one: they can disagree
    # on which side of a pair was faster.
    out["detail.host_items_per_s"] = compare([r["detail"]["host_items_per_s"] for r in parent],
                                             [r["detail"]["host_items_per_s"] for r in change],
                                             True)
    records = parent + change
    out["correct"] = all(r["result"]["correct"] for r in records)
    out["failed"] = {"parent": sum(r["result"]["failed"] for r in parent),
                     "change": sum(r["result"]["failed"] for r in change)}
    trace1 = trace1 or {}
    out["trace1_correct"] = {side: all(r["result"]["correct"] for r in trace1[side])
                             if trace1.get(side) else None for side in ("parent", "change")}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", default=["enroll", "train", "identify"])
    ap.add_argument("--trace1-seed", type=int)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args()
    sides = {"parent": args.parent, "change": args.change}
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    out = {"command": "python3 perfbench/run.py --workload W --seed S --trace T",
           "protocol": __doc__.split("\n\n")[1].replace("\n", " "),
           "seeds": args.seeds, "summary": {},
           "trace0": {side: [] for side in sides}, "trace1": {side: [] for side in sides}}
    if args.trace1_seed is not None:
        for w in args.workloads:
            for side, checkout in sides.items():
                out["trace1"][side].append(run(checkout, w, args.trace1_seed, 1))
    for i, seed in enumerate(args.seeds, start=1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for w in args.workloads:
            for side in order:
                out["trace0"][side].append(run(sides[side], w, seed, 0))
                print(f"pair {i} seed {seed} {w} {side} done", flush=True)
    for w in args.workloads:
        trace0, trace1 = ({side: [r for r in out[trace][side] if r["workload"] == w]
                           for side in sides} for trace in ("trace0", "trace1"))
        out["summary"][w] = summarize(trace0["parent"], trace0["change"], metrics, trace1)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["summary"], indent=1))


if __name__ == "__main__":
    main()
