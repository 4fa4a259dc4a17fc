"""irislam benchmark: enroll, train and identify workloads.

    python3 perfbench/run.py --workload enroll|train|identify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The benchmark renders the workload's
inputs from the seed, then measures the checkout's `src/irislam` in fresh
interpreters (`worker.py`), one client issuing each call after the last
returns. With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of one traced unit of work plus the tracing overhead. Earlier lines
summarise the run and the machine; the full record, including
per-workload names (images_per_s, probe_ms_p99, ...), is written under
.perfbench_out/.

Times are host-calibrated: each worker times a fixed reference mix beside
its timed work (see `worker.Reference`), and every time is scaled to a host
on which that reference takes a fixed time. The record keeps the raw host
figures too.

This process imports only the standard library, so it stays small and
never renders inputs: peak memory is read from the worker that runs the
program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy.normalized_lamstar": "fraction",
}
# items_per_s under the name of what one item is, per workload.
ITEM_RATE_NAME = {"enroll": "images_per_s", "train": "templates_per_s",
                  "identify": "probes_per_s"}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, mode: str, *extra: str) -> dict:
        """Run worker.py in a fresh interpreter; returns its JSON line, with
        `setup_s` measured from launch to the worker's ready stamp."""
        cmd = [sys.executable, str(WORKER), mode, "--workload", self.args.workload,
               "--scale", self.args.scale, "--dir", str(self.work),
               "--seed", str(self.args.seed), *extra]
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} did not finish within the run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited with code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if "ready_at" in out:
            out["setup_s"] = out["ready_at"] - launched
        return out

    def measure(self) -> list[dict]:
        """Timed units until --seconds are spent. Enroll and train units
        are whole passes or rounds in fresh interpreters, so a unit starts
        only if one more of the average length still fits; identify is one
        worker probing for the whole budget."""
        units: list[dict] = []
        timed = 0.0
        while True:
            if units:
                mean = timed / len(units)
                if (self.args.workload == "identify" or timed + mean > self.args.seconds
                        or time.monotonic() + 2 * mean > self.deadline):
                    return units
            units.append(self.worker("measure", "--unit", f"u{len(units)}",
                                     "--budget", str(self.args.seconds - timed)))
            timed += units[-1]["unit_s"]


def _problems_of(units: list[dict]) -> list[str]:
    return [p for u in units for p in u["problems"]]


def untraced(run: Run) -> tuple[dict, dict]:
    units = run.measure()
    set_ups = units + [run.worker("setup") for _ in range(SETUP_SAMPLES - len(units))]
    setups = [w["setup_s"] * w["setup_calibration"] for w in set_ups]
    items = sum(u["items"] for u in units)
    unit_s = sum(u["unit_s"] * u["unit_calibration"] for u in units)
    metrics = {
        "items_per_s": items / unit_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
        "accuracy.normalized_lamstar": units[0]["accuracy"]["normalized_lamstar"],
    }
    problems = _problems_of(units)
    if any(u["counts"] != units[0]["counts"] for u in units):
        problems.append("units of one run disagree on their counts")
    detail = {
        ITEM_RATE_NAME[run.args.workload]: metrics["items_per_s"],
        "host_items_per_s": items / sum(u["unit_s"] for u in units),
        "host_setup_s": statistics.median(w["setup_s"] for w in set_ups),
        "units": len(units),
        "unit_s": [u["unit_s"] for u in units],
        "unit_calibration": [u["unit_calibration"] for u in units],
        "setup_samples_s": setups,
        "reference_s": [x for w in set_ups for x in w["reference_s"]],
        "counts": units[0]["counts"],
    }
    for name, value in units[0]["accuracy"].items():
        detail[f"accuracy.{name}"] = value
    latencies = [x for u in units for x in u.get("latency_ms", ())]
    if latencies:
        detail["probe_ms_p50"] = statistics.median(latencies)
        detail["probe_ms_p99"] = statistics.quantiles(latencies, n=100)[98]
        detail["probes"] = len(latencies)
    result = {
        "correct": not problems,
        "attempted": items,
        "failed": sum(u["failed"] for u in units),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return result, {**detail, "problems": problems}


def traced(run: Run, gen: dict) -> tuple[dict, dict]:
    """One untraced and one traced unit of the same work: the traced one
    gives the per-layer metrics, the difference in calibrated time the
    overhead, and both must observe exactly the same counts."""
    base = run.worker("measure", "--unit", "base")
    trace_path = OUT_ROOT / f"trace-{run.args.workload}-seed{run.args.seed}.jsonl"
    tr = run.worker("trace", "--unit", "traced", "--trace-out", str(trace_path))
    problems = _problems_of([base, tr])
    if tr["counts"] != base["counts"]:
        problems.append(f"traced counts {tr['counts']} != untraced {base['counts']}")
    for key, value in tr["traced_counts"].items():
        if tr["counts"][key] != value:
            problems.append(f"tracer saw {key}={value}, outside count {tr['counts'][key]}")
    layers = tr["layers"]
    layers["synthdata.make_benchmark_ms"]["value"] = gen["make_benchmark_ms"]
    base_s = base["first_unit_s"] * base["unit_calibration"]
    overhead_s = tr["first_unit_s"] * tr["unit_calibration"] - base_s
    layers["trace.overhead_pct"]["value"] = 100.0 * overhead_s / base_s
    result = {
        "correct": not problems,
        "attempted": tr["items"],
        "failed": tr["failed"],
        "metrics": layers,
    }
    detail = {"untraced_unit_s": base["first_unit_s"], "traced_unit_s": tr["first_unit_s"],
              "trace_overhead_s": overhead_s, "trace_file": str(trace_path.relative_to(ROOT)),
              "counts": tr["counts"], "problems": problems}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(ITEM_RATE_NAME))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "irislam" / "__init__.py").is_file():
        print(f"no irislam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        gen = run.worker("generate")
        result, detail = traced(run, gen) if args.trace else untraced(run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "machine": gen["machine"],
              "make_benchmark_ms": gen["make_benchmark_ms"], "detail": detail, "result": result}
    OUT_ROOT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_ROOT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"irislam benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("machine: " + json.dumps(gen["machine"], sort_keys=True))
    shown = {k: v for k, v in detail.items() if not isinstance(v, (list, dict))}
    print("detail: " + json.dumps(shown))
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
