"""One fresh interpreter of the irislam benchmark; `run.py` starts it.

Modes:
  generate  render the workload's inputs from the seed into --dir
  setup     load the program and the workload's fixed state, then exit
  measure   set up, then run the timed work (one enroll pass, one train
            round, or identify probes until --budget seconds are spent)
  trace     like measure, but with every layer traced and one unit of work

The last line of standard output is one JSON object. The program sees
only the files under --dir; the seed never reaches it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Input sizes. Full sizes are the benchmark; tiny ones serve the self-test.
SCALES = {
    # A slice of the paper's 16 x (5 + 3) protocol at the same image size
    # and noise: one full 16-class pass takes 60-85 s on 2 cores.
    "enroll": {"full": (4, 5, 3), "tiny": (2, 1, 1)},
    # (classes, train per class, held-out per class)
    "train": {"full": (64, 5, 1), "tiny": (3, 2, 1)},
    # (classes, train per class, test eyes per class)
    "identify": {"full": (64, 5, 3), "tiny": (3, 2, 1)},
}
NOISE = 0.01
RADIAL, ANGULAR = 20, 480
SHIFT_RANGE = 8  # the README operating point
# Probe rotations in template columns: across and slightly past +-SHIFT_RANGE.
ROTATIONS = (-10, -6, -2, 2, 6, 10)
VARIANTS = (("lamstar", False), ("normalized_lamstar", True))
# acceptance criterion 7: both variants at least this accurate at shift 0
ACCURACY_FLOOR = 0.95

# Host calibration. The shared hosts this was written on drift in speed by
# up to 40% over minutes, and all of the program's kinds of work drift
# together. Each time is divided by a `Reference` sample taken in the same
# interpreter beside it and multiplied by REFERENCE_NOMINAL_S, so times
# read as seconds on a host where the reference takes that long.
REFERENCE_NOMINAL_S = 0.3
REFERENCE_EVERY_S = 2.0  # identify: time the reference this often


class Reference:
    """A fixed piece of the kind of work a workload does, using numpy and
    scipy only: large FFTs alone for enroll (its time is nearly all Hough
    FFTs); for train and identify a mix of FFTs, small einsums (winner
    search) and a pure Python loop (per-module SOM calls).

    Timed work is reported with `add` and split into segments by
    `measure`; each segment is calibrated by the mean of the reference
    samples just before and just after it.
    """

    def __init__(self, workload: str):
        import numpy as np

        rng = np.random.default_rng(0)
        self.grid = rng.random((400, 400))
        self.packed = rng.random((480, 7, 20))
        self.subwords = rng.random((480, 20))
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._pending_s = 0.0
        self._counts = (55, 0, 0) if workload == "enroll" else (20, 2000, 1_000_000)
        # Untimed once: FFT plans, einsum paths, and the allocator settling
        # on the reference's array sizes, which would otherwise make the
        # first sample slower than the rest.
        self._run(*self._counts)

    def _run(self, ffts: int, einsums: int, steps: int) -> None:
        import numpy as np
        from scipy import fft

        for _ in range(ffts):
            fft.irfft2(fft.rfft2(self.grid) * 0.5, s=self.grid.shape)
        for _ in range(einsums):
            np.einsum("mnd,md->mn", self.packed, self.subwords).argmax(axis=1)
        total = 0
        for i in range(steps):
            total += i * i % 7

    def add(self, seconds: float) -> None:
        self._pending_s += seconds

    def measure(self) -> None:
        start = perf_counter()
        self._run(*self._counts)
        sample = perf_counter() - start
        if self._pending_s:
            mean = (self.samples[-1] + sample) / 2
            self.calibrated_s += self._pending_s * REFERENCE_NOMINAL_S / mean
            self.raw_s += self._pending_s
            self._pending_s = 0.0
        self.samples.append(sample)


def import_program():
    """Import irislam from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import irislam

    if Path(irislam.__file__).resolve().parent != SRC / "irislam":
        raise SystemExit(f"irislam imported from {irislam.__file__}, not from {SRC}")
    return irislam


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    VmHWM belongs to the memory map made at exec, so unlike ru_maxrss it
    does not include the parent's memory inherited at fork.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def machine_facts() -> dict:
    import numpy
    import scipy

    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OMP_PROC_BIND")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "processor": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in env_keys},
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _class_dir(root: Path, class_id: int) -> Path:
    d = root / f"class{class_id:03d}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _labeled_files(root: Path, pattern: str) -> tuple[list[Path], list[int]]:
    """Files under <root>/<class>/ in sorted order; class ids follow the
    sorted class directories, as harness.index_dataset numbers them."""
    paths, labels = [], []
    for class_id, class_dir in enumerate(sorted(p for p in root.iterdir() if p.is_dir())):
        for f in sorted(class_dir.glob(pattern)):
            paths.append(f)
            labels.append(class_id)
    return paths, labels


# --- generate -------------------------------------------------------------

def generate(workload: str, scale: str, seed: int, work: Path) -> dict:
    from irislam import lamstar, normalization
    from irislam.imaging import save_gray_image
    from irislam.synthdata import make_benchmark

    classes, n_train, n_test = SCALES[workload][scale]
    start = perf_counter()
    train_eyes, test_eyes = make_benchmark(classes, n_train, n_test, seed, noise_sigma=NOISE)
    make_ms = (perf_counter() - start) * 1e3

    def unwrap_truth(eye):
        return normalization.unwrap(eye.image, eye.spec.localization, RADIAL, ANGULAR,
                                    label=f"class{eye.class_id:03d}")

    if workload == "enroll":
        for eye in train_eyes + test_eyes:
            save_gray_image(eye.image, _class_dir(work / "eyes", eye.class_id) / f"{eye.name}.pgm")
    else:
        # Templates unwrapped at the ground-truth circles: no segmentation.
        train_t = [unwrap_truth(e) for e in train_eyes]
        test_root = work / ("heldout" if workload == "train" else "probes")
        for eye in test_eyes:
            normalization.save_template(unwrap_truth(eye),
                                        _class_dir(test_root, eye.class_id) / f"{eye.name}.irt")
        if workload == "train":
            for eye, t in zip(train_eyes, train_t):
                normalization.save_template(t, _class_dir(work / "templates", eye.class_id)
                                            / f"{eye.name}.irt")
        else:
            net = lamstar.LamstarNetwork(ANGULAR, RADIAL, classes,
                                         lamstar.LamstarConfig(normalized=True))
            lamstar.train(net, train_t, [e.class_id for e in train_eyes])
            lamstar.save_model(net, work / "gallery.lns")
    return {"make_benchmark_ms": make_ms}


# --- set-up ---------------------------------------------------------------

def setup(workload: str, scale: str, work: Path) -> dict:
    """The workload's fixed state, loaded before any timed work."""
    from irislam import harness, lamstar, normalization

    classes, n_train, _ = SCALES[workload][scale]
    if workload == "enroll":
        return {"index": harness.index_dataset(work / "eyes", n_train), "n_train": n_train}
    if workload == "train":
        paths, labels = _labeled_files(work / "templates", "*.irt")
        heldout, heldout_labels = _labeled_files(work / "heldout", "*.irt")
        return {"paths": paths, "labels": labels, "classes": classes,
                "heldout": heldout, "heldout_labels": heldout_labels}
    net = lamstar.load_model(work / "gallery.lns")
    paths, labels = _labeled_files(work / "probes", "*.irt")
    probes, truth = [], []
    for path, label in zip(paths, labels):
        t = normalization.load_template(path)
        for shift in ROTATIONS:
            probes.append(normalization.rotate_template(t, shift))
            truth.append(label)
    return {"net": net, "probes": probes, "truth": truth}


# --- timed units ----------------------------------------------------------

def run_enroll(state: dict, unit_dir: Path, tracer, reference: Reference) -> dict:
    """One `irislam compare` pass from an empty template cache."""
    from irislam import harness

    index = state["index"]
    cfg = harness.HarnessConfig(train_per_class=state["n_train"],
                                cache_dir=str(unit_dir / "cache"))
    start = perf_counter()
    results = harness.compare_variants(index, cfg, unit_dir / "out")
    elapsed = perf_counter() - start
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    reference.add(elapsed)
    reference.measure()

    # Checks, outside the timed region: retraining on the warm cache must
    # reproduce both models and machine reports byte for byte.
    again = harness.compare_variants(index, cfg, unit_dir / "again")
    problems = []
    for first, second in zip(results, again):
        for suffix in (".lns", "_report.kv"):
            a = unit_dir / "out" / f"{first.name}{suffix}"
            b = unit_dir / "again" / f"{second.name}{suffix}"
            if a.read_bytes() != b.read_bytes():
                problems.append(f"{a.name} differs after retraining on the warm cache")
        if not first.report.accuracy >= ACCURACY_FLOOR:
            problems.append(f"{first.name} accuracy {first.report.accuracy} < {ACCURACY_FLOOR}")

    images = len(index.entries)
    train_stems = {e.path.stem for e in index.split("train")}
    cached = list((unit_dir / "cache").rglob("*.irt"))
    cached_train = sum(p.stem in train_stems for p in cached)
    logs = [r.log for r in results]
    counts = {
        "images": images,
        "templates_cached": len(cached),
        "images_failed": images - len(cached),
        "num_test": sum(r.report.num_test for r in results),
        "correct": sum(int(r.report.confusion.trace()) for r in results),
        "lamstar.epochs_run": sum(log.epochs_run for log in logs),
        "lamstar.neurons_total": sum(sum(log.neuron_counts) for log in logs),
        "lamstar.neurons_max": max(max(log.neuron_counts) for log in logs),
        "lamstar.model_bytes": max(r.model_path.stat().st_size for r in results),
        "lamstar.som_present_calls": len(results) * cached_train * ANGULAR,
        "lamstar.shifts_tried": sum(r.report.num_test for r in results) * (2 * cfg.shift_range + 1),
    }
    return {
        "unit_s": elapsed,
        "first_unit_s": elapsed,
        "items": images,
        "failed": images - len(cached),
        "peak_rss_mb": peak,
        "accuracy": {r.name: r.report.accuracy for r in results},
        "counts": counts,
        "problems": problems,
    }


def run_train(state: dict, unit_dir: Path, tracer, reference: Reference) -> dict:
    """Build both galleries: load templates, train, save and reload."""
    from irislam import lamstar, normalization

    unit_dir.mkdir(parents=True, exist_ok=True)
    labels = state["labels"]
    elapsed = 0.0
    start = perf_counter()
    templates = [normalization.load_template(p) for p in state["paths"]]
    logs, models = {}, {}
    for name, normalized in VARIANTS:
        if tracer is not None:
            tracer.item = name
        net = lamstar.LamstarNetwork(ANGULAR, RADIAL, state["classes"],
                                     lamstar.LamstarConfig(normalized=normalized))
        logs[name] = lamstar.train(net, templates, labels)
        lamstar.save_model(net, unit_dir / f"{name}.lns")
        models[name] = lamstar.load_model(unit_dir / f"{name}.lns")
        segment = perf_counter() - start
        elapsed += segment
        reference.add(segment)
        reference.measure()
        start = perf_counter()
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    problems = []
    accuracy = {}
    heldout = [normalization.load_template(p) for p in state["heldout"]]
    for name, _ in VARIANTS:
        path = unit_dir / f"{name}.lns"
        lamstar.save_model(lamstar.load_model(path), unit_dir / f"{name}.resaved.lns")
        if (unit_dir / f"{name}.resaved.lns").read_bytes() != path.read_bytes():
            problems.append(f"save_model(load_model(f)) != f for {name}")
        if logs[name].epoch_errors[-1] != 0:
            problems.append(f"{name} last epoch made {logs[name].epoch_errors[-1]} errors")
        hits = sum(lamstar.classify(models[name], t, SHIFT_RANGE).class_index == label
                   for t, label in zip(heldout, state["heldout_labels"]))
        accuracy[name] = hits / len(heldout)

    counts = {
        "templates": len(templates),
        "epoch_errors": {name: log.epoch_errors for name, log in logs.items()},
        "lamstar.epochs_run": sum(log.epochs_run for log in logs.values()),
        "lamstar.neurons_total": sum(sum(log.neuron_counts) for log in logs.values()),
        "lamstar.neurons_max": max(max(log.neuron_counts) for log in logs.values()),
        "lamstar.model_bytes": max((unit_dir / f"{n}.lns").stat().st_size for n, _ in VARIANTS),
        "lamstar.som_present_calls": len(VARIANTS) * len(templates) * ANGULAR,
    }
    return {
        "unit_s": elapsed,
        "first_unit_s": elapsed,
        "items": len(templates) * len(VARIANTS),
        "failed": 0,
        "peak_rss_mb": peak,
        "accuracy": accuracy,
        "counts": counts,
        "problems": problems,
    }


def run_identify(state: dict, budget: float, tracer, reference: Reference) -> dict:
    """Classify probes one at a time, cycling through them until `budget`
    seconds of probing have passed; every probe is classified at least
    once. The reference is timed every REFERENCE_EVERY_S of probing."""
    from irislam import lamstar

    net, probes, truth = state["net"], state["probes"], state["truth"]
    latencies = []
    correct = nonzero = bad_shift = 0
    first_cycle_s = None
    probing = 0.0
    next_reference = REFERENCE_EVERY_S
    i = 0
    while first_cycle_s is None or probing < budget:
        k = i % len(probes)
        if tracer is not None:
            tracer.item = k
        t0 = perf_counter()
        pred = lamstar.classify(net, probes[k], shift_range=SHIFT_RANGE)
        latency = perf_counter() - t0
        latencies.append(latency)
        probing += latency
        reference.add(latency)
        bad_shift += abs(pred.shift) > SHIFT_RANGE
        i += 1
        if first_cycle_s is None:
            correct += pred.class_index == truth[k]
            nonzero += pred.shift != 0
            if i == len(probes):
                first_cycle_s = probing
        if probing >= next_reference:
            reference.measure()
            next_reference += REFERENCE_EVERY_S
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    reference.measure()

    problems = []
    if bad_shift:
        problems.append(f"{bad_shift} predictions outside shift range +-{SHIFT_RANGE}")
    n = len(probes)
    counts = {
        "probes": n,
        "correct": correct,
        "nonzero_shifts": nonzero,
        "lamstar.shifts_tried": n * (2 * SHIFT_RANGE + 1),
    }
    return {
        "unit_s": probing,
        "first_unit_s": first_cycle_s,
        "items": len(latencies),
        "failed": 0,
        "peak_rss_mb": peak,
        "accuracy": {"normalized_lamstar": correct / n},
        "latency_ms": [x * 1e3 for x in latencies],
        "counts": counts,
        "problems": problems,
    }


def traced_counts(workload: str, tracer) -> dict:
    """The tracer's view of the counts that `run_*` observe from outside."""
    c = tracer.counts
    if workload == "identify":
        return {"probes": c["lamstar.classify_calls"],
                "nonzero_shifts": c["lamstar.nonzero_shifts"],
                "lamstar.shifts_tried": c["lamstar.shifts_tried"]}
    out = {k: c[k] for k in ("lamstar.epochs_run", "lamstar.neurons_total",
                             "lamstar.neurons_max", "lamstar.model_bytes")}
    out["lamstar.som_present_calls"] = tracer.metrics()["lamstar.som_present_calls"]
    if workload == "enroll":
        out["lamstar.shifts_tried"] = c["lamstar.shifts_tried"]
        # every template computed without a localization failure is cached
        out["templates_cached"] = c["harness.cache_misses"] - c["segmentation.localize_failed"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("generate", "setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(SCALES))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--dir", required=True, type=Path, help="the run's work directory")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--unit", default="u0", help="sub-directory name for this unit's outputs")
    ap.add_argument("--budget", type=float, default=0.0, help="identify: seconds to keep probing")
    ap.add_argument("--trace-out", type=Path, help="trace mode: where to write the spans")
    args = ap.parse_args(argv)

    import_program()
    if args.mode == "generate":
        out = generate(args.workload, args.scale, args.seed, args.dir)
        out["machine"] = machine_facts()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    state = setup(args.workload, args.scale, args.dir)
    ready_at = time.monotonic()
    reference = Reference(args.workload)
    reference.measure()
    calibration = {"ready_at": ready_at, "reference_s": reference.samples,
                   "setup_calibration": REFERENCE_NOMINAL_S / reference.samples[0]}
    if args.mode == "setup":
        print(json.dumps(calibration))
        return 0

    unit_dir = args.dir / args.unit
    if args.workload == "enroll":
        out = run_enroll(state, unit_dir, tracer, reference)
    elif args.workload == "train":
        out = run_train(state, unit_dir, tracer, reference)
    else:
        out = run_identify(state, args.budget, tracer, reference)
    out.update(calibration)
    out["unit_calibration"] = reference.calibrated_s / reference.raw_s
    if tracer is not None:
        out["layers"] = {name: {"value": value, "unit": tracer_module.PER_LAYER_UNITS[name]}
                         for name, value in tracer.metrics().items()}
        out["traced_counts"] = traced_counts(args.workload, tracer)
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
