"""Synthetic benchmark: train and evaluate both classifier variants.

Renders a labeled dataset (16 classes, 5 train + 3 test each by default),
runs the full segment/normalize/train/eval pipeline for the regular and
the normalized classifier, and prints the comparison table.

Usage: python3 scripts/run_benchmark.py [--classes N] [--shift-range K] ...
"""

import argparse
import tempfile
from pathlib import Path

from irislam.harness import HarnessConfig, compare_variants, format_comparison, index_dataset
from irislam.synthdata import make_benchmark, write_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=16)
    ap.add_argument("--train", type=int, default=5)
    ap.add_argument("--test", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--shift-range", type=int, default=0)
    ap.add_argument("--workdir", default=None,
                    help="keep dataset/models/reports here instead of a temp dir")
    args = ap.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="irislam_"))
    data = workdir / "eyes"
    print(f"rendering {args.classes} classes x {args.train}+{args.test} eyes "
          f"under {data} ...")
    train_eyes, test_eyes = make_benchmark(
        args.classes, args.train, args.test, args.seed, noise_sigma=args.noise
    )
    write_dataset(data, train_eyes + test_eyes)

    cfg = HarnessConfig(train_per_class=args.train, shift_range=args.shift_range)
    index = index_dataset(data, cfg.train_per_class)
    results = compare_variants(index, cfg, workdir / "compare_out")
    print()
    print(format_comparison(results), end="")
    print(f"\nmodels and reports under {workdir / 'compare_out'}")


if __name__ == "__main__":
    main()
