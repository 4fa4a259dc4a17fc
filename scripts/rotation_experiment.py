"""Rotation sensitivity: accuracy vs probe rotation and shift-search width.

Trains the normalized classifier on unrotated-protocol training images,
then re-renders every test eye at a fixed rotation (in template columns)
and reports accuracy for several shift-search ranges. With no shift
search, even small rotations collapse accuracy; widening the search past
the rotation restores it.

Usage: python3 scripts/rotation_experiment.py [--columns 3] [--shifts 0 2 4 8]
"""

import argparse
import math
import tempfile
from dataclasses import replace
from pathlib import Path

from irislam.harness import HarnessConfig, index_dataset, run_train
from irislam.lamstar import LamstarConfig, classify, load_model
from irislam.normalization import unwrap
from irislam.segmentation import localize_iris
from irislam.synthdata import make_benchmark, render_eye, write_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=16)
    ap.add_argument("--train", type=int, default=5)
    ap.add_argument("--test", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--columns", type=float, default=3.0,
                    help="probe rotation in template columns (of 480)")
    ap.add_argument("--shifts", type=int, nargs="+", default=[0, 2, 4, 8])
    args = ap.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="irislam_rot_"))
    data = workdir / "eyes"
    train_eyes, test_eyes = make_benchmark(args.classes, args.train, args.test, args.seed)
    write_dataset(data, train_eyes + test_eyes)

    cfg = HarnessConfig(
        train_per_class=args.train, lamstar=LamstarConfig(normalized=True)
    )
    index = index_dataset(data, cfg.train_per_class)
    model_path, _ = run_train(index, cfg, workdir / "model.lns")
    net = load_model(model_path)

    rotation = args.columns * 2.0 * math.pi / cfg.angular_res
    print(f"probes rotated by {args.columns} columns "
          f"({math.degrees(rotation):.2f} deg), {len(test_eyes)} test eyes")
    templates = []
    for eye in test_eyes:
        img = render_eye(replace(eye.spec, rotation=rotation))
        templates.append((unwrap(img, localize_iris(img)), eye.class_id))

    print(f"{'shift range':>11} {'accuracy':>9}")
    for shift in args.shifts:
        correct = sum(
            classify(net, t, shift_range=shift).class_index == label
            for t, label in templates
        )
        print(f"{shift:>11d} {correct / len(templates):>9.4f}")


if __name__ == "__main__":
    main()
