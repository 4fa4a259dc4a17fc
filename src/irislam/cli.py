"""Command-line surface: synth, segment, normalize, train, eval, compare.

Exit codes: 0 success, 1 usage error, 2 data error, 3 processing error.
Config files are flat `key = value` text; keys match HarnessConfig.echo()
names (e.g. localization.sigma, lamstar.delta, shift_range). A line whose
first non-blank character is `#` is a comment; elsewhere `#` is part of the
value. Each override flag sets the config key it names and wins over the file.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from irislam.errors import (
    ConfigError,
    DatasetError,
    FormatError,
    IrisLamError,
    LocalizationError,
)
from irislam.harness import (
    HarnessConfig,
    compare_variants,
    format_comparison,
    index_dataset,
    run_eval,
    run_train,
    write_report,
)
from irislam.imaging import GrayImage, load_gray_image, save_gray_image
from irislam.normalization import save_template, unwrap
from irislam.segmentation import Circle, IrisLocalization, localize_iris
from irislam.synthdata import make_benchmark, write_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROCESSING = 3


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _load_harness_config(args) -> HarnessConfig:
    """Defaults, then the --config file, then the override flags given;
    an override flag's dest is the config key it sets."""
    settings = _parse_config_file(args.config) if args.config else {}
    keys = HarnessConfig().echo()
    settings.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return HarnessConfig().with_settings(settings)


def _draw_circle(pixels: np.ndarray, circle: Circle, value: float = 1.0) -> None:
    n = max(64, int(8 * math.pi * circle.r))
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    xs = np.rint(circle.cx + circle.r * np.cos(t)).astype(int)
    ys = np.rint(circle.cy + circle.r * np.sin(t)).astype(int)
    keep = (xs >= 0) & (xs < pixels.shape[1]) & (ys >= 0) & (ys < pixels.shape[0])
    pixels[ys[keep], xs[keep]] = value


def _cmd_synth(args) -> int:
    train, test = make_benchmark(
        args.classes, args.train, args.test, args.seed, noise_sigma=args.noise
    )
    write_dataset(args.out, train + test)
    print(f"wrote {len(train)} train + {len(test)} test images for "
          f"{args.classes} classes under {args.out}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    cfg = _load_harness_config(args)
    img = load_gray_image(args.image)
    loc = localize_iris(img, cfg.localization)
    print(f"pupil: cx={loc.pupil.cx:.1f} cy={loc.pupil.cy:.1f} r={loc.pupil.r:.1f}")
    print(f"iris:  cx={loc.iris.cx:.1f} cy={loc.iris.cy:.1f} r={loc.iris.r:.1f}")
    if args.overlay:
        pixels = img.pixels.copy()
        _draw_circle(pixels, loc.pupil)
        _draw_circle(pixels, loc.iris)
        save_gray_image(GrayImage(pixels), args.overlay)
        print(f"overlay written to {args.overlay}")
    return EXIT_OK


def _parse_loc(text: str) -> IrisLocalization | None:
    if text == "auto":
        return None
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError("--loc expects 'auto' or 'pcx,pcy,pr,icx,icy,ir'")
    p = [float(v) for v in parts]
    return IrisLocalization(pupil=Circle(p[0], p[1], p[2]), iris=Circle(p[3], p[4], p[5]))


def _cmd_normalize(args) -> int:
    cfg = _load_harness_config(args)
    img = load_gray_image(args.image)
    loc = _parse_loc(args.loc)
    if loc is None:
        loc = localize_iris(img, cfg.localization)
    template = unwrap(img, loc, cfg.radial_res, cfg.angular_res, label=args.label)
    save_template(template, args.out)
    print(f"template {cfg.radial_res}x{cfg.angular_res} written to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_harness_config(args)
    index = index_dataset(args.data, cfg.train_per_class)
    model_path, log = run_train(index, cfg, args.out)
    print(f"model written to {model_path}")
    print(f"epochs run: {log.epochs_run}, epoch errors: {log.epoch_errors}")
    print(f"train time: {log.train_seconds:.4f} s")
    counts = log.neuron_counts
    print(f"neurons per module: min={min(counts)} max={max(counts)} "
          f"mean={sum(counts) / len(counts):.1f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_harness_config(args)
    index = index_dataset(args.data, cfg.train_per_class)
    report = run_eval(args.model, index, cfg)
    if args.report:
        txt, kv = write_report(report, index.class_names, args.report)
        print(f"reports written to {txt} and {kv}")
    if report.accuracy_defined:
        print(f"accuracy: {report.accuracy:.4f} on {report.num_test} test images")
    else:
        print("accuracy: undefined (empty test set)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load_harness_config(args)
    index = index_dataset(args.data, cfg.train_per_class)
    results = compare_variants(index, cfg, args.out_dir)
    print(format_comparison(results), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irislam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic benchmark dataset")
    p.add_argument("--out", required=True, help="dataset root directory")
    p.add_argument("--classes", type=int, default=16)
    p.add_argument("--train", type=int, default=5)
    p.add_argument("--test", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.01)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("segment", help="locate pupil and iris circles")
    p.add_argument("image")
    p.add_argument("--overlay", help="write a debug PGM with the circles drawn")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("normalize", help="unwrap an iris into an IRT1 template")
    p.add_argument("image")
    p.add_argument("--loc", default="auto", help="'auto' or pcx,pcy,pr,icx,icy,ir")
    p.add_argument("--out", required=True)
    p.add_argument("--radial", type=int, dest="radial_res")
    p.add_argument("--angular", type=int, dest="angular_res")
    p.add_argument("--label", default=None)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file (.lns)")
    p.add_argument("--normalized", action="store_const", const=True, dest="lamstar.normalized")
    p.add_argument("--epochs", type=int, dest="lamstar.epochs")
    p.add_argument("--delta", type=float, dest="lamstar.delta")
    p.add_argument("--train-per-class", type=int, dest="train_per_class")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--shift-range", type=int, dest="shift_range")
    p.add_argument("--train-per-class", type=int, dest="train_per_class")
    p.add_argument("--report", help="report file prefix (writes <prefix>.txt and <prefix>.kv)")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="train and evaluate both variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default="compare_out")
    p.add_argument("--shift-range", type=int, dest="shift_range")
    p.add_argument("--train-per-class", type=int, dest="train_per_class")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (code 2) or help (0)
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (DatasetError, FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (LocalizationError, ConfigError, IrisLamError, ValueError) as exc:
        print(f"processing error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
