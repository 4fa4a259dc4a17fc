"""Train/test orchestration over a directory-tree dataset.

Dataset layout: <root>/<class_name>/<image>.pgm. Per class the first
train_per_class files in lexicographic order are the training split and
the remainder the test split; classes without a test remainder are
skipped. Templates are cached on disk, one entry per image name under a
digest of the segmentation/normalization configuration, labelled with a
hash of the image bytes: retraining or evaluating the second classifier
variant never recomputes them, and a replaced image never gets its old
template.
"""

from __future__ import annotations

import ast
import hashlib
import logging
import math
import os
import time
from collections.abc import Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

# classify loads scipy.sparse on its first call. Loading it with the harness
# keeps that import out of run_eval's test time and out of any run timed
# after the harness is imported.
import scipy.sparse  # noqa: F401

from irislam.errors import ConfigError, DatasetError, FormatError, LocalizationError
from irislam.files import replacing
from irislam.imaging import load_gray_image
from irislam.lamstar import (
    LamstarConfig,
    LamstarNetwork,
    TrainingLog,
    classify,
    load_model,
    save_model,
    train,
)
from irislam.normalization import IrisTemplate, load_template, save_template, unwrap
from irislam.segmentation import LocalizationConfig, localize_iris

logger = logging.getLogger(__name__)

_SECTIONS = ("localization", "lamstar")  # nested configs, echoed as "<section>.<field>"
# Training settings an LNS1 model file does not record.
_UNRECORDED_TRAINING_KEYS = ("lamstar.epochs", "lamstar.learning_rate",
                             "lamstar.convergence_target", "lamstar.max_update_iters")

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_setting(key: str, text: str, kind: object):
    """Parse one flat-config value as the field's type; str | None fields
    read `None` as None and a quoted literal (as echoed) as its string."""
    try:
        if kind is bool:
            return _BOOLEANS[text.lower()]
        if kind in (int, float):
            return kind(text)
        if text == "None":
            return None
        if text[:1] in ("'", '"'):
            value = ast.literal_eval(text)
            if not isinstance(value, str):
                raise ValueError(text)
            return value
        return text
    except (KeyError, ValueError, SyntaxError):
        raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from None


@dataclass(frozen=True)
class HarnessConfig:
    localization: LocalizationConfig = LocalizationConfig()
    radial_res: int = 20
    angular_res: int = 480
    lamstar: LamstarConfig = LamstarConfig()
    train_per_class: int = 5
    shift_range: int = 0
    cache_dir: str | None = None  # None: <dataset root>/.template_cache

    def __post_init__(self):
        # Each test is written so that NaN fails it. LocalizationConfig and
        # LamstarConfig check their own ranges.
        for key, ok, need in (
            ("train_per_class", self.train_per_class >= 1, ">= 1"),
            ("radial_res", self.radial_res >= 2, ">= 2"),
            ("angular_res", self.angular_res >= 4, ">= 4"),
            # A wider window only repeats shifts it has already searched.
            ("shift_range", 0 <= self.shift_range <= self.angular_res // 2,
             f"in [0, angular_res // 2 = {self.angular_res // 2}]"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {need}, got {self.echo()[key]}")

    def _parts(self) -> dict[str, object]:
        """The config objects behind the flat keys, by key prefix."""
        return {"": self, **{f"{s}.": getattr(self, s) for s in _SECTIONS}}

    def echo(self) -> dict[str, str]:
        """Flat key-value view of every resolved setting, for provenance."""
        out: dict[str, str] = {}
        for prefix, obj in self._parts().items():
            for name, value in vars(obj).items():
                if name not in _SECTIONS:
                    out[prefix + name] = repr(value)
        return dict(sorted(out.items()))

    def with_settings(self, settings: Mapping[str, object]) -> HarnessConfig:
        """A copy with flat `key: value` settings applied under the names
        echo() produces; each value is parsed from its string form as the
        field's type, so HarnessConfig().with_settings(cfg.echo()) == cfg.
        An unknown key or an unparseable value raises ConfigError naming
        the key; an out-of-range value raises it from __post_init__."""
        parts = self._parts()
        changes: dict[str, dict[str, object]] = {prefix: {} for prefix in parts}
        for key, value in settings.items():
            cut = key.rfind(".") + 1
            prefix, name = key[:cut], key[cut:]
            kinds = get_type_hints(type(parts[prefix])) if prefix in parts else {}
            if name not in kinds or name in _SECTIONS:
                raise ConfigError(f"unknown config key {key!r}")
            changes[prefix][name] = _parse_setting(key, str(value), kinds[name])
        nested = {s: replace(parts[f"{s}."], **changes[f"{s}."]) for s in _SECTIONS}
        return replace(self, **nested, **changes[""])

    def template_digest(self) -> str:
        """Digest of everything that affects template content."""
        keys = {k: v for k, v in self.echo().items()
                if k.startswith("localization.") or k in ("radial_res", "angular_res")}
        blob = ";".join(f"{k}={v}" for k, v in keys.items())
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DatasetEntry:
    path: Path
    class_id: int
    split: str  # "train" | "test"


@dataclass(frozen=True)
class DatasetIndex:
    root: Path  # dataset directory; the default template cache lives under it
    entries: list[DatasetEntry]
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def split(self, which: str) -> list[DatasetEntry]:
        return [e for e in self.entries if e.split == which]


@dataclass
class EvalReport:
    accuracy: float  # NaN when the test set is empty
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # (num_classes, num_classes) counts, rows = truth
    train_seconds: float | None  # None unless the caller trained the model
    test_seconds: float
    config_echo: dict[str, str]
    num_test: int = 0
    num_failed: int = 0  # test images excluded by localization failure

    @property
    def accuracy_defined(self) -> bool:
        return not math.isnan(self.accuracy)


def index_dataset(root: str | Path, train_per_class: int) -> DatasetIndex:
    """Index <root>/<class>/<image>.pgm with a sorted-order train/test split.

    Classes with fewer than train_per_class + 1 images are skipped with a
    warning (no test remainder would exist). Directories whose names start
    with a dot, such as the default template cache, are not classes. A
    class name is an ASCII template label, so one with whitespace or a
    non-ASCII character raises DatasetError.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    if train_per_class < 1:
        raise ValueError("train_per_class must be positive")
    entries: list[DatasetEntry] = []
    class_names: list[str] = []
    class_dirs = (p for p in root.iterdir() if p.is_dir() and not p.name.startswith("."))
    for class_dir in sorted(class_dirs):
        files = sorted(class_dir.glob("*.pgm"))
        if len(files) < train_per_class + 1:
            logger.warning(
                "skipping class %s: %d images, need more than %d",
                class_dir.name, len(files), train_per_class,
            )
            continue
        if any(c.isspace() for c in class_dir.name):
            raise DatasetError(f"class directory name contains whitespace: {class_dir.name!r}")
        if not class_dir.name.isascii():
            raise DatasetError(f"class directory name is not ASCII: {class_dir.name!r}")
        class_id = len(class_names)
        class_names.append(class_dir.name)
        for i, f in enumerate(files):
            entries.append(DatasetEntry(f, class_id, "train" if i < train_per_class else "test"))
    if not class_names:
        raise DatasetError(f"no class directory under {root} has more than {train_per_class} images")
    return DatasetIndex(root=root, entries=entries, class_names=class_names)


def compute_template(path: Path, label: str, cfg: HarnessConfig) -> IrisTemplate:
    """Segment and unwrap one image (no caching)."""
    img = load_gray_image(path)
    loc = localize_iris(img, cfg.localization)
    return unwrap(img, loc, cfg.radial_res, cfg.angular_res, label=label)


def _load_cached(path: Path, shape: tuple[int, int], image_hash: str) -> IrisTemplate | None:
    """The cached template at path, or None when there is no entry, the
    entry is corrupt or not of the given shape (logged), or its label is
    not image_hash: the image was replaced under its name (not logged).
    Such an entry is then recomputed and overwritten."""
    if not path.is_file():
        return None
    try:
        t = load_template(path)
        if t.values.shape != shape:
            raise FormatError(f"template {t.radial_res}x{t.angular_res}, "
                              f"expected {shape[0]}x{shape[1]}")
    except FormatError as exc:
        logger.warning("recomputing corrupt template-cache entry %s: %s", path, exc)
        return None
    return t if t.label == image_hash else None


def _write_entry(t: IrisTemplate, entry: Path) -> None:
    """Write the entry, making its directory; save_template replaces it only
    once complete, so a crash never leaves a partial entry."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    save_template(t, entry)


def _worker_count() -> int:
    """One worker per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _templates_for(
    entries: list[DatasetEntry],
    index: DatasetIndex,
    cfg: HarnessConfig,
) -> tuple[list[IrisTemplate], list[int], list[DatasetEntry]]:
    """Templates (cached in cfg.cache_dir, by default <dataset root>/.template_cache)
    for the given entries; localization failures are logged and excluded.
    Returns (templates, labels, failed_entries); each template's own label
    is its image hash.

    Each image name has one entry, <digest>/<class>/<stem>.irt, labelled
    with the image's hash; an entry of another hash is overwritten.

    Cache misses are computed on a thread pool with one worker per CPU
    (segmentation spends its time in native code that releases the GIL).
    Everything else happens here in entry order: each image is hashed and
    its entry read, then each result is taken in turn, written to the cache
    and logged, so an error raised for one image comes after the entries
    before it are written, and any work not yet started is cancelled."""
    digest = cfg.template_digest()
    cache_dir = Path(cfg.cache_dir or index.root / ".template_cache")
    templates: list[IrisTemplate] = []
    labels: list[int] = []
    failed: list[DatasetEntry] = []
    pool = ThreadPoolExecutor(max_workers=_worker_count())
    try:
        # Each entry with its cache path and either its cached template or
        # the future computing it.
        pending: list[tuple[DatasetEntry, Path, IrisTemplate | Future]] = []
        for entry in entries:
            class_name = index.class_names[entry.class_id]
            image_hash = hashlib.sha256(entry.path.read_bytes()).hexdigest()[:16]
            cached = cache_dir / digest / class_name / (entry.path.stem + ".irt")
            t = _load_cached(cached, (cfg.radial_res, cfg.angular_res), image_hash)
            if t is None:
                # Read from the module per call, so wrappers of it see each miss.
                t = pool.submit(compute_template, entry.path, image_hash, cfg)
            pending.append((entry, cached, t))
        for entry, cached, t in pending:
            if isinstance(t, Future):
                try:
                    t = t.result()
                except LocalizationError as exc:
                    logger.warning("excluding %s: %s", entry.path, exc)
                    failed.append(entry)
                    continue
                _write_entry(t, cached)
            templates.append(t)
            labels.append(entry.class_id)
    finally:
        pool.shutdown(cancel_futures=True)
    return templates, labels, failed


def run_train(
    index: DatasetIndex,
    cfg: HarnessConfig,
    model_path: str | Path,
) -> tuple[Path, TrainingLog]:
    """Build templates for the training split, train, persist the model."""
    train_entries = index.split("train")
    if not train_entries:
        raise DatasetError("index has no training entries")
    templates, labels, _ = _templates_for(train_entries, index, cfg)
    for class_id, name in enumerate(index.class_names):
        if class_id not in labels:
            raise DatasetError(f"class {name} lost all training images to localization failures")
    net = LamstarNetwork(cfg.angular_res, cfg.radial_res, index.num_classes, cfg.lamstar)
    log = train(net, templates, labels)
    model_path = Path(model_path)
    save_model(net, model_path)
    return model_path, log


def run_eval(
    model_path: str | Path,
    index: DatasetIndex,
    cfg: HarnessConfig,
) -> EvalReport:
    """Classify every test entry and assemble the evaluation report."""
    net = load_model(model_path)
    if net.subword_dim != cfg.radial_res or net.num_modules != cfg.angular_res:
        raise ConfigError(
            f"model expects {net.subword_dim}x{net.num_modules} templates, "
            f"config produces {cfg.radial_res}x{cfg.angular_res}"
        )
    if net.num_classes != index.num_classes:
        raise ConfigError(
            f"model has {net.num_classes} classes, dataset has {index.num_classes}"
        )
    test_entries = index.split("test")
    templates, labels, failed = _templates_for(test_entries, index, cfg)

    n = index.num_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    start = time.perf_counter()
    for t, label in zip(templates, labels):
        pred = classify(net, t, shift_range=cfg.shift_range)
        confusion[label, pred.class_index] += 1
    test_seconds = time.perf_counter() - start

    total = int(confusion.sum())
    accuracy = float(np.trace(confusion)) / total if total else float("nan")
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion), row_sums,
        out=np.full(n, np.nan), where=row_sums > 0,
    )
    # classify used the variant, delta and threshold saved in the model;
    # LNS1 records no other training setting, so none is echoed
    model_cfg = replace(cfg, lamstar=net.config)
    return EvalReport(
        accuracy=accuracy,
        per_class_accuracy=per_class,
        confusion=confusion,
        train_seconds=None,
        test_seconds=test_seconds,
        config_echo={k: v for k, v in model_cfg.echo().items()
                     if k not in _UNRECORDED_TRAINING_KEYS},
        num_test=total,
        num_failed=len(failed),
    )


def format_report_text(report: EvalReport, class_names: list[str]) -> str:
    """Human-readable report, including wall-clock timings."""
    lines = []
    if report.accuracy_defined:
        lines.append(f"accuracy: {report.accuracy:.4f} ({report.num_test} test images)")
    else:
        lines.append("accuracy: undefined (empty test set)")
    if report.num_failed:
        lines.append(f"excluded by localization failure: {report.num_failed}")
    if report.train_seconds is not None:
        lines.append(f"train time: {report.train_seconds:.4f} s")
    lines.append(f"test time:  {report.test_seconds:.4f} s")
    lines.append("per-class accuracy:")
    for name, acc in zip(class_names, report.per_class_accuracy):
        text = "n/a" if math.isnan(acc) else f"{acc:.4f}"
        lines.append(f"  {name}: {text}")
    lines.append("confusion matrix (rows = truth):")
    for name, row in zip(class_names, report.confusion):
        lines.append("  " + " ".join(f"{v:4d}" for v in row))
    lines.append("config:")
    for k, v in report.config_echo.items():
        lines.append(f"  {k} = {v}")
    return "\n".join(lines) + "\n"


def format_report_kv(report: EvalReport, class_names: list[str]) -> str:
    """Machine-readable key-value report. Deliberately excludes wall-clock
    timings so identical runs produce byte-identical files."""
    lines = []
    acc = "nan" if not report.accuracy_defined else repr(report.accuracy)
    lines.append(f"accuracy = {acc}")
    lines.append(f"num_test = {report.num_test}")
    lines.append(f"num_failed = {report.num_failed}")
    for name, a in zip(class_names, report.per_class_accuracy):
        lines.append(f"per_class_accuracy.{name} = {'nan' if math.isnan(a) else repr(float(a))}")
    for i, row in enumerate(report.confusion):
        lines.append(f"confusion.{class_names[i]} = {' '.join(str(v) for v in row)}")
    for k, v in report.config_echo.items():
        lines.append(f"config.{k} = {v}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, class_names: list[str], prefix: str | Path) -> tuple[Path, Path]:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    # Appended, so that a prefix with a dot, such as run.1, keeps its name.
    txt = prefix.with_name(prefix.name + ".txt")
    kv = prefix.with_name(prefix.name + ".kv")
    # Both files are written before either is renamed, so a failed write
    # leaves the previous pair as it was.
    with replacing(txt) as txt_partial, replacing(kv) as kv_partial:
        txt_partial.write_text(format_report_text(report, class_names))
        kv_partial.write_text(format_report_kv(report, class_names))
    return txt, kv


@dataclass
class VariantResult:
    name: str
    model_path: Path
    log: TrainingLog
    report: EvalReport


def compare_variants(
    index: DatasetIndex,
    cfg: HarnessConfig,
    out_dir: str | Path,
) -> list[VariantResult]:
    """Train and evaluate both LAMSTAR variants under identical config.

    The template cache is shared, so images are segmented once. Returns
    one result per variant, regular first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name, normalized in (("lamstar", False), ("normalized_lamstar", True)):
        variant_cfg = replace(cfg, lamstar=replace(cfg.lamstar, normalized=normalized))
        model_path = out_dir / f"{name}.lns"
        model_path, log = run_train(index, variant_cfg, model_path)
        report = run_eval(model_path, index, variant_cfg)
        # the model was trained here, so every setting of variant_cfg is its own
        report = replace(report, train_seconds=log.train_seconds, config_echo=variant_cfg.echo())
        write_report(report, index.class_names, out_dir / f"{name}_report")
        results.append(VariantResult(name, model_path, log, report))
    return results


def format_comparison(results: list[VariantResult]) -> str:
    """Two-row summary table: accuracy and wall-clock train/test time."""
    lines = [f"{'variant':<20} {'accuracy':>9} {'train s':>9} {'test s':>9}"]
    for r in results:
        acc = "n/a" if not r.report.accuracy_defined else f"{r.report.accuracy:.4f}"
        lines.append(
            f"{r.name:<20} {acc:>9} {r.report.train_seconds:>9.4f} {r.report.test_seconds:>9.4f}"
        )
    return "\n".join(lines) + "\n"
