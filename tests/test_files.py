"""Every file irislam writes replaces its target only once complete: a
failed write leaves the previous file and no temporary file, and writers
of one path do not disturb each other."""

import errno
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from irislam import harness
from irislam.harness import EvalReport, HarnessConfig, index_dataset, write_report
from irislam.imaging import GrayImage, save_gray_image
from irislam.normalization import IrisTemplate, save_template


def files_under(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def report(accuracy: float) -> EvalReport:
    return EvalReport(accuracy=accuracy, per_class_accuracy=np.array([accuracy]),
                      confusion=np.array([[1]]), train_seconds=0.0, test_seconds=0.0,
                      config_echo={}, num_test=1)


def test_two_writers_of_one_cache_entry(tmp_path, monkeypatch):
    entry = tmp_path / "cache" / "digest" / "c" / "eye.irt"
    templates = [IrisTemplate(np.full((2, 3), v), "c") for v in (0.25, 0.75)]
    expected = []
    for i, t in enumerate(templates):
        save_template(t, tmp_path / f"alone{i}.irt")
        expected.append((tmp_path / f"alone{i}.irt").read_bytes())
    barrier = threading.Barrier(2, timeout=10)
    listings = []
    os_replace = os.replace

    def replace_once_both_are_written(src, dst):
        barrier.wait()
        listings.append(sorted(p.name for p in entry.parent.iterdir()))
        barrier.wait()
        os_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_once_both_are_written)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(harness._write_entry, t, entry) for t in templates]
        for f in futures:
            f.result(timeout=30)
    # each writer had its own temporary file when either renamed
    assert [sum(n.endswith(".partial") for n in names) for names in listings] == [2, 2]
    assert entry.read_bytes() in expected
    assert [p.name for p in entry.parent.iterdir()] == ["eye.irt"]


def template_rewrite(tmp_path, small_dataset):
    path = tmp_path / "t.irt"
    save_template(IrisTemplate(np.zeros((2, 3)), "old"), path)
    return lambda: save_template(IrisTemplate(np.ones((2, 3)), "new"), path)


def image_rewrite(tmp_path, small_dataset):
    path = tmp_path / "eye.pgm"
    save_gray_image(GrayImage(np.zeros((4, 5))), path)
    return lambda: save_gray_image(GrayImage(np.ones((4, 5))), path)


def report_rewrite(tmp_path, small_dataset):
    write_report(report(1.0), ["a"], tmp_path / "report")
    return lambda: write_report(report(0.0), ["a"], tmp_path / "report")


def cache_entry_rewrite(tmp_path, small_dataset):
    """A corrupt cache entry, so the next read recomputes and rewrites it."""
    cfg = HarnessConfig(train_per_class=3, cache_dir=str(tmp_path / "cache"))
    index = index_dataset(small_dataset, cfg.train_per_class)
    entries = index.split("train")[:1]
    harness._templates_for(entries, index, cfg)
    [entry] = (tmp_path / "cache").rglob("*.irt")
    entry.write_bytes(b"IRT1 2 3 cut short\n")
    return lambda: harness._templates_for(entries, index, cfg)


class FailsMidWrite:
    """A file whose write stores the first half of its data, then raises."""

    def __init__(self, f, error):
        self.f, self.error = f, error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise self.error


@pytest.mark.parametrize("rewrite", [template_rewrite, image_rewrite, report_rewrite,
                                     cache_entry_rewrite])
@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   KeyboardInterrupt()], ids=["disk_full", "interrupt"])
def test_failed_write_keeps_the_previous_file(tmp_path, small_dataset, monkeypatch,
                                              rewrite, error):
    write = rewrite(tmp_path, small_dataset)
    before = files_under(tmp_path)
    path_open = Path.open

    def open_failing(self, mode="r", *args, **kwargs):
        f = path_open(self, mode, *args, **kwargs)
        return FailsMidWrite(f, error) if "w" in mode else f

    monkeypatch.setattr(Path, "open", open_failing)
    with pytest.raises(type(error)):
        write()
    monkeypatch.undo()
    assert files_under(tmp_path) == before


def test_failed_kv_write_keeps_both_reports(tmp_path, monkeypatch):
    write_report(report(1.0), ["a"], tmp_path / "report")
    before = files_under(tmp_path)
    write_text = Path.write_text

    def kv_disk_full(self, *args, **kwargs):
        if self.name.startswith("report.kv."):
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", kv_disk_full)
    with pytest.raises(OSError, match="No space left"):
        write_report(report(0.0), ["a"], tmp_path / "report")
    monkeypatch.undo()
    # the new .txt was written, but not renamed over the old one
    assert files_under(tmp_path) == before


def test_written_files_follow_the_umask(tmp_path):
    umask = os.umask(0o027)
    try:
        save_template(IrisTemplate(np.zeros((2, 3))), tmp_path / "t.irt")
        save_gray_image(GrayImage(np.zeros((4, 5))), tmp_path / "eye.pgm")
        write_report(report(1.0), ["a"], tmp_path / "report")
    finally:
        os.umask(umask)
    assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {
        "t.irt": 0o640, "eye.pgm": 0o640, "report.txt": 0o640, "report.kv": 0o640}
